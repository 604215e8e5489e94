//! Streaming admission: priority classes, per-tenant token buckets
//! and bounded queues with explicit shed verdicts.
//!
//! Admission is deterministic given the caller-supplied clock: the
//! token buckets refill as a pure function of elapsed nanoseconds, so
//! tests drive them with a pinned timeline instead of sleeping.

use chronus_clock::Nanos;
use chronus_net::UpdateInstance;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Priority class of a submission. Workers always serve `High` before
/// `Normal` before `Low`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Served first; interactive or SLA-bound updates.
    High,
    /// The default class.
    Normal,
    /// Background churn; served only when the other queues are empty.
    Low,
}

impl Priority {
    /// Wire name of the class.
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Parses a wire name (`high`/`normal`/`low`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "high" => Ok(Priority::High),
            "normal" => Ok(Priority::Normal),
            "low" => Ok(Priority::Low),
            other => Err(format!("unknown priority `{other}`")),
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a submission was refused. Every variant maps to a distinct
/// `chronus_daemon_shed_*_total` counter and an explicit IPC error,
/// so callers can tell back-pressure from rate policy from shutdown.
#[derive(Clone, Debug, PartialEq)]
pub enum Shed {
    /// The submission's priority-class queue was at its bound.
    QueueFull {
        /// The class whose queue was full.
        priority: Priority,
        /// The configured bound it hit.
        bound: usize,
    },
    /// The tenant's token bucket was empty.
    RateLimited {
        /// The refused tenant.
        tenant: String,
        /// Seconds until one token will have refilled.
        retry_after_s: f64,
    },
    /// The daemon is draining and takes no new work.
    Draining,
}

impl fmt::Display for Shed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Shed::QueueFull { priority, bound } => {
                write!(f, "{priority} queue full (bound {bound})")
            }
            Shed::RateLimited {
                tenant,
                retry_after_s,
            } => write!(
                f,
                "tenant `{tenant}` rate limited; retry after {retry_after_s:.3}s"
            ),
            Shed::Draining => f.write_str("daemon draining"),
        }
    }
}

/// One admitted submission waiting for a planning worker.
#[derive(Clone, Debug)]
pub struct QueuedJob {
    /// Daemon-assigned update id.
    pub id: u64,
    /// Submitting tenant.
    pub tenant: String,
    /// Priority class it was admitted under.
    pub priority: Priority,
    /// The update to plan.
    pub instance: Arc<UpdateInstance>,
    /// Planning deadline handed to the engine.
    pub deadline: Duration,
    /// Daemon-clock time the job entered its queue (for the
    /// `chronus_daemon_queue_wait_ns` histogram).
    pub enqueued_ns: Nanos,
}

/// Deterministic token bucket: `rate` tokens/second refill up to
/// `burst`, driven entirely by the caller's clock.
#[derive(Clone, Debug)]
struct TokenBucket {
    tokens: f64,
    rate: f64,
    burst: f64,
    last_ns: Nanos,
}

impl TokenBucket {
    fn new(rate: f64, burst: f64, now_ns: Nanos) -> Self {
        TokenBucket {
            tokens: burst.max(1.0),
            rate: rate.max(f64::MIN_POSITIVE),
            burst: burst.max(1.0),
            last_ns: now_ns,
        }
    }

    /// The level the bucket would hold at `now_ns`, without touching
    /// its state — the read path for snapshots, so an interleaved
    /// scrape can never advance `last_ns` ahead of the admit path's
    /// clock and steal refill time from the next `try_take`.
    fn level_at(&self, now_ns: Nanos) -> f64 {
        let elapsed_ns = now_ns.saturating_sub(self.last_ns).max(0);
        let refill = (elapsed_ns as f64 / 1e9) * self.rate;
        (self.tokens + refill).min(self.burst)
    }

    fn refill(&mut self, now_ns: Nanos) {
        self.tokens = self.level_at(now_ns);
        self.last_ns = self.last_ns.max(now_ns);
    }

    /// Takes one token, or reports seconds until one is available.
    fn try_take(&mut self, now_ns: Nanos) -> Result<(), f64> {
        self.refill(now_ns);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            Ok(())
        } else {
            Err((1.0 - self.tokens) / self.rate)
        }
    }
}

/// The admission layer's configuration (see
/// [`crate::DaemonConfig::admission`]).
#[derive(Clone, Debug, PartialEq)]
pub struct AdmissionConfig {
    /// Bound on each priority class's queue.
    pub queue_bound: usize,
    /// Default per-tenant refill rate (requests/second).
    pub default_rate: f64,
    /// Default per-tenant burst capacity.
    pub default_burst: f64,
    /// Per-tenant `(rate, burst)` overrides.
    pub overrides: BTreeMap<String, (f64, f64)>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_bound: 64,
            default_rate: 50.0,
            default_burst: 10.0,
            overrides: BTreeMap::new(),
        }
    }
}

/// Three bounded FIFO queues (one per [`Priority`]) plus the
/// per-tenant token buckets. Not internally synchronized — the daemon
/// holds it behind one mutex next to its work condvar.
#[derive(Debug)]
pub struct AdmissionQueues {
    config: AdmissionConfig,
    high: VecDeque<QueuedJob>,
    normal: VecDeque<QueuedJob>,
    low: VecDeque<QueuedJob>,
    buckets: BTreeMap<String, TokenBucket>,
}

impl AdmissionQueues {
    /// Empty queues under `config`.
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionQueues {
            config,
            high: VecDeque::new(),
            normal: VecDeque::new(),
            low: VecDeque::new(),
            buckets: BTreeMap::new(),
        }
    }

    fn queue_mut(&mut self, priority: Priority) -> &mut VecDeque<QueuedJob> {
        match priority {
            Priority::High => &mut self.high,
            Priority::Normal => &mut self.normal,
            Priority::Low => &mut self.low,
        }
    }

    /// Admits `job` at daemon-clock `now_ns`, or explains the shed.
    /// The queue bound is checked first and the token taken second, so
    /// a queue-full shed never burns a token and a rate-limited shed
    /// never holds queue space.
    pub fn admit(&mut self, job: QueuedJob, now_ns: Nanos) -> Result<(), Shed> {
        let bound = self.config.queue_bound;
        let priority = job.priority;
        if self.queue_mut(priority).len() >= bound {
            return Err(Shed::QueueFull { priority, bound });
        }
        let (rate, burst) = self
            .config
            .overrides
            .get(&job.tenant)
            .copied()
            .unwrap_or((self.config.default_rate, self.config.default_burst));
        let bucket = self
            .buckets
            .entry(job.tenant.clone())
            .or_insert_with(|| TokenBucket::new(rate, burst, now_ns));
        if let Err(retry_after_s) = bucket.try_take(now_ns) {
            return Err(Shed::RateLimited {
                tenant: job.tenant,
                retry_after_s,
            });
        }
        self.queue_mut(priority).push_back(job);
        Ok(())
    }

    /// Pops the next job in strict priority order.
    pub fn pop(&mut self) -> Option<QueuedJob> {
        self.high
            .pop_front()
            .or_else(|| self.normal.pop_front())
            .or_else(|| self.low.pop_front())
    }

    /// `(high, normal, low)` queue depths.
    pub fn depths(&self) -> (usize, usize, usize) {
        (self.high.len(), self.normal.len(), self.low.len())
    }

    /// Per-tenant token-bucket levels as of `now_ns`:
    /// `(tenant, tokens, burst, rate)` in tenant order. The level is
    /// *projected* to `now_ns` without mutating any bucket, so this
    /// `chronusctl top` view is a pure read: interleaving a snapshot
    /// between two submissions can never change what the second one
    /// observes.
    pub fn bucket_levels(&self, now_ns: Nanos) -> Vec<(String, f64, f64, f64)> {
        self.buckets
            .iter()
            .map(|(tenant, bucket)| {
                (
                    tenant.clone(),
                    bucket.level_at(now_ns),
                    bucket.burst,
                    bucket.rate,
                )
            })
            .collect()
    }

    /// Total queued jobs across all classes.
    pub fn len(&self) -> usize {
        self.high.len() + self.normal.len() + self.low.len()
    }

    /// True when every class queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronus_net::motivating_example;

    fn job(id: u64, tenant: &str, priority: Priority) -> QueuedJob {
        QueuedJob {
            id,
            tenant: tenant.to_string(),
            priority,
            instance: Arc::new(motivating_example()),
            deadline: Duration::from_secs(1),
            enqueued_ns: 0,
        }
    }

    #[test]
    fn pop_serves_strict_priority_order() {
        let mut q = AdmissionQueues::new(AdmissionConfig::default());
        q.admit(job(1, "t", Priority::Low), 0).unwrap();
        q.admit(job(2, "t", Priority::High), 0).unwrap();
        q.admit(job(3, "t", Priority::Normal), 0).unwrap();
        q.admit(job(4, "t", Priority::High), 0).unwrap();
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|j| j.id).collect();
        assert_eq!(order, vec![2, 4, 3, 1]);
        assert!(q.is_empty());
    }

    #[test]
    fn full_class_queue_sheds_without_burning_a_token() {
        let cfg = AdmissionConfig {
            queue_bound: 2,
            default_rate: 1.0,
            default_burst: 3.0,
            overrides: BTreeMap::new(),
        };
        let mut q = AdmissionQueues::new(cfg);
        q.admit(job(1, "t", Priority::Normal), 0).unwrap();
        q.admit(job(2, "t", Priority::Normal), 0).unwrap();
        match q.admit(job(3, "t", Priority::Normal), 0) {
            Err(Shed::QueueFull { priority, bound }) => {
                assert_eq!(priority, Priority::Normal);
                assert_eq!(bound, 2);
            }
            other => panic!("expected queue-full shed, got {other:?}"),
        }
        // Other classes stay open, and the burst's third token is
        // still there because the full-queue shed did not consume it.
        q.admit(job(4, "t", Priority::High), 0).unwrap();
        assert_eq!(q.depths(), (1, 2, 0));
    }

    #[test]
    fn token_bucket_refills_on_the_callers_clock() {
        let cfg = AdmissionConfig {
            queue_bound: 64,
            default_rate: 2.0, // one token every 500 ms
            default_burst: 1.0,
            overrides: BTreeMap::new(),
        };
        let mut q = AdmissionQueues::new(cfg);
        q.admit(job(1, "t", Priority::Normal), 0).unwrap();
        let shed = q.admit(job(2, "t", Priority::Normal), 0).unwrap_err();
        match shed {
            Shed::RateLimited {
                tenant,
                retry_after_s,
            } => {
                assert_eq!(tenant, "t");
                assert!((retry_after_s - 0.5).abs() < 1e-6, "{retry_after_s}");
            }
            other => panic!("expected rate limit, got {other:?}"),
        }
        // 500 ms later the bucket holds exactly one token again.
        q.admit(job(2, "t", Priority::Normal), 500_000_000).unwrap();
        // Tenants are isolated: a fresh tenant gets its own burst.
        q.admit(job(3, "u", Priority::Normal), 500_000_000).unwrap();
    }

    #[test]
    fn bucket_snapshot_never_perturbs_the_admit_path() {
        let cfg = AdmissionConfig {
            queue_bound: 64,
            default_rate: 2.0, // one token every 500 ms
            default_burst: 1.0,
            overrides: BTreeMap::new(),
        };
        // Control: burn the burst, then probe the retry hint at 400 ms
        // with no snapshot in between.
        let mut control = AdmissionQueues::new(cfg.clone());
        control.admit(job(1, "t", Priority::Normal), 0).unwrap();
        let Err(Shed::RateLimited {
            retry_after_s: expected,
            ..
        }) = control.admit(job(2, "t", Priority::Normal), 400_000_000)
        else {
            panic!("still rate limited at 400 ms");
        };
        // Probe: identical timeline, but a scrape lands in between —
        // with a clock *ahead* of the admit path's next read, the way
        // a metrics thread and a worker race on the daemon clock.
        let mut probed = AdmissionQueues::new(cfg);
        probed.admit(job(1, "t", Priority::Normal), 0).unwrap();
        let snap = probed.bucket_levels(450_000_000);
        assert_eq!(snap.len(), 1);
        assert!((snap[0].1 - 0.9).abs() < 1e-9, "level {}", snap[0].1);
        let Err(Shed::RateLimited {
            retry_after_s: observed,
            ..
        }) = probed.admit(job(2, "t", Priority::Normal), 400_000_000)
        else {
            panic!("the snapshot must not have refilled the bucket");
        };
        assert_eq!(
            observed.to_bits(),
            expected.to_bits(),
            "snapshot changed the retry hint: {observed} vs {expected}"
        );
        // And the bucket still refills on schedule afterwards.
        probed
            .admit(job(3, "t", Priority::Normal), 500_000_000)
            .unwrap();
    }

    #[test]
    fn tenant_overrides_beat_the_defaults() {
        let mut overrides = BTreeMap::new();
        overrides.insert("gold".to_string(), (1000.0, 3.0));
        let cfg = AdmissionConfig {
            queue_bound: 64,
            default_rate: 1.0,
            default_burst: 1.0,
            overrides,
        };
        let mut q = AdmissionQueues::new(cfg);
        for id in 0..3 {
            q.admit(job(id, "gold", Priority::Normal), 0).unwrap();
        }
        assert!(q.admit(job(9, "plain", Priority::Normal), 0).is_ok());
        assert!(matches!(
            q.admit(job(10, "plain", Priority::Normal), 0),
            Err(Shed::RateLimited { .. })
        ));
    }
}
