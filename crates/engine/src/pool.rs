//! The engine proper: a long-lived worker pool planning request
//! batches over crossbeam channels.
// `expect` sites assert engine-lifecycle invariants (workers outlive
// the sender; one answer per request); a failure is a bug, and
// panicking the caller is the designed response.
#![allow(clippy::expect_used)]

use crate::cache::TimeNetCache;
use crate::fallback::{plan_with_chain, PlannedUpdate, SlackPolicy};
use crate::metrics::{EngineMetrics, PlanReport};
use crate::request::{RequestId, UpdateRequest};
use chronus_core::shard::ShardingConfig;
use chronus_net::UpdateInstance;
use chronus_timenet::SimWorkspace;
use chronus_verify::VerifyConfig;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Engine construction parameters.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker threads planning concurrently.
    pub workers: usize,
    /// Deadline given to requests submitted without one.
    pub default_deadline: Duration,
    /// Independent post-hoc certification of every winning plan.
    /// Enabled by default; benchmarks measuring raw planning latency
    /// can opt out with [`VerifyConfig::disabled`].
    pub verify: VerifyConfig,
    /// Slack policy for timed winners: when set, every timed plan is
    /// shipped with a slack certificate, dilating the schedule within
    /// the policy's factor cap until the certified tolerance meets the
    /// target. `None` (the default) skips the stage — plans ship
    /// exactly as the planners produced them.
    pub slack: Option<SlackPolicy>,
    /// Bound on the shared time-extended-network cache, in windows;
    /// the oldest window is evicted past it (see
    /// [`TimeNetCache::bounded`]). `None` (the default) keeps the
    /// cache unbounded, which suits batch runs; long-running services
    /// should bound it.
    pub cache_capacity: Option<usize>,
    /// Sharded multi-flow planning: when set, multi-flow requests run
    /// the sharded pre-stage — topology partitioning plus per-shard
    /// parallel planning over a shared-link capacity-reservation
    /// table — before the joint greedy. `None` (the default) plans
    /// every request jointly.
    pub sharding: Option<ShardingConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: thread::available_parallelism().map_or(2, |n| n.get().min(8)),
            default_deadline: Duration::from_secs(5),
            verify: VerifyConfig::default(),
            slack: None,
            cache_capacity: None,
            sharding: None,
        }
    }
}

impl EngineConfig {
    /// A config with `workers` threads and the default deadline.
    pub fn with_workers(workers: usize) -> Self {
        EngineConfig {
            workers,
            ..EngineConfig::default()
        }
    }

    /// Enables the slack stage with `policy` (builder style).
    #[must_use]
    pub fn with_slack(mut self, policy: SlackPolicy) -> Self {
        self.slack = Some(policy);
        self
    }

    /// Bounds the time-extended-network cache (builder style).
    #[must_use]
    pub fn with_cache_capacity(mut self, windows: usize) -> Self {
        self.cache_capacity = Some(windows);
        self
    }

    /// Enables the sharded multi-flow pre-stage (builder style).
    #[must_use]
    pub fn with_sharding(mut self, sharding: ShardingConfig) -> Self {
        self.sharding = Some(sharding);
        self
    }
}

/// One queued unit of work: the request plus its position in the
/// submitting batch and the reply channel to land the answer on.
struct Job {
    seq: usize,
    request: UpdateRequest,
    reply: Sender<(usize, PlannedUpdate)>,
}

/// A concurrent batched update-planning engine.
///
/// Workers are spawned once and live until the engine is dropped;
/// batches stream through a shared MPMC queue. All workers share one
/// time-extended-network cache and one metrics sink.
///
/// ```
/// use chronus_engine::{Engine, EngineConfig};
/// use chronus_net::motivating_example;
/// use std::sync::Arc;
///
/// let engine = Engine::new(EngineConfig::with_workers(2));
/// let plans = engine.plan_instances(vec![Arc::new(motivating_example())]);
/// assert_eq!(plans.len(), 1);
/// println!("{}", engine.report());
/// ```
pub struct Engine {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    cache: Arc<TimeNetCache>,
    metrics: Arc<EngineMetrics>,
    config: EngineConfig,
    draining: Arc<AtomicBool>,
    leftovers: Arc<Mutex<Vec<RequestId>>>,
}

/// Receipt for one asynchronously [`Engine::submit`]ted request.
#[must_use = "dropping a ticket abandons its answer"]
pub struct PlanTicket {
    rx: Receiver<(usize, PlannedUpdate)>,
}

impl PlanTicket {
    /// Blocks until the request is planned. Returns `None` when the
    /// request was shed by a concurrent [`Engine::drain`] (it then
    /// appears in the drain report's leftovers).
    pub fn wait(self) -> Option<PlannedUpdate> {
        self.rx.recv().ok().map(|(_, planned)| planned)
    }
}

/// Outcome of a graceful [`Engine::drain`]: intake stopped, in-flight
/// requests finished, queued-but-unstarted requests shed and reported.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Requests fully planned over the engine's lifetime.
    pub planned: u64,
    /// Requests that were still queued when the drain began; they
    /// were never planned and their tickets resolve to `None`.
    pub leftovers: Vec<RequestId>,
}

impl Engine {
    /// Spawns the worker pool.
    ///
    /// # Panics
    /// Panics if `config.workers` is zero.
    pub fn new(config: EngineConfig) -> Self {
        assert!(config.workers > 0, "engine needs at least one worker");
        let (tx, rx) = unbounded::<Job>();
        let cache = Arc::new(match config.cache_capacity {
            Some(cap) => TimeNetCache::bounded(cap),
            None => TimeNetCache::new(),
        });
        let metrics = Arc::new(EngineMetrics::new());
        let draining = Arc::new(AtomicBool::new(false));
        let leftovers = Arc::new(Mutex::new(Vec::new()));
        let workers = (0..config.workers)
            .map(|i| {
                let rx: Receiver<Job> = rx.clone();
                let cache = cache.clone();
                let metrics = metrics.clone();
                let config = config.clone();
                let draining = draining.clone();
                let leftovers = leftovers.clone();
                thread::Builder::new()
                    .name(format!("chronus-engine-{i}"))
                    .spawn(move || {
                        // One simulation workspace per worker thread:
                        // the greedy gate's ledger and trace buffers
                        // are recycled across every request this
                        // worker ever plans.
                        let mut ws = SimWorkspace::default();
                        while let Ok(job) = rx.recv() {
                            metrics.record_dequeue();
                            // A drain in progress sheds everything
                            // still queued: record the id, drop the
                            // reply channel unanswered.
                            if draining.load(Ordering::Acquire) {
                                leftovers.lock().push(job.request.id);
                                continue;
                            }
                            let _job_span = chronus_trace::span!(
                                "engine.worker",
                                worker = i,
                                request = job.request.id.0
                            )
                            .entered();
                            let planned =
                                plan_with_chain(&job.request, &cache, &metrics, &mut ws, &config);
                            // A dead reply channel means the batch was
                            // abandoned; planning the rest of the queue
                            // is still correct, so just keep going.
                            let _ = job.reply.send((job.seq, planned));
                        }
                    })
                    .expect("spawn engine worker")
            })
            .collect();
        Engine {
            tx: Some(tx),
            workers,
            cache,
            metrics,
            config,
            draining,
            leftovers,
        }
    }

    /// The configuration the engine was built with.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Plans a batch, blocking until every request is answered.
    /// Results come back in submission order regardless of which
    /// worker finished first.
    pub fn plan_batch(&self, requests: Vec<UpdateRequest>) -> Vec<PlannedUpdate> {
        let n = requests.len();
        let (reply_tx, reply_rx) = unbounded();
        let tx = self.tx.as_ref().expect("engine running");
        for (seq, request) in requests.into_iter().enumerate() {
            self.metrics.record_enqueue();
            tx.send(Job {
                seq,
                request,
                reply: reply_tx.clone(),
            })
            .expect("workers alive while engine is alive");
        }
        drop(reply_tx);
        let mut answers: Vec<(usize, PlannedUpdate)> = reply_rx.iter().collect();
        debug_assert_eq!(answers.len(), n);
        answers.sort_by_key(|(seq, _)| *seq);
        answers.into_iter().map(|(_, planned)| planned).collect()
    }

    /// Convenience wrapper: one request per instance, ids by batch
    /// position, all with the default deadline.
    pub fn plan_instances(&self, instances: Vec<Arc<UpdateInstance>>) -> Vec<PlannedUpdate> {
        let deadline = self.config.default_deadline;
        let requests = instances
            .into_iter()
            .enumerate()
            .map(|(i, inst)| UpdateRequest::new(i as u64, inst, deadline))
            .collect();
        self.plan_batch(requests)
    }

    /// Plans a single request.
    pub fn plan_one(&self, request: UpdateRequest) -> PlannedUpdate {
        self.plan_batch(vec![request])
            .pop()
            .expect("one answer for one request")
    }

    /// Snapshot of the engine's planning metrics and cache state.
    pub fn report(&self) -> PlanReport {
        self.metrics.report(&self.cache)
    }

    /// The engine's live metrics (its scoped registry lives inside;
    /// see [`EngineMetrics::registry`] for Prometheus/JSON exposition).
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// The shared time-extended-network cache (for inspection).
    pub fn cache(&self) -> &TimeNetCache {
        &self.cache
    }

    /// Submits one request without blocking; the answer is claimed
    /// later through the returned [`PlanTicket`]. This is the intake
    /// the `chronusd` daemon streams through.
    pub fn submit(&self, request: UpdateRequest) -> PlanTicket {
        let (reply_tx, reply_rx) = unbounded();
        self.metrics.record_enqueue();
        self.tx
            .as_ref()
            .expect("engine running")
            .send(Job {
                seq: 0,
                request,
                reply: reply_tx,
            })
            .expect("workers alive while engine is alive");
        PlanTicket { rx: reply_rx }
    }

    /// Requests currently queued (the `chronus_engine_queue_depth`
    /// gauge).
    pub fn queue_depth(&self) -> u64 {
        self.report().queue_depth
    }

    /// Gracefully shuts the pool down: stops intake, lets every
    /// worker finish the request it is planning, sheds whatever is
    /// still queued and reports it. Consuming `self` means no other
    /// caller can be blocked inside [`Engine::plan_batch`] while the
    /// drain runs, so every outstanding request is either finished or
    /// in the report's leftovers — never silently dropped.
    pub fn drain(mut self) -> DrainReport {
        // Flag first, then close the channel: workers observe the
        // flag for everything they dequeue after this point.
        self.draining.store(true, Ordering::Release);
        self.tx.take();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        let mut leftovers = std::mem::take(&mut *self.leftovers.lock());
        leftovers.sort_by_key(|id| id.0);
        DrainReport {
            planned: self.metrics.report(&self.cache).completed,
            leftovers,
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Closing the job channel is the shutdown signal; workers
        // drain what is queued and exit on disconnect.
        self.tx.take();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fallback::Stage;
    use chronus_net::motivating_example;
    use chronus_timenet::{FluidSimulator, Verdict};

    #[test]
    fn plans_a_batch_in_submission_order() {
        let engine = Engine::new(EngineConfig::with_workers(3));
        let inst = Arc::new(motivating_example());
        let plans = engine.plan_instances(vec![inst.clone(); 8]);
        assert_eq!(plans.len(), 8);
        for (i, p) in plans.iter().enumerate() {
            assert_eq!(p.id.0, i as u64, "submission order preserved");
            assert_eq!(p.winner, Stage::Greedy);
            let schedule = p.timed_schedule().expect("greedy plans carry a schedule");
            let report = FluidSimulator::check(&inst, schedule);
            assert_eq!(report.verdict(), Verdict::Consistent);
            let cert = p.certificate.as_ref().expect("certified by default");
            assert_eq!(cert.check(&inst), Ok(()));
        }
        let report = engine.report();
        assert_eq!(report.completed, 8);
        assert_eq!(report.certs.issued, 8);
        assert_eq!(report.certs.failed + report.certs.skipped, 0);
        // All requests share one cache key: workers racing on the
        // cold key wait for the one that materializes it.
        assert_eq!(report.cache_entries, 1);
        assert_eq!((report.cache_hits, report.cache_misses), (7, 1));
        assert!(report.queue_peak >= 1);
    }

    #[test]
    fn engine_survives_multiple_batches() {
        let engine = Engine::new(EngineConfig::with_workers(2));
        let inst = Arc::new(motivating_example());
        for round in 1..=3 {
            let plans = engine.plan_instances(vec![inst.clone(); 4]);
            assert_eq!(plans.len(), 4);
            assert_eq!(engine.report().completed, round * 4);
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn rejects_zero_workers() {
        let _ = Engine::new(EngineConfig::with_workers(0));
    }

    #[test]
    fn submit_tickets_resolve_out_of_band() {
        let engine = Engine::new(EngineConfig::with_workers(2));
        let inst = Arc::new(motivating_example());
        let deadline = engine.config().default_deadline;
        let tickets: Vec<_> = (0..6)
            .map(|i| engine.submit(UpdateRequest::new(i, inst.clone(), deadline)))
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let planned = t.wait().expect("no drain in progress");
            assert_eq!(planned.id.0, i as u64);
        }
        assert_eq!(engine.report().completed, 6);
        assert_eq!(engine.queue_depth(), 0);
    }

    #[test]
    fn drain_accounts_for_every_submitted_request() {
        use chronus_net::reversal_instance;
        let n = 24;
        let engine = Engine::new(EngineConfig::with_workers(1));
        let inst = Arc::new(reversal_instance(8, 2, 1));
        let deadline = engine.config().default_deadline;
        let tickets: Vec<_> = (0..n)
            .map(|i| engine.submit(UpdateRequest::new(i, inst.clone(), deadline)))
            .collect();
        // Drain immediately: the single worker is mid-queue, so some
        // requests finish and the rest come back as leftovers.
        let report = engine.drain();
        assert_eq!(
            report.planned + report.leftovers.len() as u64,
            n,
            "planned + shed covers every submission"
        );
        let shed: Vec<_> = tickets
            .into_iter()
            .enumerate()
            .filter_map(|(i, t)| t.wait().is_none().then_some(i as u64))
            .collect();
        assert_eq!(
            shed,
            report.leftovers.iter().map(|id| id.0).collect::<Vec<_>>(),
            "tickets and drain report agree on who was shed"
        );
    }

    #[test]
    fn drain_on_idle_engine_reports_no_leftovers() {
        let engine = Engine::new(EngineConfig::with_workers(2));
        let inst = Arc::new(motivating_example());
        let plans = engine.plan_instances(vec![inst; 3]);
        assert_eq!(plans.len(), 3);
        let report = engine.drain();
        assert_eq!(report.planned, 3);
        assert!(report.leftovers.is_empty());
    }

    #[test]
    fn bounded_cache_keeps_resident_state_capped() {
        use chronus_net::reversal_instance;
        let engine = Engine::new(EngineConfig::with_workers(1).with_cache_capacity(2));
        // Distinct topologies -> distinct cache keys.
        for n in [4, 5, 6, 7] {
            let inst = Arc::new(reversal_instance(n, 2, 1));
            let plans = engine.plan_instances(vec![inst]);
            assert_eq!(plans.len(), 1);
        }
        let report = engine.report();
        assert!(
            report.cache_entries <= 2,
            "entries {}",
            report.cache_entries
        );
        assert!(
            report.cache_evictions >= 2,
            "evictions {}",
            report.cache_evictions
        );
        assert!(report.to_string().contains("evicted"));
    }

    #[test]
    fn slack_policy_dilates_plans_to_the_target() {
        use crate::fallback::SlackPolicy;
        let engine = Engine::new(EngineConfig::with_workers(2).with_slack(SlackPolicy::default()));
        let inst = Arc::new(motivating_example());
        let plans = engine.plan_instances(vec![inst.clone(); 4]);
        for p in &plans {
            assert_eq!(p.winner, Stage::Greedy);
            let slack = p.slack.as_ref().expect("slack certificate attached");
            assert!(
                slack.slack_steps >= 1,
                "policy target reached: {}",
                slack.slack_steps
            );
            // The greedy packing is tight (slack 0); reaching the
            // target takes an actual dilation.
            assert!(p.dilation > 1, "dilated by {}", p.dilation);
            // The shipped (dilated) schedule still certifies and the
            // consistency certificate matches it.
            let schedule = p.timed_schedule().expect("timed plan");
            let report = FluidSimulator::check(&inst, schedule);
            assert_eq!(report.verdict(), Verdict::Consistent);
            let cert = p.certificate.as_ref().expect("certified");
            assert_eq!(cert.check(&inst), Ok(()));
            // The slack budget is honored end to end: a watchdog built
            // from this certificate tolerates a sub-Δ delay.
            let wd =
                crate::watchdog::UpdateWatchdog::from_certificate(slack, 100_000_000, 1_000_000);
            assert!(wd.slack().covers(50_000_000));
        }
        let report = engine.report();
        assert_eq!(report.slack.certified, 4);
        assert_eq!(report.slack.dilated, 4);
        assert_eq!(report.slack.target_missed, 0);
        assert_eq!(report.slack.uncertifiable, 0);
        assert!(report.slack.schedules_checked > 0);
        assert!(report.to_string().contains("slack: 4 certified"));
    }

    #[test]
    fn sharded_engine_plans_multi_flow_batches() {
        use chronus_net::topology::{fat_tree, LinkParams};
        use chronus_net::{Flow, FlowId, Path, UpdateInstance};
        let net = fat_tree(
            4,
            LinkParams {
                capacity: 1000,
                delay: 1,
            },
        );
        let by_name = |n: &str| {
            net.switches()
                .find(|&s| net.switch_name(s) == Some(n))
                .unwrap()
        };
        let flows: Vec<_> = (0..4u32)
            .map(|pod| {
                Flow::new(
                    FlowId(pod),
                    100,
                    Path::new(vec![
                        by_name(&format!("edge{}", 2 * pod)),
                        by_name(&format!("agg{}", 2 * pod)),
                        by_name(&format!("edge{}", 2 * pod + 1)),
                    ]),
                    Path::new(vec![
                        by_name(&format!("edge{}", 2 * pod)),
                        by_name(&format!("agg{}", 2 * pod + 1)),
                        by_name(&format!("edge{}", 2 * pod + 1)),
                    ]),
                )
                .unwrap()
            })
            .collect();
        let inst = Arc::new(UpdateInstance::new(net, flows).unwrap());
        let engine =
            Engine::new(EngineConfig::with_workers(2).with_sharding(ShardingConfig::default()));
        let plans = engine.plan_instances(vec![inst.clone(); 3]);
        for p in &plans {
            assert_eq!(p.winner, Stage::Sharded);
            let schedule = p.timed_schedule().expect("timed plan");
            assert_eq!(
                FluidSimulator::check(&inst, schedule).verdict(),
                Verdict::Consistent
            );
            let cert = p.certificate.as_ref().expect("composed certificate");
            assert_eq!(cert.check(&inst), Ok(()));
        }
        let report = engine.report();
        assert_eq!(report.sharded.wins, 3);
        assert!(report.shard.shards_planned >= 6, "{:?}", report.shard);
        assert!(report.to_string().contains("sharded"));
        // Single-flow requests under the same engine skip the stage
        // and fall to greedy unchanged.
        let single = engine.plan_instances(vec![Arc::new(motivating_example())]);
        assert_eq!(single[0].winner, Stage::Greedy);
    }

    #[test]
    fn without_slack_policy_plans_ship_undilated() {
        let engine = Engine::new(EngineConfig::with_workers(1));
        let inst = Arc::new(motivating_example());
        let plans = engine.plan_instances(vec![inst]);
        assert!(plans[0].slack.is_none());
        assert_eq!(plans[0].dilation, 1);
        let report = engine.report();
        assert_eq!(report.slack, crate::metrics::SlackStats::default());
        assert!(!report.to_string().contains("slack:"));
    }
}
