//! The daemon's metric handles: every series is prefixed
//! `chronus_daemon_` and registered on the resident engine's registry
//! ([`chronus_engine::EngineMetrics::registry`]), the one registry a
//! `chronusd` process records into. A scrape renders it whole, the
//! `chronus_daemon_*` block sorting before the `chronus_engine_*` one,
//! and flight dumps embed the same registry.

use chronus_trace::{Counter, Gauge, Histogram, MetricsRegistry};
use std::sync::atomic::{AtomicU64, Ordering};

/// All daemon instruments, registered once at startup on the engine's
/// [`MetricsRegistry`] (handles are lock-free on the hot path).
pub struct DaemonMetrics {
    /// Seqlock epoch over the five cache gauges: odd while
    /// [`DaemonMetrics::set_cache`] is mid-write, even when the set is
    /// coherent. Scrapes render under an even-epoch check so hit,
    /// miss and eviction totals always come from one `set_cache` call
    /// — never a torn mix of two refreshes.
    cache_epoch: AtomicU64,
    /// Submissions received over IPC (before admission).
    pub submitted: Counter,
    /// Submissions accepted into an admission queue.
    pub admitted: Counter,
    /// Submissions shed because the class queue was full.
    pub shed_queue_full: Counter,
    /// Submissions shed by the tenant token bucket.
    pub shed_rate_limited: Counter,
    /// Submissions shed because the daemon was draining.
    pub shed_draining: Counter,
    /// Jobs the planning workers completed (any outcome).
    pub planned: Counter,
    /// Jobs that armed a certified timed schedule (journaled).
    pub armed: Counter,
    /// Jobs that settled without arming (uncertified or two-phase).
    pub completed: Counter,
    /// Armed updates confirmed done by the operator.
    pub confirmed: Counter,
    /// Jobs that failed planning outright.
    pub failed: Counter,
    /// Restored updates re-armed within their certified slack.
    pub restore_rearmed: Counter,
    /// Restored updates rolled back at restore time.
    pub restore_rolled_back: Counter,
    /// Journal lines that failed to parse during replay.
    pub journal_corrupt_lines: Counter,
    /// Journal compactions (periodic, explicit and final).
    pub snapshots: Counter,
    /// IPC connections accepted.
    pub connections: Counter,
    /// IPC requests handled.
    pub requests: Counter,
    /// IPC lines that failed to parse into a request.
    pub proto_errors: Counter,
    /// Current depth of the high-priority admission queue.
    pub queue_depth_high: Gauge,
    /// Current depth of the normal-priority admission queue.
    pub queue_depth_normal: Gauge,
    /// Current depth of the low-priority admission queue.
    pub queue_depth_low: Gauge,
    /// Peak combined admission queue depth.
    pub queue_peak: Gauge,
    /// Armed records currently live in the journal.
    pub journal_live: Gauge,
    /// Warm-cache hits, copied from the engine at scrape time.
    pub cache_hits: Gauge,
    /// Warm-cache misses (materializations), copied at scrape time.
    pub cache_misses: Gauge,
    /// Warm-cache evictions under the capacity bound.
    pub cache_evictions: Gauge,
    /// Windows currently resident in the warm cache.
    pub cache_entries: Gauge,
    /// Approximate bytes held by the warm cache.
    pub cache_bytes: Gauge,
    /// Nanoseconds jobs spent queued before a worker picked them up.
    pub queue_wait_ns: Histogram,
    /// Nanoseconds workers spent planning one job.
    pub plan_ns: Histogram,
    /// Nanoseconds from submission to a settled status.
    pub submit_to_settle_ns: Histogram,
    /// Tail events dropped because a `chronusctl tail` client fell
    /// behind its bounded per-poll batch.
    pub tail_shed: Counter,
    /// Forensic flight-record dumps written (mirrors the recorder's
    /// own ledger onto the scrape).
    pub flight_dumps: Gauge,
    /// Dump triggers suppressed by the recorder's rate limit.
    pub flight_suppressed: Gauge,
    /// Flight-ring events lost to overwriting, summed over rings at
    /// scrape time.
    pub flight_dropped: Gauge,
    /// Per-tenant SLO latency observations (ns), exemplar-tagged with
    /// the winning `engine.plan` span id.
    pub slo_latency_ns: Histogram,
    /// SLO-bad events (latency objective missed, planning failed, or
    /// the update rolled back). The good ones are the latency
    /// histogram's count minus these.
    pub slo_bad: Counter,
}

impl DaemonMetrics {
    /// Registers every instrument on `registry`.
    pub fn new(registry: &MetricsRegistry) -> Self {
        let c = |name: &str| registry.counter(name);
        let g = |name: &str| registry.gauge(name);
        let h = |name: &str| registry.histogram(name);
        DaemonMetrics {
            submitted: c("chronus_daemon_submitted_total"),
            admitted: c("chronus_daemon_admitted_total"),
            shed_queue_full: c("chronus_daemon_shed_queue_full_total"),
            shed_rate_limited: c("chronus_daemon_shed_rate_limited_total"),
            shed_draining: c("chronus_daemon_shed_draining_total"),
            planned: c("chronus_daemon_planned_total"),
            armed: c("chronus_daemon_armed_total"),
            completed: c("chronus_daemon_completed_total"),
            confirmed: c("chronus_daemon_confirmed_total"),
            failed: c("chronus_daemon_failed_total"),
            restore_rearmed: c("chronus_daemon_restore_rearmed_total"),
            restore_rolled_back: c("chronus_daemon_restore_rolled_back_total"),
            journal_corrupt_lines: c("chronus_daemon_journal_corrupt_lines_total"),
            snapshots: c("chronus_daemon_snapshots_total"),
            connections: c("chronus_daemon_connections_total"),
            requests: c("chronus_daemon_requests_total"),
            proto_errors: c("chronus_daemon_proto_errors_total"),
            queue_depth_high: g("chronus_daemon_queue_depth_high"),
            queue_depth_normal: g("chronus_daemon_queue_depth_normal"),
            queue_depth_low: g("chronus_daemon_queue_depth_low"),
            queue_peak: g("chronus_daemon_queue_peak"),
            journal_live: g("chronus_daemon_journal_live"),
            cache_hits: g("chronus_daemon_cache_hits"),
            cache_misses: g("chronus_daemon_cache_misses"),
            cache_evictions: g("chronus_daemon_cache_evictions"),
            cache_entries: g("chronus_daemon_cache_entries"),
            cache_bytes: g("chronus_daemon_cache_bytes"),
            queue_wait_ns: h("chronus_daemon_queue_wait_ns"),
            plan_ns: h("chronus_daemon_plan_ns"),
            submit_to_settle_ns: h("chronus_daemon_submit_to_settle_ns"),
            tail_shed: c("chronus_daemon_tail_shed_total"),
            flight_dumps: g("chronus_daemon_flight_dumps"),
            flight_suppressed: g("chronus_daemon_flight_suppressed"),
            flight_dropped: g("chronus_daemon_flight_dropped"),
            slo_latency_ns: h("chronus_daemon_slo_latency_ns"),
            slo_bad: c("chronus_daemon_slo_bad_total"),
            cache_epoch: AtomicU64::new(0),
        }
    }

    /// Registers (or fetches) on `registry` the per-tenant burn-rate
    /// gauge for `window` (`"5m"`/`"1h"`), value in thousandths so a
    /// Prometheus integer gauge can carry a fractional burn rate.
    pub fn slo_burn_gauge(registry: &MetricsRegistry, tenant: &str, window: &str) -> Gauge {
        let slug: String = tenant
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '_'
                }
            })
            .collect();
        registry.gauge(&format!("chronus_daemon_slo_burn_{window}_x1000_{slug}"))
    }

    /// Updates the three per-class depth gauges and the peak.
    pub fn set_queue_depths(&self, high: usize, normal: usize, low: usize) {
        self.queue_depth_high.set(high as i64);
        self.queue_depth_normal.set(normal as i64);
        self.queue_depth_low.set(low as i64);
        self.queue_peak.max((high + normal + low) as i64);
    }

    /// Copies the engine's warm-cache counters onto the daemon gauges
    /// (called right before a scrape is rendered). The write sits
    /// between two epoch increments (odd while in flight) so
    /// [`DaemonMetrics::render_consistent`] can detect and retry a
    /// scrape that raced the copy.
    pub fn set_cache(&self, hits: u64, misses: u64, evictions: u64, entries: u64, bytes: u64) {
        self.cache_epoch.fetch_add(1, Ordering::Release);
        self.cache_hits.set(hits as i64);
        self.cache_misses.set(misses as i64);
        self.cache_evictions.set(evictions as i64);
        self.cache_entries.set(entries as i64);
        self.cache_bytes.set(bytes as i64);
        self.cache_epoch.fetch_add(1, Ordering::Release);
    }

    /// Renders the Prometheus text for `registry` (the one these
    /// handles live on) under the cache seqlock: the render is retried
    /// until it lands entirely inside one even epoch, so the five
    /// `chronus_daemon_cache_*` gauges in the output always come from a
    /// single [`DaemonMetrics::set_cache`] call.
    pub fn render_consistent(&self, registry: &MetricsRegistry) -> String {
        loop {
            let before = self.cache_epoch.load(Ordering::Acquire);
            if before % 2 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let text = registry.to_prometheus();
            if self.cache_epoch.load(Ordering::Acquire) == before {
                return text;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_series_is_daemon_scoped() {
        let registry = MetricsRegistry::new();
        let m = DaemonMetrics::new(&registry);
        m.submitted.inc();
        m.set_queue_depths(1, 2, 3);
        m.queue_wait_ns.record(42);
        let snap = registry.snapshot();
        assert!(!snap.metrics.is_empty());
        for name in snap.metrics.keys() {
            assert!(
                name.starts_with("chronus_daemon_"),
                "series {name} escapes the daemon scope"
            );
        }
        assert_eq!(snap.counter("chronus_daemon_submitted_total"), Some(1));
        assert_eq!(snap.gauge("chronus_daemon_queue_peak"), Some(6));
    }

    #[test]
    fn slo_burn_gauge_slugs_tenant_names() {
        let registry = MetricsRegistry::new();
        DaemonMetrics::slo_burn_gauge(&registry, "Team-A/prod", "5m").set(1500);
        let snap = registry.snapshot();
        assert_eq!(
            snap.gauge("chronus_daemon_slo_burn_5m_x1000_team_a_prod"),
            Some(1500)
        );
    }

    /// Pulls the value of one `chronus_daemon_cache_*` gauge out of a
    /// rendered Prometheus scrape.
    fn scrape_gauge(text: &str, name: &str) -> i64 {
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix(name) {
                if let Ok(v) = rest.trim().parse::<i64>() {
                    return v;
                }
            }
        }
        panic!("gauge {name} missing from scrape");
    }

    #[test]
    fn scrape_never_tears_the_cache_gauges() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let registry = MetricsRegistry::new();
        let m = Arc::new(DaemonMetrics::new(&registry));
        m.set_cache(0, 0, 0, 0, 0);
        let stop = Arc::new(AtomicBool::new(false));

        let writer = {
            let m = Arc::clone(&m);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    i += 1;
                    // All five gauges carry the same monotone value, so
                    // any torn read shows up as an inequality below.
                    m.set_cache(i, i, i, i, i);
                }
                i
            })
        };

        let mut last = 0i64;
        for _ in 0..500 {
            let text = m.render_consistent(&registry);
            let hits = scrape_gauge(&text, "chronus_daemon_cache_hits");
            for name in [
                "chronus_daemon_cache_misses",
                "chronus_daemon_cache_evictions",
                "chronus_daemon_cache_entries",
                "chronus_daemon_cache_bytes",
            ] {
                assert_eq!(
                    scrape_gauge(&text, name),
                    hits,
                    "torn scrape: {name} != hits"
                );
            }
            assert!(
                hits >= last,
                "cache counters went backwards: {hits} < {last}"
            );
            last = hits;
        }

        stop.store(true, Ordering::Relaxed);
        let final_i = writer.join().unwrap();
        assert!(final_i > 0);
    }
}
