//! The daemon's metric handles: every series is prefixed
//! `chronus_daemon_` and registered on the resident engine's registry
//! ([`chronus_engine::EngineMetrics::registry`]), the one registry a
//! `chronusd` process records into. A scrape renders it whole, the
//! `chronus_daemon_*` block sorting before the `chronus_engine_*` one,
//! and flight dumps embed the same registry.

use chronus_trace::{Counter, Gauge, Histogram, MetricsRegistry};

/// All daemon instruments, registered once at startup on the engine's
/// [`MetricsRegistry`] (handles are lock-free on the hot path).
pub struct DaemonMetrics {
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
            queue_wait_ns: h("chronus_daemon_queue_wait_ns"),
            plan_ns: h("chronus_daemon_plan_ns"),
            submit_to_settle_ns: h("chronus_daemon_submit_to_settle_ns"),
            tail_shed: c("chronus_daemon_tail_shed_total"),
            flight_dumps: g("chronus_daemon_flight_dumps"),
            flight_suppressed: g("chronus_daemon_flight_suppressed"),
            flight_dropped: g("chronus_daemon_flight_dropped"),
            slo_latency_ns: h("chronus_daemon_slo_latency_ns"),
            slo_bad: c("chronus_daemon_slo_bad_total"),
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
}
