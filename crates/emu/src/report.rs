//! Emulation results: bandwidth series and loss accounting.

use crate::link::WindowCounters;
use chronus_clock::Nanos;
use chronus_net::SwitchId;
use std::collections::BTreeMap;

/// One bandwidth sample on one link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BandwidthSample {
    /// Window end time (ns).
    pub at: Nanos,
    /// Offered load over the window, Mbps — the paper's "bandwidth
    /// consumption" (byte-counter delta over the interval).
    pub offered_mbps: f64,
    /// Successfully serialized load, Mbps.
    pub delivered_mbps: f64,
    /// Dropped load, Mbps.
    pub dropped_mbps: f64,
}

/// Forensic record of one TTL expiry: where the packet died and the
/// trail of switches it bounced through right before. A forwarding
/// loop shows up as a repeating cycle in `last_hops`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TtlDrop {
    /// When the packet died (true time, ns).
    pub at: Nanos,
    /// The switch where the hop budget ran out.
    pub switch: SwitchId,
    /// The last few switches visited, oldest first (bounded by the
    /// packet's hop ring capacity).
    pub last_hops: Vec<SwitchId>,
}

impl TtlDrop {
    /// `true` when the recorded trail revisits a switch — the
    /// signature of a forwarding loop rather than a long path.
    pub fn looped(&self) -> bool {
        self.last_hops
            .iter()
            .enumerate()
            .any(|(i, h)| self.last_hops.iter().skip(i + 1).any(|other| other == h))
    }
}

/// Cap on retained [`TtlDrop`] records: a standing loop kills every
/// arriving packet, and the counter (`ttl_drops`) already carries the
/// magnitude — the per-drop forensics only need enough examples to
/// localise the cycle.
pub const MAX_TTL_DROP_RECORDS: usize = 64;

/// The full emulation report.
#[derive(Clone, Debug, Default)]
pub struct EmuReport {
    /// Per-link bandwidth series (keyed by link endpoints).
    pub bandwidth: BTreeMap<(SwitchId, SwitchId), Vec<BandwidthSample>>,
    /// Bytes delivered to the destination host, per flow index.
    pub delivered_bytes: Vec<u64>,
    /// Bytes dropped at link buffers, total.
    pub buffer_drops: u64,
    /// Packets dropped because their TTL expired — a TTL drop is the
    /// packet-level signature of a transient forwarding loop.
    pub ttl_drops: u64,
    /// Forensics for the first [`MAX_TTL_DROP_RECORDS`] TTL drops:
    /// drop site plus the trail of recently visited switches.
    pub ttl_drop_records: Vec<TtlDrop>,
    /// Packets that missed every table rule (blackholes).
    pub table_misses: u64,
    /// FlowMods applied, as `(true time, switch)` pairs.
    pub applied_updates: Vec<(Nanos, SwitchId)>,
    /// Highest total rule count observed across all switches at any
    /// point of the run — the Fig. 9 flow-table-space metric.
    pub peak_rule_count: usize,
    /// Fault and recovery counters when faults were installed
    /// ([`crate::Emulator::install_faults`]); `None` on fault-free
    /// runs.
    pub faults: Option<chronus_faults::FaultSummary>,
    /// Snapshot of the fault layer's `chronus_faults_*` instruments,
    /// ready to absorb into a process-global
    /// [`chronus_trace::MetricsRegistry`] for exposition; `None` on
    /// fault-free runs.
    pub fault_metrics: Option<chronus_trace::MetricsSnapshot>,
    /// The watchdog abandoned the timed plan and completed the update
    /// through the two-phase rollback path.
    pub rolled_back: bool,
    /// Timed-update tasks the controller never saw applied by the end
    /// of the run (only meaningful with faults installed; the
    /// rollback path re-issues pending tasks through two-phase, so a
    /// rolled-back run reports what the *timed* plan left behind).
    pub timed_tasks_pending: usize,
}

impl EmuReport {
    /// Records one sampled window for a link.
    pub fn push_sample(
        &mut self,
        link: (SwitchId, SwitchId),
        at: Nanos,
        w: WindowCounters,
        interval: Nanos,
    ) {
        let to_mbps = |bytes: u64| (bytes as f64 * 8.0) / (interval as f64 / 1e9) / 1e6;
        self.bandwidth
            .entry(link)
            .or_default()
            .push(BandwidthSample {
                at,
                offered_mbps: to_mbps(w.offered),
                delivered_mbps: to_mbps(w.delivered),
                dropped_mbps: to_mbps(w.dropped),
            });
    }

    /// Counts a TTL expiry and retains its forensics while under the
    /// [`MAX_TTL_DROP_RECORDS`] cap.
    pub fn record_ttl_drop(&mut self, drop: TtlDrop) {
        self.ttl_drops += 1;
        if self.ttl_drop_records.len() < MAX_TTL_DROP_RECORDS {
            self.ttl_drop_records.push(drop);
        }
    }

    /// Peak offered bandwidth ever sampled on a link (0.0 if never).
    pub fn peak_offered_mbps(&self, link: (SwitchId, SwitchId)) -> f64 {
        self.bandwidth
            .get(&link)
            .map(|v| v.iter().map(|s| s.offered_mbps).fold(0.0, f64::max))
            .unwrap_or(0.0)
    }

    /// Peak offered bandwidth across all links.
    // chronus-lint: allow(dead-pub) — read by tests/emulator_vs_model.rs
    pub fn global_peak_offered_mbps(&self) -> f64 {
        self.bandwidth
            .keys()
            .map(|&k| self.peak_offered_mbps(k))
            .fold(0.0, f64::max)
    }

    /// Total bytes delivered across flows.
    pub fn total_delivered(&self) -> u64 {
        self.delivered_bytes.iter().sum()
    }

    /// `true` if the run saw neither loops, blackholes nor drops —
    /// the emulator-level analogue of a `Consistent` verdict.
    pub fn clean(&self) -> bool {
        self.ttl_drops == 0 && self.table_misses == 0 && self.buffer_drops == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_conversion_to_mbps() {
        let mut r = EmuReport::default();
        let w = WindowCounters {
            offered: 125_000_000, // 1 Gbit
            delivered: 62_500_000,
            dropped: 62_500_000,
        };
        r.push_sample((SwitchId(0), SwitchId(1)), 1_000_000_000, w, 1_000_000_000);
        let s = &r.bandwidth[&(SwitchId(0), SwitchId(1))][0];
        assert!((s.offered_mbps - 1000.0).abs() < 1e-9);
        assert!((s.delivered_mbps - 500.0).abs() < 1e-9);
        assert!((s.dropped_mbps - 500.0).abs() < 1e-9);
        assert_eq!(
            r.peak_offered_mbps((SwitchId(0), SwitchId(1))),
            s.offered_mbps
        );
        assert!(r.global_peak_offered_mbps() > 999.0);
        assert_eq!(r.peak_offered_mbps((SwitchId(5), SwitchId(6))), 0.0);
    }

    #[test]
    fn clean_accounting() {
        let mut r = EmuReport::default();
        assert!(r.clean());
        r.ttl_drops = 1;
        assert!(!r.clean());
        r.ttl_drops = 0;
        r.delivered_bytes = vec![10, 20];
        assert_eq!(r.total_delivered(), 30);
    }

    #[test]
    fn ttl_drop_records_are_capped_and_classified() {
        let mut r = EmuReport::default();
        for i in 0..(MAX_TTL_DROP_RECORDS as u64 + 10) {
            r.record_ttl_drop(TtlDrop {
                at: i as Nanos,
                switch: SwitchId(3),
                last_hops: vec![SwitchId(2), SwitchId(3), SwitchId(2)],
            });
        }
        // Every drop is counted; only the first cap-many keep forensics.
        assert_eq!(r.ttl_drops, MAX_TTL_DROP_RECORDS as u64 + 10);
        assert_eq!(r.ttl_drop_records.len(), MAX_TTL_DROP_RECORDS);
        assert!(r.ttl_drop_records[0].looped());
        let straight = TtlDrop {
            at: 0,
            switch: SwitchId(5),
            last_hops: vec![SwitchId(1), SwitchId(2), SwitchId(3)],
        };
        assert!(!straight.looped(), "distinct hops are a path, not a loop");
    }
}
