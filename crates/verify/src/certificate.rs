//! Certificates and counterexamples.
//!
//! A [`Certificate`] is the machine-checkable artifact the certifier
//! returns for a consistent schedule: per-link interval load bounds
//! (the congestion-freedom proof material) plus per-boundary
//! forwarding-order witnesses (the loop-freedom diagnostic). A
//! [`Violation`] is the minimal counterexample for a rejected one.

use chronus_net::{Capacity, FlowId, SwitchId, TimeStep, UpdateInstance};
use std::fmt;

/// A maximal half-open interval `[start, end)` during which a link
/// carries constant total load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IntervalLoad {
    /// First step of the interval (inclusive).
    pub start: TimeStep,
    /// First step past the interval (exclusive).
    pub end: TimeStep,
    /// Total demand departing on the link at every step inside.
    pub load: Capacity,
}

/// One link's complete transient load profile with its capacity bound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkBound {
    /// Link source switch.
    pub src: SwitchId,
    /// Link destination switch.
    pub dst: SwitchId,
    /// The link's capacity.
    pub capacity: Capacity,
    /// Peak load over steps ≥ 0 (steps < 0 are pre-update steady
    /// state, feasible by instance validation).
    pub peak: Capacity,
    /// Maximal constant-load intervals, time-sorted, zero-load gaps
    /// omitted.
    pub segments: Vec<IntervalLoad>,
}

/// The forwarding-order witness at one event boundary.
///
/// The union forwarding graph (every flow's effective rule at that
/// instant) either admits a topological order — recorded as the
/// witness — or contains an instantaneous cycle. An instantaneous
/// cycle is *diagnostic, not a verdict*: with non-zero link delays a
/// packet can traverse a momentarily-cyclic rule set without ever
/// revisiting a switch, and conversely transient loops can arise from
/// in-flight cohorts between boundaries. The certifier's loop verdict
/// therefore comes from the symbolic cohort trace; these witnesses
/// localize *where* rule-graph cycles exist for debugging.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BoundaryOrder {
    /// Switches in a topological order of the boundary graph.
    Acyclic(Vec<SwitchId>),
    /// Switches participating in instantaneous rule cycles.
    Cyclic(Vec<SwitchId>),
}

/// One event boundary (a distinct scheduled update time) with its
/// forwarding-order witness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoundaryWitness {
    /// The boundary instant (an update time from the schedule).
    pub time: TimeStep,
    /// Order witness of the union forwarding graph at `time`.
    pub order: BoundaryOrder,
}

/// Machine-checkable proof object for a consistent `(instance,
/// schedule)` pair. [`Certificate::check`] re-validates the bounds
/// against the instance without re-running any analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate {
    /// The schedule's makespan clamped to ≥ 0 (emission-window
    /// anchor).
    pub makespan: TimeStep,
    /// Per-link transient load profiles; every peak is ≤ capacity.
    pub link_bounds: Vec<LinkBound>,
    /// Per-boundary forwarding-order witnesses (empty when witnesses
    /// were disabled in [`crate::VerifyConfig`]).
    pub boundaries: Vec<BoundaryWitness>,
    /// Interval segments the symbolic trace walked.
    pub segments_traced: usize,
    /// Individual cohorts those segments jointly cover.
    pub cohorts_covered: u64,
}

impl Certificate {
    /// Re-validates the certificate against `instance`: every bound's
    /// capacity matches the network, its segments are sorted and
    /// disjoint, its recorded peak agrees with its segments, and no
    /// peak exceeds capacity. This is the "machine-checkable" side: a
    /// tampered certificate fails here without any simulation.
    pub fn check(&self, instance: &UpdateInstance) -> Result<(), String> {
        for b in &self.link_bounds {
            let cap = instance
                .network
                .capacity(b.src, b.dst)
                .ok_or_else(|| format!("certificate names missing link {}->{}", b.src, b.dst))?;
            if cap != b.capacity {
                return Err(format!(
                    "capacity mismatch on {}->{}: certificate {} vs network {cap}",
                    b.src, b.dst, b.capacity
                ));
            }
            let mut cursor = TimeStep::MIN;
            let mut peak = 0;
            for s in &b.segments {
                if s.start >= s.end {
                    return Err(format!("empty segment on {}->{}", b.src, b.dst));
                }
                if s.start < cursor {
                    return Err(format!("overlapping segments on {}->{}", b.src, b.dst));
                }
                cursor = s.end;
                if s.end > 0 {
                    peak = peak.max(s.load);
                }
            }
            if peak != b.peak {
                return Err(format!(
                    "peak mismatch on {}->{}: recorded {} vs segments {peak}",
                    b.src, b.dst, b.peak
                ));
            }
            if b.peak > b.capacity {
                return Err(format!(
                    "certified overload on {}->{}: peak {} > capacity {}",
                    b.src, b.dst, b.peak, b.capacity
                ));
            }
        }
        Ok(())
    }

    /// Highest `peak / capacity` ratio across the certified links.
    pub fn peak_utilization(&self) -> f64 {
        self.link_bounds
            .iter()
            .filter(|b| b.capacity > 0)
            .map(|b| b.peak as f64 / b.capacity as f64)
            .fold(0.0, f64::max)
    }
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "certificate: makespan {}, {} links bounded (peak util {:.0}%), \
             {} boundaries, {} segments over {} cohorts",
            self.makespan,
            self.link_bounds.len(),
            self.peak_utilization() * 100.0,
            self.boundaries.len(),
            self.segments_traced,
            self.cohorts_covered
        )
    }
}

/// Minimal counterexample for a rejected schedule.
///
/// When several violation kinds coexist the certifier reports them in
/// severity order congestion → loop → blackhole → undelivered, each
/// with the earliest offending instant and the half-open time interval
/// over which the violation persists.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A link's total load exceeds its capacity.
    Congestion {
        /// Link source switch.
        src: SwitchId,
        /// Link destination switch.
        dst: SwitchId,
        /// First overloaded step (≥ 0).
        start: TimeStep,
        /// First step past the overloaded run (exclusive).
        end: TimeStep,
        /// Peak load inside the run.
        peak: Capacity,
        /// The link's capacity.
        capacity: Capacity,
        /// Flows contributing load during the run, ascending.
        flows: Vec<FlowId>,
    },
    /// A cohort revisits a switch (transient forwarding loop).
    ForwardingLoop {
        /// The looping flow.
        flow: FlowId,
        /// The revisited switch.
        switch: SwitchId,
        /// Emission interval (inclusive) of the looping cohorts.
        emitted: (TimeStep, TimeStep),
        /// Step at which the earliest such cohort re-enters `switch`.
        time: TimeStep,
    },
    /// A cohort reaches a switch with no applicable rule.
    Blackhole {
        /// The affected flow.
        flow: FlowId,
        /// The ruleless switch.
        switch: SwitchId,
        /// Emission interval (inclusive) of the dropped cohorts.
        emitted: (TimeStep, TimeStep),
        /// Step at which the earliest such cohort arrives there.
        time: TimeStep,
    },
    /// A cohort exhausts the hop budget without delivery.
    Undelivered {
        /// The affected flow.
        flow: FlowId,
        /// Emission interval (inclusive) of the stranded cohorts.
        emitted: (TimeStep, TimeStep),
    },
}

impl Violation {
    /// The violation's kind — `"congestion"`, `"forwarding_loop"`,
    /// `"blackhole"` or `"undelivered"` — as its codec tags it and its
    /// trace field records it.
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::Congestion { .. } => "congestion",
            Violation::ForwardingLoop { .. } => "forwarding_loop",
            Violation::Blackhole { .. } => "blackhole",
            Violation::Undelivered { .. } => "undelivered",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Congestion {
                src,
                dst,
                start,
                end,
                peak,
                capacity,
                flows,
            } => write!(
                f,
                "congestion on link {src}->{dst} during [{start}, {end}): \
                 load {peak} > capacity {capacity} (flows {flows:?})"
            ),
            Violation::ForwardingLoop {
                flow,
                switch,
                emitted,
                time,
            } => write!(
                f,
                "forwarding loop: flow {flow:?} cohorts emitted in \
                 [{}, {}] revisit switch {switch} from step {time}",
                emitted.0, emitted.1
            ),
            Violation::Blackhole {
                flow,
                switch,
                emitted,
                time,
            } => write!(
                f,
                "blackhole: flow {flow:?} cohorts emitted in [{}, {}] \
                 reach ruleless switch {switch} from step {time}",
                emitted.0, emitted.1
            ),
            Violation::Undelivered { flow, emitted } => write!(
                f,
                "undelivered: flow {flow:?} cohorts emitted in [{}, {}] \
                 exhaust the hop budget",
                emitted.0, emitted.1
            ),
        }
    }
}

impl std::error::Error for Violation {}

#[cfg(test)]
mod tests {
    use super::*;
    use chronus_net::{Flow, NetworkBuilder, Path};

    fn tiny_instance() -> UpdateInstance {
        let mut b = NetworkBuilder::with_switches(2);
        b.add_link(SwitchId(0), SwitchId(1), 3, 1).unwrap();
        let net = b.build();
        let flow = Flow::new(
            FlowId(0),
            1,
            Path::new(vec![SwitchId(0), SwitchId(1)]),
            Path::new(vec![SwitchId(0), SwitchId(1)]),
        )
        .unwrap();
        UpdateInstance::single(net, flow).unwrap()
    }

    fn cert() -> Certificate {
        Certificate {
            makespan: 0,
            link_bounds: vec![LinkBound {
                src: SwitchId(0),
                dst: SwitchId(1),
                capacity: 3,
                peak: 2,
                segments: vec![
                    IntervalLoad {
                        start: -2,
                        end: 1,
                        load: 1,
                    },
                    IntervalLoad {
                        start: 1,
                        end: 4,
                        load: 2,
                    },
                ],
            }],
            boundaries: Vec::new(),
            segments_traced: 1,
            cohorts_covered: 6,
        }
    }

    #[test]
    fn check_accepts_consistent_certificate() {
        let inst = tiny_instance();
        assert_eq!(cert().check(&inst), Ok(()));
    }

    #[test]
    fn check_rejects_tampering() {
        let inst = tiny_instance();
        let mut c = cert();
        c.link_bounds[0].peak = 1; // understate the peak
        assert!(c.check(&inst).unwrap_err().contains("peak mismatch"));
        let mut c = cert();
        c.link_bounds[0].capacity = 99; // overstate capacity
        assert!(c.check(&inst).unwrap_err().contains("capacity mismatch"));
        let mut c = cert();
        c.link_bounds[0].segments[1].start = -3; // overlap
        assert!(c.check(&inst).unwrap_err().contains("overlapping"));
        let mut c = cert();
        c.link_bounds[0].segments[1].load = 9;
        c.link_bounds[0].peak = 9; // consistent but over capacity
        assert!(c.check(&inst).unwrap_err().contains("certified overload"));
    }

    #[test]
    fn violation_display_names_link_and_interval() {
        let v = Violation::Congestion {
            src: SwitchId(2),
            dst: SwitchId(3),
            start: 1,
            end: 4,
            peak: 2,
            capacity: 1,
            flows: vec![FlowId(0)],
        };
        let text = v.to_string();
        assert!(text.contains("s2->s3"), "{text}");
        assert!(text.contains("[1, 4)"), "{text}");
    }
}
