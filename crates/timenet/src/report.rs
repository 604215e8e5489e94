//! Simulation outcome types.

use chronus_net::{Capacity, FlowId, SwitchId, TimeStep};
use std::collections::BTreeMap;
use std::fmt;

/// One transient congestion event: at step `time`, link `⟨src, dst⟩`
/// carried `load > capacity` (violation of Definition 3 / constraint
/// (3a)).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CongestionEvent {
    /// Link tail.
    pub src: SwitchId,
    /// Link head.
    pub dst: SwitchId,
    /// Departure step at which the overload happened.
    pub time: TimeStep,
    /// Observed load.
    pub load: Capacity,
    /// Link capacity.
    pub capacity: Capacity,
}

impl fmt::Display for CongestionEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "congestion on <{}, {}> at t{}: load {} > capacity {}",
            self.src, self.dst, self.time, self.load, self.capacity
        )
    }
}

/// A forwarding loop: the cohort of `flow` emitted at `emitted_at`
/// revisited `switch` at step `time` (violation of Definition 2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LoopEvent {
    /// The flow whose cohort looped.
    pub flow: FlowId,
    /// Emission step of the looping cohort.
    pub emitted_at: TimeStep,
    /// The switch visited twice.
    pub switch: SwitchId,
    /// The step of the second visit.
    pub time: TimeStep,
}

impl fmt::Display for LoopEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "loop: {} cohort emitted at t{} revisited {} at t{}",
            self.flow, self.emitted_at, self.switch, self.time
        )
    }
}

/// A blackhole: a cohort arrived at a switch that had no applicable
/// rule (e.g. a final-path switch whose rule was not yet installed).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BlackholeEvent {
    /// The flow whose cohort was dropped.
    pub flow: FlowId,
    /// Emission step of the dropped cohort.
    pub emitted_at: TimeStep,
    /// The ruleless switch.
    pub switch: SwitchId,
    /// Arrival step.
    pub time: TimeStep,
}

impl fmt::Display for BlackholeEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "blackhole: {} cohort emitted at t{} dropped at {} at t{}",
            self.flow, self.emitted_at, self.switch, self.time
        )
    }
}

/// Overall verdict of a simulation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// No congestion, loops, blackholes or undelivered cohorts: the
    /// schedule is consistent in the paper's sense.
    Consistent,
    /// At least one violation occurred; see the report's event lists.
    Inconsistent,
}

/// Full result of a [`crate::FluidSimulator`] run.
#[derive(Clone, Debug, Default)]
pub struct SimulationReport {
    /// All congestion events at steps ≥ 0, ordered by (time, link).
    pub congestion: Vec<CongestionEvent>,
    /// All forwarding loops detected.
    pub loops: Vec<LoopEvent>,
    /// All blackholes detected.
    pub blackholes: Vec<BlackholeEvent>,
    /// Cohorts (flow, emission step) that did not reach their
    /// destination within the simulation horizon for a reason other
    /// than a recorded loop/blackhole (horizon exhaustion).
    pub undelivered: Vec<(FlowId, TimeStep)>,
    /// Sparse per-link load series: `(src, dst) → (time → load)`.
    /// Only steps with non-zero load appear.
    pub link_loads: BTreeMap<(SwitchId, SwitchId), BTreeMap<TimeStep, Capacity>>,
}

impl SimulationReport {
    /// The verdict: consistent iff every event list is empty.
    pub fn verdict(&self) -> Verdict {
        if self.congestion.is_empty()
            && self.loops.is_empty()
            && self.blackholes.is_empty()
            && self.undelivered.is_empty()
        {
            Verdict::Consistent
        } else {
            Verdict::Inconsistent
        }
    }

    /// `true` if the schedule was congestion-free (it may still loop).
    pub fn congestion_free(&self) -> bool {
        self.congestion.is_empty()
    }

    /// `true` if the schedule was loop-free (it may still congest).
    // chronus-lint: allow(dead-pub) — read by tests/paper_example.rs
    pub fn loop_free(&self) -> bool {
        self.loops.is_empty()
    }

    /// Number of *distinct congested time-extended links*, i.e.
    /// distinct `(link, departure step)` pairs with an overload — the
    /// quantity plotted in paper Fig. 8 ("the sum of congested links …
    /// using the time-extended network").
    pub fn congested_te_link_count(&self) -> usize {
        self.congestion.len()
    }
}

impl fmt::Display for SimulationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "verdict: {:?} ({} congestion, {} loops, {} blackholes, {} undelivered)",
            self.verdict(),
            self.congestion.len(),
            self.loops.len(),
            self.blackholes.len(),
            self.undelivered.len()
        )?;
        for c in &self.congestion {
            writeln!(f, "  {c}")?;
        }
        for l in &self.loops {
            writeln!(f, "  {l}")?;
        }
        for b in &self.blackholes {
            writeln!(f, "  {b}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(src: u32, dst: u32, t: TimeStep) -> CongestionEvent {
        CongestionEvent {
            src: SwitchId(src),
            dst: SwitchId(dst),
            time: t,
            load: 2,
            capacity: 1,
        }
    }

    #[test]
    fn verdict_reflects_events() {
        let mut r = SimulationReport::default();
        assert_eq!(r.verdict(), Verdict::Consistent);
        assert!(r.congestion_free() && r.loop_free());
        r.congestion.push(event(0, 1, 3));
        assert_eq!(r.verdict(), Verdict::Inconsistent);
        assert!(!r.congestion_free());
        assert!(r.loop_free());
    }

    #[test]
    fn congested_link_counting() {
        let mut r = SimulationReport::default();
        r.congestion.push(event(0, 1, 3));
        r.congestion.push(event(0, 1, 4));
        r.congestion.push(event(2, 3, 3));
        assert_eq!(r.congested_te_link_count(), 3);
    }

    #[test]
    fn displays_are_informative() {
        let c = event(0, 1, 5);
        assert!(c.to_string().contains("load 2 > capacity 1"));
        let l = LoopEvent {
            flow: FlowId(0),
            emitted_at: -1,
            switch: SwitchId(3),
            time: 2,
        };
        assert!(l.to_string().contains("revisited s3"));
        let b = BlackholeEvent {
            flow: FlowId(0),
            emitted_at: 0,
            switch: SwitchId(2),
            time: 1,
        };
        assert!(b.to_string().contains("dropped at s2"));
        let mut r = SimulationReport::default();
        r.loops.push(l);
        assert!(r.to_string().contains("Inconsistent"));
    }
}
