//! Schedule mutation helper for certifier negative testing.
//!
//! A certifier that only ever sees solver-produced (correct) schedules
//! is untested on the reject path. This module derives small,
//! deliberate corruptions of a known-good schedule; tests feed them
//! back through [`crate::certify`] and assert a minimal
//! [`Violation`] comes out.

use crate::certificate::Violation;
use crate::certify;
use chronus_net::{FlowId, SwitchId, TimeStep, UpdateInstance};
use chronus_timenet::Schedule;

/// One deliberate corruption of a schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Collapse every update to time 0 (the naive simultaneous plan).
    AllAtZero,
    /// Move one switch's update by `delta` steps.
    Shift {
        /// The flow whose entry moves.
        flow: FlowId,
        /// The switch whose entry moves.
        switch: SwitchId,
        /// Signed displacement in steps.
        delta: TimeStep,
    },
    /// Exchange the update times of two switches of one flow.
    Swap {
        /// The flow whose entries are exchanged.
        flow: FlowId,
        /// First switch.
        a: SwitchId,
        /// Second switch.
        b: SwitchId,
    },
    /// Remove one switch's entry entirely.
    Drop {
        /// The flow whose entry is removed.
        flow: FlowId,
        /// The switch whose entry is removed.
        switch: SwitchId,
    },
}

/// Applies `mutation` to a copy of `schedule`.
pub fn apply_mutation(schedule: &Schedule, instance: &UpdateInstance, m: &Mutation) -> Schedule {
    let mut out = schedule.clone();
    match m {
        Mutation::AllAtZero => out = Schedule::all_at_zero(instance),
        Mutation::Shift {
            flow,
            switch,
            delta,
        } => {
            if let Some(t) = out.get(*flow, *switch) {
                out.set(*flow, *switch, t + delta);
            }
        }
        Mutation::Swap { flow, a, b } => {
            if let (Some(ta), Some(tb)) = (out.get(*flow, *a), out.get(*flow, *b)) {
                out.set(*flow, *a, tb);
                out.set(*flow, *b, ta);
            }
        }
        Mutation::Drop { flow, switch } => {
            out.unset(*flow, *switch);
        }
    }
    out
}

/// The candidate corruption pool for `schedule`: the simultaneous
/// collapse, large forward/backward shifts of every entry, all
/// adjacent same-flow swaps, and every single-entry drop.
pub fn mutations(schedule: &Schedule) -> Vec<Mutation> {
    let mut out = vec![Mutation::AllAtZero];
    let entries: Vec<_> = schedule.iter().collect();
    for &(flow, switch, _) in &entries {
        for delta in [-8, 8] {
            out.push(Mutation::Shift {
                flow,
                switch,
                delta,
            });
        }
        out.push(Mutation::Drop { flow, switch });
    }
    for pair in entries.windows(2) {
        if let (Some(&(fa, a, _)), Some(&(fb, b, _))) = (pair.first(), pair.get(1)) {
            if fa == fb && a != b {
                out.push(Mutation::Swap { flow: fa, a, b });
            }
        }
    }
    out
}

/// Certifies every candidate mutant of `schedule` and returns the
/// first one the certifier rejects, with its violation. `None` means
/// every mutant in the pool happened to stay consistent (possible on
/// trivially slack instances).
// chronus-lint: allow(dead-pub) — read by examples/certify_schedule.rs
pub fn find_rejected_mutant(
    instance: &UpdateInstance,
    schedule: &Schedule,
) -> Option<(Mutation, Schedule, Violation)> {
    for m in mutations(schedule) {
        let mutant = apply_mutation(schedule, instance, &m);
        if let Err(v) = certify(instance, &mutant) {
            return Some((m, mutant, v));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronus_net::motivating_example;

    #[test]
    fn motivating_example_mutants_are_rejected() {
        let inst = motivating_example();
        // The known-consistent staged schedule.
        let s = Schedule::from_pairs(
            FlowId(0),
            [
                (SwitchId(1), 0),
                (SwitchId(2), 1),
                (SwitchId(0), 2),
                (SwitchId(3), 2),
            ],
        );
        assert!(certify(&inst, &s).is_ok());
        let (mutation, mutant, violation) =
            find_rejected_mutant(&inst, &s).expect("some mutant must break consistency");
        assert_ne!(
            &mutant, &s,
            "mutation {mutation:?} must change the schedule"
        );
        // The violation is a concrete, named counterexample.
        let text = violation.to_string();
        assert!(!text.is_empty());
    }
}
