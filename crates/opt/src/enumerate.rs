//! Brute-force enumeration of schedules — the oracle the exact
//! solvers and the property tests are validated against, and the
//! source of the path set `P(f)` for the ILP of program (3).
// Enumeration indexes per-item assignment vectors it sized itself.
#![allow(clippy::indexing_slicing, clippy::expect_used)]

use chronus_core::MutpProblem;
use chronus_net::{SwitchId, TimeStep, UpdateInstance};
use chronus_timenet::{FluidSimulator, Schedule, SimulatorConfig, Verdict};

/// Result of an enumeration run.
#[derive(Clone, Debug)]
pub struct Enumeration {
    /// All discovered consistent schedules (up to the cap), sorted by
    /// makespan.
    pub schedules: Vec<Schedule>,
    /// Total assignments examined.
    pub examined: usize,
    /// `true` if the space was fully explored (no cap hit): only then
    /// is "no schedule found" a proof of infeasibility and the first
    /// schedule a true optimum.
    pub exhaustive: bool,
}

impl Enumeration {
    /// The minimum makespan among discovered schedules.
    // chronus-lint: allow(dead-pub) — read by tests/cross_solver.rs
    pub fn optimal_makespan(&self) -> Option<TimeStep> {
        self.schedules
            .iter()
            .map(|s| s.makespan().unwrap_or(0))
            .min()
    }
}

/// Enumerates every assignment of update times in `[0, max_makespan]`
/// to the pending switches (fresh switches pinned to step 0) and keeps
/// the consistent ones, up to `max_examined` assignments.
///
/// Exponential — intended for instances with at most a dozen pending
/// switches, as an oracle.
pub fn enumerate_consistent_schedules(
    instance: &UpdateInstance,
    max_makespan: TimeStep,
    max_examined: usize,
) -> Enumeration {
    let Ok(problem) = MutpProblem::new(instance) else {
        return Enumeration {
            schedules: Vec::new(),
            examined: 0,
            exhaustive: true,
        };
    };
    let mut base = Schedule::new();
    let mut items: Vec<(usize, SwitchId)> = Vec::new();
    for (fi, flow) in instance.flows.iter().enumerate() {
        let fresh = problem.fresh_switches(fi);
        for &v in &fresh {
            base.set(flow.id, v, 0);
        }
        for &v in problem.pending(fi) {
            if !fresh.contains(&v) {
                items.push((fi, v));
            }
        }
    }

    let sim = FluidSimulator::with_config(
        instance,
        SimulatorConfig {
            record_loads: false,
            ..SimulatorConfig::default()
        },
    );

    let k = items.len();
    let radix = (max_makespan + 1) as usize;
    let total = radix.checked_pow(k as u32);
    let mut schedules = Vec::new();
    let mut examined = 0usize;
    let mut exhaustive = true;

    // Odometer over assignments.
    let mut digits = vec![0usize; k];
    loop {
        if examined >= max_examined {
            exhaustive = false;
            break;
        }
        examined += 1;
        let mut s = base.clone();
        for (i, &(fi, v)) in items.iter().enumerate() {
            s.set(instance.flows[fi].id, v, digits[i] as TimeStep);
        }
        if sim.run(&s).verdict() == Verdict::Consistent {
            schedules.push(s);
        }
        // Increment odometer.
        let mut pos = 0;
        loop {
            if pos == k {
                break;
            }
            digits[pos] += 1;
            if digits[pos] < radix {
                break;
            }
            digits[pos] = 0;
            pos += 1;
        }
        if pos == k {
            break;
        }
        if let Some(total) = total {
            if examined >= total {
                break;
            }
        }
    }

    schedules.sort_by_key(|s| s.makespan().unwrap_or(0));
    Enumeration {
        schedules,
        examined,
        exhaustive,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronus_net::{motivating_example, Flow, FlowId, NetworkBuilder, Path};

    fn sid(i: u32) -> SwitchId {
        SwitchId(i)
    }

    #[test]
    fn motivating_example_brute_force_confirms_optimum() {
        let inst = motivating_example();
        let e = enumerate_consistent_schedules(&inst, 3, 1_000_000);
        assert!(e.exhaustive);
        assert!(!e.schedules.is_empty());
        // Cross-check with the exact solver.
        assert_eq!(e.optimal_makespan(), Some(2));
        for s in &e.schedules {
            assert_eq!(
                FluidSimulator::check(&inst, s).verdict(),
                Verdict::Consistent
            );
        }
    }

    #[test]
    fn fast_shortcut_has_no_schedule_at_all() {
        let mut b = NetworkBuilder::with_switches(4);
        b.add_link(sid(0), sid(1), 1, 1).unwrap();
        b.add_link(sid(1), sid(2), 1, 1).unwrap();
        b.add_link(sid(2), sid(3), 1, 1).unwrap();
        b.add_link(sid(0), sid(2), 1, 1).unwrap();
        let flow = Flow::new(
            FlowId(0),
            1,
            Path::new(vec![sid(0), sid(1), sid(2), sid(3)]),
            Path::new(vec![sid(0), sid(2), sid(3)]),
        )
        .unwrap();
        let inst = UpdateInstance::single(b.build(), flow).unwrap();
        let e = enumerate_consistent_schedules(&inst, 6, 1_000_000);
        assert!(e.exhaustive);
        assert!(e.schedules.is_empty());
    }

    #[test]
    fn cap_marks_non_exhaustive() {
        let inst = motivating_example();
        let e = enumerate_consistent_schedules(&inst, 3, 5);
        assert!(!e.exhaustive);
        assert_eq!(e.examined, 5);
    }
}
