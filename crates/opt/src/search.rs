//! OPT: the minimum-makespan schedule of program (3).
//!
//! A `Crossing` that can never be scheduled (Theorem 2, via
//! [`quick_infeasible`]) refutes the instance before any search. Else
//! the greedy's makespan bounds the optimum from above, and the exact
//! search's minimum-makespan strategy ([`minimum_makespan`]) deepens
//! up to that bound within the budget. The optimum is certified before
//! it is returned.

use chronus_core::greedy::greedy_schedule;
use chronus_core::search::{minimum_makespan, Search};
use chronus_core::tree::quick_infeasible;
use chronus_core::{MutpProblem, ScheduleError};
use chronus_net::{TimeStep, UpdateInstance};
use chronus_timenet::Schedule;
use std::time::Duration;

/// Configuration for [`optimal_schedule_with`].
#[derive(Clone, Copy, Debug)]
pub struct OptConfig {
    /// Wall-clock budget (the paper caps OPT at 600 s in Fig. 10).
    pub budget: Duration,
}

impl Default for OptConfig {
    fn default() -> Self {
        OptConfig {
            budget: Duration::from_secs(600),
        }
    }
}

/// Result of a successful exact solve.
#[derive(Clone, Debug)]
pub struct OptOutcome {
    /// An optimal (minimum-makespan) consistent schedule.
    pub schedule: Schedule,
    /// Its makespan; `|T| = makespan + 1` in the paper's objective.
    pub makespan: TimeStep,
    /// The independent certifier's proof of consistency.
    pub certificate: chronus_verify::Certificate,
}

/// Solves MUTP exactly with the default 600 s budget.
///
/// # Errors
/// [`ScheduleError::Infeasible`] when no consistent schedule exists
/// (with the diverging switch as `blocked` when a crossing refutes the
/// instance), [`ScheduleError::TimedOut`] when the budget runs out
/// first, [`ScheduleError::TooLarge`] when the instance couples more
/// updates than the search's bitmask holds.
pub fn optimal_schedule(instance: &UpdateInstance) -> Result<OptOutcome, ScheduleError> {
    optimal_schedule_with(instance, OptConfig::default())
}

/// Solves MUTP exactly with an explicit configuration.
///
/// # Errors
/// See [`optimal_schedule`].
pub fn optimal_schedule_with(
    instance: &UpdateInstance,
    cfg: OptConfig,
) -> Result<OptOutcome, ScheduleError> {
    let _span = chronus_trace::span!("opt.search", flows = instance.flows.len()).entered();
    let problem = MutpProblem::new(instance)?;
    if let Some(crossing) = quick_infeasible(instance) {
        return Err(ScheduleError::Infeasible {
            blocked: Some(crossing.diverge),
            reason: "a crossing no update order can schedule (Theorem 2)".into(),
        });
    }
    // OPT ≤ greedy; the sound search horizon when greedy finds nothing.
    let bound = || {
        greedy_schedule(instance)
            .map(|g| g.makespan)
            .unwrap_or_else(|_| problem.search_horizon())
    };
    match minimum_makespan(&problem, bound, cfg.budget) {
        Search::Found(schedule) => {
            let certificate =
                chronus_verify::certify(instance, &schedule).map_err(|violation| {
                    ScheduleError::CertificationFailed {
                        violation: Box::new(violation),
                    }
                })?;
            Ok(OptOutcome {
                makespan: schedule.makespan().unwrap_or(0),
                schedule,
                certificate,
            })
        }
        Search::Exhausted => Err(ScheduleError::Infeasible {
            blocked: None,
            reason: "exhausted the full schedule space".into(),
        }),
        Search::Stopped => Err(ScheduleError::TimedOut {
            budget_ms: cfg.budget.as_millis() as u64,
        }),
        Search::TooLarge(items) => Err(ScheduleError::TooLarge { items }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronus_net::{motivating_example, Flow, FlowId, NetworkBuilder, Path, SwitchId};
    use chronus_timenet::{FluidSimulator, Verdict};

    fn sid(i: u32) -> SwitchId {
        SwitchId(i)
    }

    #[test]
    fn optimal_on_motivating_example() {
        let inst = motivating_example();
        let opt = optimal_schedule(&inst).expect("feasible");
        let report = FluidSimulator::check(&inst, &opt.schedule);
        assert_eq!(report.verdict(), Verdict::Consistent, "{report}");
        // Hand-verified: v2@0, v3@1, v1@2, v4@2 is consistent, so the
        // optimum is at most 2; and no all-at-zero or makespan-1
        // schedule is consistent, which the solver confirms.
        assert_eq!(opt.makespan, 2);
        // Never worse than the greedy.
        let greedy = greedy_schedule(&inst).unwrap();
        assert!(opt.makespan <= greedy.makespan);
    }

    #[test]
    fn optimal_single_switch_cases() {
        // Slow shortcut: a single update at step 0 works — OPT = 0.
        let mut b = NetworkBuilder::with_switches(4);
        b.add_link(sid(0), sid(1), 1, 1).unwrap();
        b.add_link(sid(1), sid(2), 1, 1).unwrap();
        b.add_link(sid(2), sid(3), 1, 1).unwrap();
        b.add_link(sid(0), sid(2), 1, 3).unwrap();
        let flow = Flow::new(
            FlowId(0),
            1,
            Path::new(vec![sid(0), sid(1), sid(2), sid(3)]),
            Path::new(vec![sid(0), sid(2), sid(3)]),
        )
        .unwrap();
        let inst = UpdateInstance::single(b.build(), flow).unwrap();
        let opt = optimal_schedule(&inst).unwrap();
        assert_eq!(opt.makespan, 0);
    }

    #[test]
    fn a_crossing_refutes_without_a_simulator_call() {
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
        chronus_trace::FlightRecorder::enable(4096);
        let root = chronus_trace::span!("opt.test").entered();
        let root_id = root.id().expect("the recorder is on");
        let err = optimal_schedule(&inst).unwrap_err();
        drop(root);
        // The fast shortcut 0→2 overtakes the old stream into the
        // capacity-1 tail: Theorem 2's crossing, blocked at s0.
        assert!(
            matches!(
                err,
                ScheduleError::Infeasible {
                    blocked: Some(SwitchId(0)),
                    ..
                }
            ),
            "{err}"
        );
        // Neither the greedy bound nor the search ran: `opt.search`
        // has no child span, so no simulator was built or probed.
        let snapshot = chronus_trace::FlightRecorder::snapshot();
        let search = snapshot
            .events
            .iter()
            .find(|e| e.name == "opt.search" && e.parent == Some(root_id))
            .expect("this solve's span");
        let ring = snapshot.rings.iter().find(|r| r.tid == search.tid);
        assert_eq!(ring.map(|r| r.dropped), Some(0), "{ring:?}");
        let children: Vec<_> = snapshot
            .events
            .iter()
            .filter(|e| e.parent == Some(search.id))
            .map(|e| e.name)
            .collect();
        assert!(children.is_empty(), "{children:?}");
    }

    #[test]
    fn over_63_coupled_updates_is_too_large_not_infeasible() {
        let inst = chronus_net::reversal_instance(80, 2, 1);
        chronus_trace::FlightRecorder::enable(4096);
        let root = chronus_trace::span!("opt.test").entered();
        let root_id = root.id().expect("the recorder is on");
        let err = optimal_schedule(&inst).unwrap_err();
        drop(root);
        assert!(
            matches!(err, ScheduleError::TooLarge { items } if items > 63),
            "{err}"
        );
        // The frame's size refuses the instance before the greedy
        // upper bound is paid for. A greedy run's span would close just
        // before `opt.search`'s, so it cannot have been overwritten
        // while that one is still in the ring.
        let snapshot = chronus_trace::FlightRecorder::snapshot();
        let search = snapshot
            .events
            .iter()
            .find(|e| e.name == "opt.search" && e.parent == Some(root_id))
            .expect("this solve's span");
        let greedy: Vec<_> = snapshot
            .events
            .iter()
            .filter(|e| e.parent == Some(search.id) && e.name == "core.greedy")
            .collect();
        assert!(greedy.is_empty(), "{greedy:?}");
    }

    #[test]
    fn budget_exhaustion_times_out() {
        let inst = motivating_example();
        let cfg = OptConfig {
            budget: Duration::from_nanos(1),
        };
        let err = optimal_schedule_with(&inst, cfg).unwrap_err();
        assert!(matches!(err, ScheduleError::TimedOut { .. }));
    }

    #[test]
    fn noop_instance_optimal_immediately() {
        let mut b = NetworkBuilder::with_switches(3);
        b.add_link(sid(0), sid(1), 1, 1).unwrap();
        b.add_link(sid(1), sid(2), 1, 1).unwrap();
        let p = Path::new(vec![sid(0), sid(1), sid(2)]);
        let flow = Flow::new(FlowId(0), 1, p.clone(), p).unwrap();
        let inst = UpdateInstance::single(b.build(), flow).unwrap();
        let opt = optimal_schedule(&inst).unwrap();
        assert_eq!(opt.makespan, 0);
        assert!(opt.schedule.is_empty());
    }

    #[test]
    fn opt_never_exceeds_greedy_on_random_instances() {
        use chronus_net::{InstanceGenerator, InstanceGeneratorConfig};
        let mut gen = InstanceGenerator::new(InstanceGeneratorConfig::paper(10, 99));
        let mut solved = 0;
        for _ in 0..8 {
            let Some(inst) = gen.generate() else { continue };
            let greedy = greedy_schedule(&inst);
            let opt = optimal_schedule_with(
                &inst,
                OptConfig {
                    budget: Duration::from_secs(10),
                },
            );
            match (greedy, opt) {
                (Ok(g), Ok(o)) => {
                    solved += 1;
                    assert!(o.makespan <= g.makespan, "OPT above greedy");
                    let report = FluidSimulator::check(&inst, &o.schedule);
                    assert_eq!(report.verdict(), Verdict::Consistent);
                }
                (Err(_), Ok(o)) => {
                    // OPT may succeed where the myopic greedy fails.
                    let report = FluidSimulator::check(&inst, &o.schedule);
                    assert_eq!(report.verdict(), Verdict::Consistent);
                }
                (Ok(g), Err(ScheduleError::TimedOut { .. })) => {
                    // Accept: the greedy witness still certifies feasibility.
                    let _ = g;
                }
                (Ok(_), Err(e)) => panic!("OPT infeasible but greedy succeeded: {e}"),
                (Err(_), Err(_)) => {}
            }
        }
        assert!(solved > 0, "at least one instance must be solved exactly");
    }
}
