//! Iterative-deepening branch-and-bound over the schedule space.
//!
//! For a makespan bound `M` the searcher walks time steps `t = 0…M`;
//! at each step it decides which of the remaining switches update at
//! `t` (a subset choice explored one switch at a time). When the step
//! closes, all data-plane events at simulated times `≤ t` are frozen —
//! any remaining update happens at `≥ t + 1` and can only influence
//! departures from `t + 1` on — so a violation at a frozen time
//! soundly prunes the subtree. Visited `(t, remaining-set)` states are
//! memoized. The outer loop raises `M` until a schedule exists; the
//! first hit is optimal, because a schedule with makespan `M` exists
//! in the `M`-bounded space and none exists in the `(M−1)`-bounded
//! one.
// Branch-and-bound frames index per-item slots minted from the
// instance's own update items.
#![allow(clippy::indexing_slicing, clippy::expect_used)]

use chronus_core::greedy::greedy_schedule;
use chronus_core::{MutpProblem, ScheduleError};
use chronus_net::{SwitchId, TimeStep, UpdateInstance};
use chronus_timenet::{Delta, IncrementalSimulator, Schedule, Verdict};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Configuration for [`optimal_schedule_with`].
#[derive(Clone, Copy, Debug)]
pub struct OptConfig {
    /// Wall-clock budget (the paper caps OPT at 600 s in Fig. 10).
    pub budget: Duration,
    /// Hard cap on the makespan explored; defaults to the greedy
    /// makespan (OPT can never need more) or the instance's search
    /// horizon when the greedy fails.
    pub max_makespan: Option<TimeStep>,
    /// Post-hoc certification of the winning schedule by the
    /// independent static certifier (`chronus-verify`); enabled by
    /// default, disable for hot benchmark loops.
    pub verify: chronus_verify::VerifyConfig,
}

impl Default for OptConfig {
    fn default() -> Self {
        OptConfig {
            budget: Duration::from_secs(600),
            max_makespan: None,
            verify: chronus_verify::VerifyConfig::default(),
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
    /// Simulator invocations spent.
    pub simulator_calls: usize,
    /// Search states expanded.
    pub states: usize,
    /// The independent certifier's proof of consistency, when
    /// certification was enabled (see [`OptConfig::verify`]).
    pub certificate: Option<chronus_verify::Certificate>,
}

/// Runs the independent certifier over the winning schedule per the
/// config, surfacing a rejection as
/// [`ScheduleError::CertificationFailed`].
fn certify_outcome(
    instance: &UpdateInstance,
    schedule: &Schedule,
    cfg: &chronus_verify::VerifyConfig,
) -> Result<Option<chronus_verify::Certificate>, ScheduleError> {
    if !cfg.enabled {
        return Ok(None);
    }
    match chronus_verify::certify_with(instance, schedule, cfg) {
        Ok(cert) => Ok(Some(cert)),
        Err(violation) => Err(ScheduleError::CertificationFailed {
            violation: Box::new(violation),
        }),
    }
}

/// Solves MUTP exactly with the default 600 s budget.
///
/// # Errors
/// [`ScheduleError::Infeasible`] when no consistent schedule exists,
/// [`ScheduleError::TimedOut`] when the budget runs out first.
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
    // chronus-lint: allow(det-wallclock) — search budget deadline; affects only whether an answer is produced, never which
    let deadline = Instant::now() + cfg.budget;

    // Upper bound from the greedy (OPT ≤ greedy); fall back to the
    // sound search horizon when the greedy cannot find a witness.
    let greedy = greedy_schedule(instance).ok();
    let ub = cfg.max_makespan.unwrap_or_else(|| {
        greedy
            .as_ref()
            .map(|g| g.makespan)
            .unwrap_or_else(|| problem.search_horizon())
    });

    let mut base = Schedule::new();
    let mut items: Vec<(usize, SwitchId)> = Vec::new();
    for (fi, flow) in instance.flows.iter().enumerate() {
        // Fresh switches update at step 0 without loss of optimality:
        // no flow reaches them before some diverger updates, and
        // step 0 can only lower the makespan.
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
    if items.len() > 63 {
        return Err(ScheduleError::Infeasible {
            blocked: None,
            reason: format!(
                "exact search supports at most 63 coupled updates, got {}",
                items.len()
            ),
        });
    }

    // One incremental simulator answers every consistency and
    // frozen-prefix query in O(Δ) for the whole deepening loop: every
    // exhausted search tree unwinds its deltas completely, so the
    // state is back at `base` when the next bound starts.
    let mut inc = IncrementalSimulator::new(instance);
    for (flow, v, t) in base.iter() {
        let d = inc.apply(flow, v, t);
        inc.commit(d); // base is permanent: never undone
    }
    let drain = problem.drain_bound();
    let mut stats = Stats::default();

    if items.is_empty() {
        // Only fresh activations (or nothing at all).
        stats.sims += 1;
        if inc.verdict() == Verdict::Consistent {
            let makespan = base.makespan().unwrap_or(0);
            let certificate = certify_outcome(instance, &base, &cfg.verify)?;
            return Ok(OptOutcome {
                schedule: base,
                makespan,
                simulator_calls: stats.sims,
                states: stats.states,
                certificate,
            });
        }
        return Err(ScheduleError::Infeasible {
            blocked: None,
            reason: "fresh-switch activation alone is inconsistent".into(),
        });
    }

    for m in 0..=ub {
        // chronus-lint: allow(det-wallclock) — budget deadline check, see `deadline`
        if Instant::now() > deadline {
            return Err(ScheduleError::TimedOut {
                budget_ms: cfg.budget.as_millis() as u64,
            });
        }
        let mut searcher = Searcher {
            instance,
            inc: &mut inc,
            items: &items,
            makespan: m,
            drain,
            deadline,
            // chronus-lint: allow(det-hash) — insert/contains-only visited-state memo; never iterated
            memo: HashSet::new(),
            stats: &mut stats,
            assigned: vec![None; items.len()],
            deltas: Vec::new(),
        };
        let full = (1u64 << items.len()) - 1;
        let mut schedule = base.clone();
        match searcher.step(0, full, &mut schedule) {
            Outcome::Found => {
                let makespan = schedule.makespan().unwrap_or(0);
                let certificate = certify_outcome(instance, &schedule, &cfg.verify)?;
                return Ok(OptOutcome {
                    schedule,
                    makespan,
                    simulator_calls: stats.sims,
                    states: stats.states,
                    certificate,
                });
            }
            Outcome::Exhausted => continue,
            Outcome::TimedOut => {
                return Err(ScheduleError::TimedOut {
                    budget_ms: cfg.budget.as_millis() as u64,
                })
            }
        }
    }

    match greedy {
        // The greedy found a schedule but the deepening loop was capped
        // below its makespan by config: report the greedy's as optimal
        // within the explored bound is *wrong*, so surface infeasible
        // within the bound instead.
        Some(_) if cfg.max_makespan.is_some() => Err(ScheduleError::Infeasible {
            blocked: None,
            reason: format!("no schedule with makespan <= {ub}"),
        }),
        _ => Err(ScheduleError::Infeasible {
            blocked: None,
            reason: "exhausted the full schedule space".into(),
        }),
    }
}

#[derive(Default)]
struct Stats {
    sims: usize,
    states: usize,
}

enum Outcome {
    Found,
    Exhausted,
    TimedOut,
}

/// Memo key: (next step, remaining-switch bitset, time-shifted recent
/// assignments) — see [`Searcher::memo_key`].
type MemoKey = (TimeStep, u64, Vec<(usize, TimeStep)>);

struct Searcher<'a> {
    instance: &'a UpdateInstance,
    /// Mirrors `schedule`; answers consistency and frozen-prefix
    /// queries in O(Δ).
    inc: &'a mut IncrementalSimulator,
    items: &'a [(usize, SwitchId)],
    makespan: TimeStep,
    drain: TimeStep,
    deadline: Instant,
    // chronus-lint: allow(det-hash) — insert/contains-only visited-state memo; never iterated
    memo: HashSet<MemoKey>,
    stats: &'a mut Stats,
    /// Current assignment per item index — the search's own mirror of
    /// the schedule, kept so `memo_key` reads it in one pre-sorted
    /// pass instead of per-item `BTreeMap` lookups.
    assigned: Vec<Option<TimeStep>>,
    /// LIFO stack of incremental deltas, one per live assignment.
    deltas: Vec<Delta>,
}

impl<'a> Searcher<'a> {
    /// Records `items[i] @ t` in the schedule, the assignment mirror
    /// and the incremental simulator.
    fn assign(&mut self, i: usize, t: TimeStep, schedule: &mut Schedule) {
        let (fi, v) = self.items[i];
        let flow_id = self.instance.flows[fi].id;
        schedule.set(flow_id, v, t);
        self.assigned[i] = Some(t);
        self.deltas.push(self.inc.apply(flow_id, v, t));
    }

    /// Reverts the most recent [`Searcher::assign`] of `items[i]`.
    fn retract(&mut self, i: usize, schedule: &mut Schedule) {
        let (fi, v) = self.items[i];
        let flow_id = self.instance.flows[fi].id;
        schedule.unset(flow_id, v);
        self.assigned[i] = None;
        self.inc
            .undo(self.deltas.pop().expect("assign/retract imbalance"));
    }

    /// Memo key for the state reached after closing step `t − 1`:
    /// besides `(t, remaining)`, only the assignments within the last
    /// drain period still influence the future — all events up to the
    /// current step are already certified clean, older updates have
    /// fully drained, and which rules are new is captured by
    /// `remaining`. Two states agreeing on this key have identical
    /// futures, so memoizing their exhaustion is sound.
    fn memo_key(&self, t: TimeStep, remaining: u64) -> MemoKey {
        let window_start = t - self.drain;
        // `assigned` is indexed by item, so the pairs come out already
        // sorted by `i` (each `i` appears at most once).
        let recent: Vec<(usize, TimeStep)> = self
            .assigned
            .iter()
            .enumerate()
            .filter_map(|(i, tv)| {
                tv.filter(|&tv| tv > window_start).map(|tv| (i, tv - t)) // time-shift-invariant offset
            })
            .collect();
        // Absolute `t` stays in the key: the remaining makespan budget
        // `M − t` is part of the state even when the data plane looks
        // identical.
        (t, remaining, recent)
    }

    /// Full-schedule consistency of the current node.
    fn node_consistent(&mut self) -> bool {
        self.stats.sims += 1;
        self.inc.verdict() == Verdict::Consistent
    }

    /// Frozen-prefix violation test at the close of step `t`.
    ///
    /// A violation whose event time is `≤ t` cannot be repaired by
    /// updates at steps `> t` (updates only change departures at or
    /// after their own step).
    fn node_frozen_violation(&mut self, t: TimeStep) -> bool {
        self.stats.sims += 1;
        self.inc.has_violation_at_or_before(t)
    }

    /// Decides the update set of step `t` and recurses to `t + 1`.
    fn step(&mut self, t: TimeStep, remaining: u64, schedule: &mut Schedule) -> Outcome {
        if remaining == 0 {
            return if self.node_consistent() {
                Outcome::Found
            } else {
                Outcome::Exhausted
            };
        }
        if t > self.makespan {
            return Outcome::Exhausted;
        }
        let key = self.memo_key(t, remaining);
        if !self.memo.insert(key) {
            return Outcome::Exhausted;
        }
        // chronus-lint: allow(det-wallclock) — budget deadline check, see `deadline`
        if Instant::now() > self.deadline {
            return Outcome::TimedOut;
        }
        self.stats.states += 1;
        self.choose(t, remaining, 0, remaining, schedule)
    }

    /// Enumerates subsets of `remaining` to update at step `t`, one
    /// switch decision at a time (bits below `cursor_mask`'s lowest
    /// set bit are already decided).
    fn choose(
        &mut self,
        t: TimeStep,
        remaining: u64,
        chosen: u64,
        undecided: u64,
        schedule: &mut Schedule,
    ) -> Outcome {
        if undecided == 0 {
            // Step t closed: events at times ≤ t are frozen; prune on
            // any frozen violation.
            if self.node_frozen_violation(t) {
                return Outcome::Exhausted;
            }
            return self.step(t + 1, remaining & !chosen, schedule);
        }
        let i = undecided.trailing_zeros() as usize;
        let bit = 1u64 << i;
        let rest = undecided & !bit;

        // Branch 1: update item i at step t.
        self.assign(i, t, schedule);
        match self.choose(t, remaining, chosen | bit, rest, schedule) {
            Outcome::Exhausted => {}
            other => return other,
        }
        self.retract(i, schedule);

        // Branch 2: defer item i past step t — only possible if steps
        // remain.
        if t < self.makespan {
            match self.choose(t, remaining, chosen, rest, schedule) {
                Outcome::Exhausted => Outcome::Exhausted,
                other => other,
            }
        } else {
            Outcome::Exhausted
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronus_net::{motivating_example, Flow, FlowId, NetworkBuilder, Path};
    use chronus_timenet::FluidSimulator;

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
    fn infeasible_instances_are_detected() {
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
        let err = optimal_schedule(&inst).unwrap_err();
        assert!(matches!(err, ScheduleError::Infeasible { .. }), "{err}");
    }

    #[test]
    fn budget_exhaustion_times_out() {
        let inst = motivating_example();
        let cfg = OptConfig {
            budget: Duration::from_nanos(1),
            ..Default::default()
        };
        let err = optimal_schedule_with(&inst, cfg).unwrap_err();
        assert!(matches!(err, ScheduleError::TimedOut { .. }));
    }

    #[test]
    fn makespan_cap_below_optimum_is_infeasible() {
        let inst = motivating_example();
        let cfg = OptConfig {
            budget: Duration::from_secs(60),
            max_makespan: Some(1), // optimum is 2
            ..Default::default()
        };
        let err = optimal_schedule_with(&inst, cfg).unwrap_err();
        assert!(matches!(err, ScheduleError::Infeasible { .. }), "{err}");
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
                    ..Default::default()
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
