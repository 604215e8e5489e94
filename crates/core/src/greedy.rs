//! **Algorithm 2** — the greedy MUTP scheduler.
//!
//! At every time step the scheduler rebuilds the dependency relation
//! set (Algorithm 3) over the remaining switches, takes the head of
//! every chain, filters heads through the forwarding-loop check
//! (Algorithm 4), and commits as many of them as possible to the
//! current step — "at each time step, we plan to update as many
//! switches as possible so as to minimize the total update time"
//! (paper §IV). It then appends one future step to the time-extended
//! network and repeats.
//!
//! ## Exactness gate
//!
//! The paper's local checks (Algorithms 3 and 4) look one hop ahead;
//! deeper interactions (a redirected stream contending two hops
//! downstream, or revisiting the *second* switch of its new route) can
//! slip past them. To guarantee Theorem 3 — every emitted schedule is
//! congestion- and loop-free — each candidate commit is additionally
//! verified by the exact [`chronus_timenet::IncrementalSimulator`]
//! mirroring the partial schedule. A candidate is committed only if
//! the partial schedule extended by it simulates clean; since the
//! final schedule *is* the last accepted partial schedule, the result
//! is consistent by induction. The local checks remain as cheap
//! pre-filters in front of it.
//!
//! ## Prefix safety
//!
//! Because every commit must keep the *partial* schedule consistent,
//! every schedule this module emits is **prefix-safe**: interrupt the
//! migration after any subset of its steps and the data plane is
//! still congestion- and loop-free forever. That is a robustness
//! property the paper's single-flow setting gets for free, but it has
//! a price in the multi-flow generality: migrations whose
//! intermediate states are only safe *because* a later update is
//! coming (e.g. two flows swapping paths when neither target can host
//! both) are not prefix-safe and are reported infeasible here — the
//! exact solver in `chronus-opt` schedules them
//! (`examples/traffic_engineering.rs` shows the contrast).
//!
//! ## Termination and infeasibility
//!
//! After [`MutpProblem::drain_bound`] consecutive steps without a
//! commit, every transient from earlier commits has left the network
//! and the data-plane state is stationary — if no pending update is
//! safe then, it never will be, and the scheduler soundly reports
//! [`ScheduleError::Infeasible`].
// Round state is dense-indexed by item ids the scheduler minted.
#![allow(clippy::indexing_slicing, clippy::expect_used)]

use crate::deps::DependencySet;
use crate::scan::FlowScan;
use crate::{MutpProblem, ScheduleError};
use chronus_net::{FlowId, SwitchId, TimeStep, UpdateInstance};
use chronus_timenet::{Delta, GateStats, IncrementalSimulator, Schedule, SimWorkspace, Verdict};
use std::collections::BTreeSet;
use std::time::Instant;

/// Tuning knobs for [`greedy_schedule_with`]; the defaults reproduce
/// the paper's Algorithm 2 plus the exactness gate.
#[derive(Clone, Copy, Debug, Default)]
pub struct GreedyConfig {
    /// Fail immediately when Algorithm 3 reports a dependency cycle
    /// (the paper's Algorithm 2 lines 7–8). Default false: cycles are
    /// often transient (they dissolve as old flow drains), so the
    /// default keeps stepping and relies on the drain-bound horizon.
    pub fail_on_cycle: bool,
    /// Post-hoc certification by the independent static certifier
    /// (`chronus-verify`). Enabled by default: every emitted schedule
    /// is re-proved consistent by interval arithmetic, with zero
    /// shared code with the simulator gate, and the proof is attached
    /// to the outcome as a [`chronus_verify::Certificate`]. Disable
    /// for hot benchmark loops.
    pub verify: chronus_verify::VerifyConfig,
}

/// The exactness gate: a persistent [`IncrementalSimulator`] mirroring
/// the partial schedule, updated in O(affected cohorts) per check.
///
/// The gate counts its own work in plain fields (one gate per run, on
/// one thread); [`ExactGate::into_parts`] turns them and the
/// simulator's ledger counters into the run's [`GateStats`].
struct ExactGate {
    inc: IncrementalSimulator,
    /// Pooled delta scratch for `try_extend` (no per-candidate alloc).
    deltas: Vec<Delta>,
    checks: u64,
    full_equivalent_cells: u64,
    /// Wall-clock nanoseconds spent inside the gate (construction,
    /// mirroring, checks).
    gate_nanos: u64,
}

impl ExactGate {
    fn new(instance: &UpdateInstance, ws: SimWorkspace) -> Self {
        // chronus-lint: allow(det-wallclock) — GateStats wall-time stamp; observability only, never feeds the schedule
        let t0 = Instant::now();
        let inc = IncrementalSimulator::with_workspace(instance, ws);
        ExactGate {
            inc,
            deltas: Vec::new(),
            checks: 0,
            full_equivalent_cells: 0,
            gate_nanos: t0.elapsed().as_nanos() as u64,
        }
    }

    /// Mirrors an unconditional schedule entry (the fresh pre-pass)
    /// into the simulator without a verdict check.
    fn mirror_set(&mut self, flow: FlowId, switch: SwitchId, t: TimeStep) {
        // chronus-lint: allow(det-wallclock) — GateStats wall-time stamp; observability only, never feeds the schedule
        let t0 = Instant::now();
        let d = self.inc.apply(flow, switch, t);
        self.inc.commit(d); // never undone: recycle its undo buffers
        self.gate_nanos += t0.elapsed().as_nanos() as u64;
    }

    /// One gate check of the mirrored schedule as-is.
    fn check_current(&mut self) -> bool {
        // chronus-lint: allow(det-wallclock) — GateStats wall-time stamp; observability only, never feeds the schedule
        let t0 = Instant::now();
        self.checks += 1;
        self.full_equivalent_cells += self.inc.live_cells();
        let ok = self.inc.verdict() == Verdict::Consistent;
        self.gate_nanos += t0.elapsed().as_nanos() as u64;
        ok
    }

    /// Gate-checks the schedule extended by `switches @ t` for `flow`.
    /// On acceptance the extension is committed to the simulator and
    /// written into `schedule`; on rejection the simulator deltas are
    /// undone and `schedule` is left untouched.
    fn try_extend(
        &mut self,
        schedule: &mut Schedule,
        flow: FlowId,
        switches: &[SwitchId],
        t: TimeStep,
    ) -> bool {
        // chronus-lint: allow(det-wallclock) — GateStats wall-time stamp; observability only, never feeds the schedule
        let t0 = Instant::now();
        self.checks += 1;
        self.full_equivalent_cells += self.inc.live_cells();
        debug_assert!(self.deltas.is_empty());
        for &v in switches {
            self.deltas.push(self.inc.apply(flow, v, t));
        }
        let ok = self.inc.verdict() == Verdict::Consistent;
        if ok {
            for d in self.deltas.drain(..) {
                self.inc.commit(d); // accepted: never undone
            }
            for &v in switches {
                schedule.set(flow, v, t);
            }
        } else {
            while let Some(d) = self.deltas.pop() {
                self.inc.undo(d);
            }
        }
        self.gate_nanos += t0.elapsed().as_nanos() as u64;
        ok
    }

    /// Tears the gate down into its counters, its wall-clock total and
    /// the reusable workspace buffers.
    fn into_parts(self) -> (GateStats, u64, SimWorkspace) {
        let stats = GateStats {
            checks: self.checks,
            ledger_applies: self.inc.applies(),
            ledger_undos: self.inc.undos(),
            cells_touched: self.inc.cell_visits(),
            full_equivalent_cells: self.full_equivalent_cells,
        };
        (stats, self.gate_nanos, self.inc.into_workspace())
    }
}

/// Trace of one greedy step, for rendering Fig. 5-style walkthroughs.
#[derive(Clone, Debug)]
pub struct RoundTrace {
    /// The time step.
    pub time: TimeStep,
    /// Dependency chains seen at this step (per flow, flattened).
    pub chains: Vec<Vec<SwitchId>>,
    /// Updates committed at this step.
    pub committed: Vec<(FlowId, SwitchId)>,
}

/// The result of a successful greedy run.
#[derive(Clone, Debug)]
pub struct GreedyOutcome {
    /// The congestion- and loop-free schedule.
    pub schedule: Schedule,
    /// Makespan (latest update step).
    pub makespan: TimeStep,
    /// Per-step trace.
    pub rounds: Vec<RoundTrace>,
    /// Number of exact simulator calls spent (instrumentation).
    pub simulator_calls: usize,
    /// Gate counters: checks, ledger apply/undo volume, and the
    /// cell-visit savings over full re-simulation.
    pub gate: GateStats,
    /// Wall-clock nanoseconds spent inside the exact gate (simulator
    /// construction plus every check).
    pub gate_nanos: u64,
    /// The independent certifier's proof of consistency, when
    /// certification was enabled (see [`GreedyConfig::verify`]).
    pub certificate: Option<chronus_verify::Certificate>,
    /// High-water mark, in bytes, of the run's [`SimArena`] pools
    /// (the flat backing store every simulation path draws from).
    /// Zero when the gate never ran or the workspace was not returned.
    ///
    /// [`SimArena`]: chronus_timenet::SimArena
    pub arena_bytes: u64,
}

/// Runs Algorithm 2 with default configuration.
///
/// # Errors
/// [`ScheduleError::Infeasible`] if no consistent schedule exists (or
/// none was found before the sound drain-bound horizon),
/// [`ScheduleError::Invalid`] for malformed instances.
pub fn greedy_schedule(instance: &UpdateInstance) -> Result<GreedyOutcome, ScheduleError> {
    greedy_schedule_with(instance, GreedyConfig::default())
}

/// Runs Algorithm 2 with explicit configuration.
///
/// # Errors
/// See [`greedy_schedule`].
pub fn greedy_schedule_with(
    instance: &UpdateInstance,
    config: GreedyConfig,
) -> Result<GreedyOutcome, ScheduleError> {
    let mut ws = SimWorkspace::default();
    greedy_schedule_in(instance, config, &mut ws)
}

/// Runs Algorithm 2 reusing caller-owned simulation buffers.
///
/// Long-lived callers (the engine, the benches) pass
/// the same [`SimWorkspace`] to every run so the gate's load ledger,
/// visit stamps and hop buffers are allocated once, not per plan. The
/// workspace is returned to `workspace` on every exit path, including
/// errors.
///
/// # Errors
/// See [`greedy_schedule`].
pub fn greedy_schedule_in(
    instance: &UpdateInstance,
    config: GreedyConfig,
    workspace: &mut SimWorkspace,
) -> Result<GreedyOutcome, ScheduleError> {
    let mut span = chronus_trace::span!("core.greedy", flows = instance.flows.len()).entered();
    let mut gate = ExactGate::new(instance, std::mem::take(workspace));
    let result = greedy_loop(instance, config, &mut gate);
    let (gate_stats, gate_nanos, ws) = gate.into_parts();
    *workspace = ws;
    let simulator_calls = gate_stats.checks as usize;
    let arena_bytes = workspace.arena_bytes();
    span.record("simulator_calls", simulator_calls);
    let (schedule, rounds) = result?;
    let makespan = schedule.makespan().unwrap_or(0);
    let certificate = crate::certify_outcome(instance, &schedule, &config.verify)?;
    Ok(GreedyOutcome {
        schedule,
        makespan,
        rounds,
        simulator_calls,
        gate: gate_stats,
        gate_nanos,
        certificate,
        arena_bytes,
    })
}

/// The Algorithm 2 main loop.
fn greedy_loop(
    instance: &UpdateInstance,
    config: GreedyConfig,
    gate: &mut ExactGate,
) -> Result<(Schedule, Vec<RoundTrace>), ScheduleError> {
    let problem = MutpProblem::new(instance)?;

    let mut schedule = Schedule::new();
    let mut rounds = Vec::new();

    // Flat per-flow scan tables (see `scan`): built once per run,
    // snapshotted per flow-turn.
    let mut scans: Vec<FlowScan> = instance
        .flows
        .iter()
        .map(|f| FlowScan::build(instance, f))
        .collect();

    // Per-flow pending sets.
    let mut pending: Vec<BTreeSet<SwitchId>> = (0..instance.flows.len())
        .map(|fi| problem.pending(fi).clone())
        .collect();

    // Fresh switches (new rule, no old rule) carry no flow until an
    // upstream switch diverges; activating them at step 0 is always
    // safe and required before any diverger sends flow their way.
    for (fi, flow) in instance.flows.iter().enumerate() {
        for v in problem.fresh_switches(fi) {
            schedule.set(flow.id, v, 0);
            gate.mirror_set(flow.id, v, 0);
            pending[fi].remove(&v);
        }
    }
    // The fresh pre-pass must itself be clean (it is, since fresh
    // switches see no traffic yet), but verify once under the gate.
    if !schedule.is_empty() && !gate.check_current() {
        return Err(ScheduleError::Infeasible {
            blocked: None,
            reason: "activating fresh final-path switches failed".into(),
        });
    }

    let drain = problem.drain_bound();
    let cooldown = (drain / 4).max(1);
    let mut t: TimeStep = 0;
    let mut idle_steps: TimeStep = 0;
    // Gate failures are sticky: nothing about a rejected candidate
    // changes until either time passes (old flow drains) or another
    // switch commits, so skip re-testing it until then. A BTreeMap,
    // not a HashMap: this map is get/insert-only today, but the
    // determinism lint (det-hash) bans owned hash containers in
    // schedule-producing code so a future `.iter()` can never leak
    // process-random order into the schedule (DESIGN.md §15).
    let mut failed_at: std::collections::BTreeMap<(usize, SwitchId), TimeStep> =
        std::collections::BTreeMap::new();
    let mut last_commit_t: TimeStep = -1;
    // Candidate-build buffers, hoisted out of the round loop and
    // reused across flow-turns (cleared, never reallocated).
    let mut candidates: Vec<SwitchId> = Vec::new();
    let mut seen: BTreeSet<SwitchId> = BTreeSet::new();

    while pending.iter().any(|p| !p.is_empty()) {
        let mut trace = RoundTrace {
            time: t,
            chains: Vec::new(),
            committed: Vec::new(),
        };

        for (fi, flow) in instance.flows.iter().enumerate() {
            if pending[fi].is_empty() {
                continue;
            }
            // Snapshot is valid for this whole flow-turn: all commits
            // for this flow happen after collection.
            scans[fi].begin_step(&schedule, &pending[fi]);
            let scan = &scans[fi];
            let mut deps: DependencySet = scan.dependency_set(&pending[fi], t);
            if config.fail_on_cycle {
                if let Some(cycle) = deps.cycle.take() {
                    return Err(ScheduleError::DependencyCycle(cycle));
                }
            }
            // Single-pass candidate build: cooldown and Algorithm 4
            // filters are applied as each candidate is drawn, and the
            // idle-step widening dedups through a set instead of
            // linear `Vec::contains` scans.
            let admissible = |v: SwitchId| {
                pending[fi].contains(&v)
                    && failed_at
                        .get(&(fi, v))
                        .is_none_or(|&ft| last_commit_t > ft || t >= ft + cooldown)
                    && !scan.creates_loop(v, t)
            };
            candidates.clear();
            seen.clear();
            for v in deps.heads() {
                if seen.insert(v) && admissible(v) {
                    candidates.push(v);
                }
            }
            // If the heads alone make no progress for a while, the
            // robust mode widens to all pending switches so the exact
            // gate gets the final say.
            if idle_steps > 0 {
                for &v in pending[fi].iter() {
                    if seen.insert(v) && admissible(v) {
                        candidates.push(v);
                    }
                }
            }
            // Chains are moved (not cloned) into the trace; `heads()`
            // above was the last reader of `deps`.
            trace.chains.append(&mut deps.chains);
            if candidates.is_empty() {
                continue;
            }

            // Fast path: commit the whole candidate batch at once —
            // "update as many switches as possible" (§IV) — and fall
            // back to one-by-one only if the joint commit fails.
            if candidates.len() > 1 && gate.try_extend(&mut schedule, flow.id, &candidates, t) {
                for &v in &candidates {
                    pending[fi].remove(&v);
                    trace.committed.push((flow.id, v));
                }
                last_commit_t = t;
                continue;
            }

            for &v in &candidates {
                // Exact gate: commit only if the extended partial
                // schedule simulates clean.
                if gate.try_extend(&mut schedule, flow.id, std::slice::from_ref(&v), t) {
                    pending[fi].remove(&v);
                    trace.committed.push((flow.id, v));
                    last_commit_t = t;
                } else {
                    failed_at.insert((fi, v), t);
                }
            }
        }

        let committed = !trace.committed.is_empty();
        rounds.push(trace);
        if committed {
            idle_steps = 0;
        } else {
            idle_steps += 1;
            if idle_steps > drain {
                let blocked = pending.iter().flat_map(|p| p.iter().copied()).next();
                return Err(ScheduleError::Infeasible {
                    blocked,
                    reason: format!(
                        "no safe update for {drain} consecutive steps; \
                         data plane is stationary"
                    ),
                });
            }
        }
        t += 1;
    }

    Ok((schedule, rounds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronus_net::{motivating_example, reversal_instance, Flow, FlowId, NetworkBuilder, Path};
    use chronus_timenet::FluidSimulator;

    fn sid(i: u32) -> SwitchId {
        SwitchId(i)
    }

    fn assert_consistent(instance: &UpdateInstance, schedule: &Schedule) {
        let report = FluidSimulator::check(instance, schedule);
        assert_eq!(report.verdict(), Verdict::Consistent, "{report}");
        schedule
            .validate(instance)
            .expect("schedule covers instance");
    }

    #[test]
    fn solves_motivating_example() {
        let inst = motivating_example();
        let out = greedy_schedule(&inst).expect("feasible");
        assert_consistent(&inst, &out.schedule);
        // Only v2 can move at t0 (paper Fig. 5); everything completes
        // within a handful of steps.
        assert_eq!(
            out.rounds[0].committed,
            vec![(FlowId(0), sid(1))],
            "only v2 updates at t0"
        );
        assert!(out.makespan <= 6, "makespan {} too large", out.makespan);
        assert!(out.simulator_calls > 0);
    }

    #[test]
    fn solves_shared_tail_with_slow_shortcut() {
        let mut b = NetworkBuilder::with_switches(4);
        b.add_link(sid(0), sid(1), 1, 1).unwrap();
        b.add_link(sid(1), sid(2), 1, 1).unwrap();
        b.add_link(sid(2), sid(3), 1, 1).unwrap();
        b.add_link(sid(0), sid(2), 1, 3).unwrap();
        let net = b.build();
        let flow = Flow::new(
            FlowId(0),
            1,
            Path::new(vec![sid(0), sid(1), sid(2), sid(3)]),
            Path::new(vec![sid(0), sid(2), sid(3)]),
        )
        .unwrap();
        let inst = UpdateInstance::single(net, flow).unwrap();
        let out = greedy_schedule(&inst).expect("slow shortcut is feasible");
        assert_consistent(&inst, &out.schedule);
        assert_eq!(out.makespan, 0, "single immediate update suffices");
    }

    #[test]
    fn reports_infeasible_fast_shortcut() {
        let mut b = NetworkBuilder::with_switches(4);
        b.add_link(sid(0), sid(1), 1, 1).unwrap();
        b.add_link(sid(1), sid(2), 1, 1).unwrap();
        b.add_link(sid(2), sid(3), 1, 1).unwrap();
        b.add_link(sid(0), sid(2), 1, 1).unwrap();
        let net = b.build();
        let flow = Flow::new(
            FlowId(0),
            1,
            Path::new(vec![sid(0), sid(1), sid(2), sid(3)]),
            Path::new(vec![sid(0), sid(2), sid(3)]),
        )
        .unwrap();
        let inst = UpdateInstance::single(net, flow).unwrap();
        let err = greedy_schedule(&inst).unwrap_err();
        assert!(matches!(err, ScheduleError::Infeasible { .. }), "{err}");
    }

    #[test]
    fn solves_reversal_instances() {
        for n in 4..9 {
            let inst = reversal_instance(n, 2, 1); // capacity 2 ≥ 2d: no congestion risk
            let out = greedy_schedule(&inst)
                .unwrap_or_else(|e| panic!("reversal n={n} should be feasible: {e}"));
            assert_consistent(&inst, &out.schedule);
        }
    }

    #[test]
    fn fresh_switches_scheduled_at_zero() {
        let mut b = NetworkBuilder::with_switches(4);
        b.add_link(sid(0), sid(1), 5, 1).unwrap();
        b.add_link(sid(1), sid(3), 5, 1).unwrap();
        b.add_link(sid(0), sid(2), 5, 1).unwrap();
        b.add_link(sid(2), sid(3), 5, 1).unwrap();
        let flow = Flow::new(
            FlowId(0),
            1,
            Path::new(vec![sid(0), sid(1), sid(3)]),
            Path::new(vec![sid(0), sid(2), sid(3)]),
        )
        .unwrap();
        let inst = UpdateInstance::single(b.build(), flow).unwrap();
        let out = greedy_schedule(&inst).expect("diamond is feasible");
        assert_consistent(&inst, &out.schedule);
        assert_eq!(out.schedule.get(FlowId(0), sid(2)), Some(0));
    }

    #[test]
    fn fail_on_cycle_reproduces_paper_behaviour() {
        // The motivating example has a transient v1/v3 cycle at t0;
        // strict paper mode bails out, robust mode solves it.
        let inst = motivating_example();
        let cfg = GreedyConfig {
            fail_on_cycle: true,
            ..Default::default()
        };
        let err = greedy_schedule_with(&inst, cfg).unwrap_err();
        assert!(matches!(err, ScheduleError::DependencyCycle(_)));
    }

    #[test]
    fn noop_instance_needs_empty_schedule() {
        let mut b = NetworkBuilder::with_switches(3);
        b.add_link(sid(0), sid(1), 1, 1).unwrap();
        b.add_link(sid(1), sid(2), 1, 1).unwrap();
        let p = Path::new(vec![sid(0), sid(1), sid(2)]);
        let flow = Flow::new(FlowId(0), 1, p.clone(), p).unwrap();
        let inst = UpdateInstance::single(b.build(), flow).unwrap();
        let out = greedy_schedule(&inst).expect("noop feasible");
        assert!(out.schedule.is_empty());
        assert_eq!(out.makespan, 0);
    }

    #[test]
    fn two_flow_joint_scheduling() {
        // Two flows whose new paths share a capacity-1 link: the gate
        // must serialize them in time.
        let mut b = NetworkBuilder::with_switches(5);
        b.add_link(sid(0), sid(1), 1, 1).unwrap(); // f0 old
        b.add_link(sid(2), sid(1), 1, 1).unwrap(); // f1 old
        b.add_link(sid(0), sid(3), 2, 1).unwrap();
        b.add_link(sid(2), sid(3), 2, 2).unwrap();
        b.add_link(sid(3), sid(1), 1, 1).unwrap(); // shared new tail
        let net = b.build();
        let f0 = Flow::new(
            FlowId(0),
            1,
            Path::new(vec![sid(0), sid(1)]),
            Path::new(vec![sid(0), sid(3), sid(1)]),
        )
        .unwrap();
        let f1 = Flow::new(
            FlowId(1),
            1,
            Path::new(vec![sid(2), sid(1)]),
            Path::new(vec![sid(2), sid(3), sid(1)]),
        )
        .unwrap();
        let inst = UpdateInstance::new(net, vec![f0, f1]).unwrap();
        // Both flows permanently need the shared tail: total demand 2
        // on a capacity-1 link — the *final* state itself is congested,
        // so this must be infeasible.
        let err = greedy_schedule(&inst).unwrap_err();
        assert!(matches!(err, ScheduleError::Infeasible { .. }));
    }

    #[test]
    fn two_flow_feasible_when_capacity_allows() {
        let mut b = NetworkBuilder::with_switches(5);
        b.add_link(sid(0), sid(1), 1, 1).unwrap();
        b.add_link(sid(2), sid(1), 1, 1).unwrap();
        b.add_link(sid(0), sid(3), 2, 1).unwrap();
        b.add_link(sid(2), sid(3), 2, 2).unwrap();
        b.add_link(sid(3), sid(1), 2, 1).unwrap(); // capacity 2 now
        let net = b.build();
        let f0 = Flow::new(
            FlowId(0),
            1,
            Path::new(vec![sid(0), sid(1)]),
            Path::new(vec![sid(0), sid(3), sid(1)]),
        )
        .unwrap();
        let f1 = Flow::new(
            FlowId(1),
            1,
            Path::new(vec![sid(2), sid(1)]),
            Path::new(vec![sid(2), sid(3), sid(1)]),
        )
        .unwrap();
        let inst = UpdateInstance::new(net, vec![f0, f1]).unwrap();
        let out = greedy_schedule(&inst).expect("capacity 2 admits both");
        assert_consistent(&inst, &out.schedule);
    }
}
