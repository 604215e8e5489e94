//! **OR** — order-replacement updates (Ludwig et al. \[15\]).
//!
//! OR partitions the switches needing updates into *rounds*. Within a
//! round the controller fires all updates at once and waits for
//! barrier replies; switches apply them at arbitrary relative times
//! (the asynchronous data plane), so a round `S` is *loop-free* only
//! if **every** interleaving of `S` is: equivalently, the forwarding
//! multigraph in which already-updated switches use their new edge,
//! untouched switches their old edge, and switches in `S` *both*
//! edges, must be acyclic. Minimizing the number of rounds under this
//! condition is NP-hard \[15\]; the paper solves it with branch and
//! bound, with a greedy maximal-round heuristic as fallback — both are
//! implemented here.
//!
//! OR ignores link capacities and transmission delays entirely; when
//! its rounds are executed with realistic per-switch installation
//! latencies ([`OrOutcome::execute`]), the resulting schedule is what
//! produces the transient congestion of Figs. 6–8.
// Rounds and segment tables are indexed by ids this planner minted.
#![allow(clippy::indexing_slicing)]

use chronus_core::ScheduleError;
use chronus_net::{Flow, SwitchId, TimeStep, UpdateInstance};
use chronus_timenet::Schedule;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::time::{Duration, Instant};

/// Configuration for the exact OR solver.
#[derive(Clone, Copy, Debug)]
pub struct OrConfig {
    /// Wall-clock budget for the branch and bound (paper: 600 s).
    pub budget: Duration,
}

impl Default for OrConfig {
    fn default() -> Self {
        OrConfig {
            budget: Duration::from_secs(600),
        }
    }
}

/// An OR update plan: switches grouped into rounds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OrOutcome {
    /// Rounds in execution order; within a round, updates are fired
    /// simultaneously and land asynchronously.
    pub rounds: Vec<Vec<SwitchId>>,
    /// `true` if produced by the exact branch and bound, `false` for
    /// the greedy heuristic.
    pub exact: bool,
}

impl OrOutcome {
    /// Number of controller interaction rounds (OR's objective).
    pub fn round_count(&self) -> usize {
        self.rounds.len()
    }

    /// Executes the plan against an asynchronous data plane: every
    /// switch's update lands `latency ∈ [min, max]` steps after its
    /// round fires, and a round fires only after every update of the
    /// previous round has landed (barrier). Returns the realized
    /// per-switch update times as a [`Schedule`], ready for the exact
    /// simulator — this is how the OR rows of Figs. 6–8 are produced.
    pub fn execute(
        &self,
        flow: &Flow,
        latency_range: (TimeStep, TimeStep),
        rng: &mut StdRng,
    ) -> Schedule {
        assert!(
            latency_range.0 >= 0 && latency_range.0 <= latency_range.1,
            "latency range must be non-negative and ordered"
        );
        let mut schedule = Schedule::new();
        let mut round_start: TimeStep = 0;
        for round in &self.rounds {
            let mut latest = round_start;
            for &v in round {
                let latency = rng.gen_range(latency_range.0..=latency_range.1);
                let at = round_start + latency;
                schedule.set(flow.id, v, at);
                latest = latest.max(at);
            }
            // Barrier: next round fires only after every reply.
            round_start = latest + 1;
        }
        schedule
    }
}

/// Is the round set `candidate` safe to fire given `already_updated`?
///
/// Builds the forwarding multigraph (new edges for updated, both for
/// candidate, old for the rest) and checks it for cycles.
fn round_is_loop_free(
    flow: &Flow,
    already_updated: &BTreeSet<SwitchId>,
    candidate: &BTreeSet<SwitchId>,
) -> bool {
    // Adjacency over the switches touched by the flow.
    let mut adj: HashMap<SwitchId, Vec<SwitchId>> = HashMap::new();
    for v in flow.touched_switches() {
        let mut outs = Vec::new();
        let old = flow.old_rule(v);
        let new = flow.new_rule(v);
        if already_updated.contains(&v) {
            if let Some(n) = new {
                outs.push(n);
            }
        } else if candidate.contains(&v) {
            if let Some(n) = new {
                outs.push(n);
            }
            if let Some(o) = old {
                outs.push(o);
            }
        } else if let Some(o) = old {
            outs.push(o);
        }
        adj.insert(v, outs);
    }
    // DFS cycle detection.
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let mut marks: HashMap<SwitchId, Mark> = adj.keys().map(|&v| (v, Mark::White)).collect();
    fn dfs(
        v: SwitchId,
        adj: &HashMap<SwitchId, Vec<SwitchId>>,
        marks: &mut HashMap<SwitchId, Mark>,
    ) -> bool {
        marks.insert(v, Mark::Grey);
        for &w in adj.get(&v).into_iter().flatten() {
            match marks.get(&w).copied().unwrap_or(Mark::Black) {
                Mark::Grey => return true,
                Mark::White => {
                    if dfs(w, adj, marks) {
                        return true;
                    }
                }
                Mark::Black => {}
            }
        }
        marks.insert(v, Mark::Black);
        false
    }
    let keys: Vec<SwitchId> = adj.keys().copied().collect();
    for v in keys {
        if marks[&v] == Mark::White && dfs(v, &adj, &mut marks) {
            return false;
        }
    }
    true
}

/// Greedy maximal rounds: repeatedly grow a round by adding every
/// pending switch that keeps the multigraph acyclic. Terminates
/// because updating a switch whose new next-hop chain is already
/// final is always eventually admissible (the classic backward
/// induction of \[15\]).
pub fn or_rounds_greedy(instance: &UpdateInstance) -> Result<OrOutcome, ScheduleError> {
    let flow = single_flow(instance)?;
    let mut updated: BTreeSet<SwitchId> = BTreeSet::new();
    let mut pending: BTreeSet<SwitchId> = flow.switches_to_update();
    let mut rounds = Vec::new();
    while !pending.is_empty() {
        let mut round: BTreeSet<SwitchId> = BTreeSet::new();
        for &v in &pending {
            round.insert(v);
            if !round_is_loop_free(flow, &updated, &round) {
                round.remove(&v);
            }
        }
        if round.is_empty() {
            return Err(ScheduleError::Infeasible {
                blocked: pending.iter().next().copied(),
                reason: "no switch can be updated loop-free".into(),
            });
        }
        for &v in &round {
            pending.remove(&v);
            updated.insert(v);
        }
        rounds.push(round.into_iter().collect());
    }
    Ok(OrOutcome {
        rounds,
        exact: false,
    })
}

/// Exact minimum-round OR plan by iterative-deepening branch and bound
/// (the paper's method), falling back to the greedy plan when the
/// budget expires. Minimizing rounds is NP-hard \[15\], so the budget
/// matters on large pending sets — exactly the effect Fig. 10 shows.
pub fn or_rounds(instance: &UpdateInstance, cfg: OrConfig) -> Result<OrOutcome, ScheduleError> {
    let _span = chronus_trace::span!("baselines.or_rounds", flows = instance.flows.len()).entered();
    let flow = single_flow(instance)?;
    let pending: Vec<SwitchId> = flow.switches_to_update().into_iter().collect();
    if pending.is_empty() {
        return Ok(OrOutcome {
            rounds: Vec::new(),
            exact: true,
        });
    }
    let greedy = or_rounds_greedy(instance)?;
    let ub = greedy.round_count();
    if pending.len() > 62 {
        // Bitmask state does not fit a u64; the exact search could
        // not finish anyway, so hand back the greedy plan.
        return Ok(greedy);
    }
    let deadline = Instant::now() + cfg.budget;

    // Iterative deepening on the round count.
    for target in 1..ub {
        let mut seen: HashSet<(usize, u64)> = HashSet::new();
        match search_rounds(
            flow,
            &pending,
            &mut Vec::new(),
            0,
            target,
            deadline,
            &mut seen,
        ) {
            SearchOutcome::Found(rounds) => {
                return Ok(OrOutcome {
                    rounds,
                    exact: true,
                })
            }
            SearchOutcome::Exhausted => continue,
            SearchOutcome::TimedOut => return Ok(greedy),
        }
    }
    // Greedy already optimal (or proven so by exhausting < ub).
    Ok(OrOutcome {
        rounds: greedy.rounds,
        exact: true,
    })
}

enum SearchOutcome {
    Found(Vec<Vec<SwitchId>>),
    Exhausted,
    TimedOut,
}

fn search_rounds(
    flow: &Flow,
    pending: &[SwitchId],
    chosen: &mut Vec<Vec<SwitchId>>,
    done_mask: u64,
    rounds_left: usize,
    deadline: Instant,
    seen: &mut HashSet<(usize, u64)>,
) -> SearchOutcome {
    let full = (1u64 << pending.len()) - 1;
    if done_mask == full {
        return SearchOutcome::Found(chosen.clone());
    }
    if rounds_left == 0 {
        return SearchOutcome::Exhausted;
    }
    if Instant::now() > deadline {
        return SearchOutcome::TimedOut;
    }
    if !seen.insert((rounds_left, done_mask)) {
        return SearchOutcome::Exhausted;
    }
    let updated: BTreeSet<SwitchId> = pending
        .iter()
        .enumerate()
        .filter(|&(i, _)| done_mask & (1 << i) != 0)
        .map(|(_, &v)| v)
        .collect();
    let rest: Vec<usize> = (0..pending.len())
        .filter(|i| done_mask & (1 << i) == 0)
        .collect();

    // Enumerate non-empty subsets of `rest`, descending — high masks
    // tend to be larger subsets, which finish in fewer rounds. The
    // enumeration itself is 2^|rest|, so the deadline is re-checked
    // periodically inside the loop (this is the exponential blow-up
    // that makes OR time out at scale in Fig. 10).
    let total = 1u64 << rest.len().min(62);
    let mut iterations = 0u64;
    for bits in (1..total).rev() {
        iterations += 1;
        if iterations.is_multiple_of(4096) && Instant::now() > deadline {
            return SearchOutcome::TimedOut;
        }
        let candidate: BTreeSet<SwitchId> = rest
            .iter()
            .enumerate()
            .filter(|&(j, _)| bits & (1 << j) != 0)
            .map(|(_, &i)| pending[i])
            .collect();
        // Quick necessary bound: must be able to finish in time.
        let remaining_after = rest.len() - candidate.len();
        if remaining_after > 0 && rounds_left == 1 {
            continue;
        }
        if !round_is_loop_free(flow, &updated, &candidate) {
            continue;
        }
        let mut new_mask = done_mask;
        for (j, &i) in rest.iter().enumerate() {
            if bits & (1 << j) != 0 {
                new_mask |= 1 << i;
            }
        }
        chosen.push(candidate.iter().copied().collect());
        match search_rounds(
            flow,
            pending,
            chosen,
            new_mask,
            rounds_left - 1,
            deadline,
            seen,
        ) {
            SearchOutcome::Exhausted => {
                chosen.pop();
            }
            other => return other,
        }
    }
    SearchOutcome::Exhausted
}

fn single_flow(instance: &UpdateInstance) -> Result<&Flow, ScheduleError> {
    if instance.flows.len() != 1 {
        return Err(ScheduleError::Infeasible {
            blocked: None,
            reason: "OR baseline is defined per flow".into(),
        });
    }
    Ok(&instance.flows[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronus_net::motivating_example;
    use chronus_timenet::FluidSimulator;
    use rand::SeedableRng;

    fn sid(i: u32) -> SwitchId {
        SwitchId(i)
    }

    #[test]
    fn greedy_rounds_cover_all_switches_loop_free() {
        let inst = motivating_example();
        let out = or_rounds_greedy(&inst).unwrap();
        let all: BTreeSet<SwitchId> = out.rounds.iter().flatten().copied().collect();
        assert_eq!(all, inst.flow().switches_to_update());
        // Every prefix of rounds must be loop-free as a set sequence.
        let mut updated = BTreeSet::new();
        for round in &out.rounds {
            let cand: BTreeSet<SwitchId> = round.iter().copied().collect();
            assert!(round_is_loop_free(inst.flow(), &updated, &cand));
            updated.extend(cand);
        }
    }

    #[test]
    fn exact_never_worse_than_greedy() {
        let inst = motivating_example();
        let greedy = or_rounds_greedy(&inst).unwrap();
        let exact = or_rounds(&inst, OrConfig::default()).unwrap();
        assert!(exact.round_count() <= greedy.round_count());
        assert!(exact.exact);
        let all: BTreeSet<SwitchId> = exact.rounds.iter().flatten().copied().collect();
        assert_eq!(all, inst.flow().switches_to_update());
    }

    #[test]
    fn motivating_example_needs_multiple_rounds() {
        // Updating everything at once admits interleavings with loops
        // (paper Fig. 2a), so at least two rounds are required.
        let inst = motivating_example();
        let exact = or_rounds(&inst, OrConfig::default()).unwrap();
        assert!(exact.round_count() >= 2, "rounds: {:?}", exact.rounds);
    }

    #[test]
    fn round_condition_rejects_v3_v4_together_initially() {
        let inst = motivating_example();
        let flow = inst.flow();
        let updated = BTreeSet::new();
        // v3 and v4 both in flight: interleaving "v4 first" creates
        // the v3 ⇄ v4 bounce.
        let cand: BTreeSet<SwitchId> = [sid(2), sid(3)].into();
        assert!(!round_is_loop_free(flow, &updated, &cand));
        // v2 alone is fine.
        let cand: BTreeSet<SwitchId> = [sid(1)].into();
        assert!(round_is_loop_free(flow, &updated, &cand));
    }

    #[test]
    fn execute_respects_rounds_and_barriers() {
        let inst = motivating_example();
        let out = or_rounds(&inst, OrConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let schedule = out.execute(inst.flow(), (0, 3), &mut rng);
        assert_eq!(
            schedule.len(),
            inst.flow().switches_to_update().len(),
            "every switch lands"
        );
        // Later rounds must start strictly after the previous round's
        // latest landing.
        let mut prev_latest: Option<TimeStep> = None;
        for round in &out.rounds {
            let times: Vec<TimeStep> = round
                .iter()
                .map(|&v| schedule.get(inst.flow().id, v).unwrap())
                .collect();
            let earliest = *times.iter().min().unwrap();
            if let Some(pl) = prev_latest {
                assert!(earliest > pl, "barrier violated");
            }
            prev_latest = Some(*times.iter().max().unwrap());
        }
    }

    #[test]
    fn or_execution_is_loop_free_but_can_congest() {
        // The defining property: OR avoids loops by construction but
        // ignores capacities — on the motivating example (unit
        // capacities) some latency draws congest.
        let inst = motivating_example();
        let out = or_rounds(&inst, OrConfig::default()).unwrap();
        let mut congested = 0;
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let schedule = out.execute(inst.flow(), (0, 4), &mut rng);
            let report = FluidSimulator::check(&inst, &schedule);
            assert!(report.loop_free(), "OR guarantees loop freedom: {report}");
            if !report.congestion_free() {
                congested += 1;
            }
        }
        assert!(
            congested > 0,
            "OR must congest for some interleavings on unit capacities"
        );
    }

    #[test]
    fn empty_update_set_is_zero_rounds() {
        use chronus_net::{Flow, FlowId, NetworkBuilder, Path};
        let mut b = NetworkBuilder::with_switches(3);
        b.add_link(sid(0), sid(1), 1, 1).unwrap();
        b.add_link(sid(1), sid(2), 1, 1).unwrap();
        let p = Path::new(vec![sid(0), sid(1), sid(2)]);
        let flow = Flow::new(FlowId(0), 1, p.clone(), p).unwrap();
        let inst = UpdateInstance::single(b.build(), flow).unwrap();
        let out = or_rounds(&inst, OrConfig::default()).unwrap();
        assert_eq!(out.round_count(), 0);
    }
}
