//! **Algorithm 1** — checking whether a congestion- and loop-free
//! timed update sequence exists at all.
//!
//! The paper's tree algorithm walks the union of `p_init` (solid) and
//! `p_fin` (dashed) as a binary tree rooted at the destination and
//! repeatedly updates switches whose dashed edge crosses from the
//! branch currently carrying flow to the other branch. Each crossing
//! is admissible when either
//!
//! 1. the contended segment `Λ` can hold both streams
//!    (`Λ.cons ≥ 2d`), or
//! 2. the new route into the merge point is no faster than the old
//!    one (`φ(p) ≥ φ(q)`), so the new stream arrives only after the
//!    old one has drained.
//!
//! Theorem 2 proves the resulting check exact for identical link
//! delays — its key insight being that if a crossing is infeasible
//! *now*, waiting cannot fix it, because the relative offset between
//! the old and new stream is fixed by path delays, not by the update
//! time.
//!
//! This module implements the algorithm in three layers:
//!
//! - [`crossings`] extracts the dashed detours of `p_fin` relative to
//!   `p_init` together with their `φ`/`Λ.cons` quantities (the data
//!   the paper's conditions inspect);
//! - [`quick_infeasible`] applies the paper's Case-1 argument to
//!   detours that provably cannot ever be scheduled;
//! - [`check_feasibility`] gives the full decision: after
//!   [`quick_infeasible`], a memoized depth-first search over update
//!   orders (each candidate verified by the exact simulator, waiting
//!   up to one full drain period) either finds a witness schedule or
//!   exhausts the orders. It neither consults the greedy scheduler nor
//!   certifies its witness: callers that ship the witness seal it
//!   themselves, as the engine does.
// The search operates on per-switch order vectors whose indices come
// from the instance's update items; `expect` unwraps search-stack
// invariants (a popped frame always has a live parent).
#![allow(clippy::indexing_slicing, clippy::expect_used)]

use crate::MutpProblem;
use chronus_net::{Capacity, Delay, Flow, SwitchId, TimeStep, UpdateInstance};
use chronus_timenet::{FluidSimulator, Schedule, SimulatorConfig, Verdict};
use std::collections::HashSet;

/// One dashed detour of the final path relative to the initial path:
/// the flow leaves `p_init` at `diverge`, travels `detour` (interior
/// switches off the old path), and re-enters the old path at `merge`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Crossing {
    /// Last shared switch before the detour.
    pub diverge: SwitchId,
    /// First old-path switch the detour rejoins, or the destination.
    pub merge: SwitchId,
    /// Interior detour switches (possibly empty for a direct jump).
    pub interior: Vec<SwitchId>,
    /// `φ(p)`: delay of the new route from `diverge` to `merge`.
    pub phi_new: Delay,
    /// `φ(q)`: delay of the old route from `diverge` to `merge`, if
    /// `merge` lies downstream of `diverge` on the old path (a
    /// "forward" detour); `None` for backward merges.
    pub phi_old: Option<Delay>,
    /// `Λ.cons`: the bottleneck capacity of the old path from `merge`
    /// onward — the segment both streams would share.
    pub cons: Capacity,
}

impl Crossing {
    /// The paper's admissibility test for this crossing: the shared
    /// segment holds both streams, or the new route is no faster.
    pub fn admissible(&self, demand: Capacity) -> bool {
        // `cons / 2 ≥ d` is `cons ≥ 2d` for unsigned integers, without
        // the overflow of `2 * demand`.
        if self.cons / 2 >= demand {
            return true;
        }
        match self.phi_old {
            Some(q) => self.phi_new >= q,
            // Backward merges are resolved by update ordering (the
            // merge switch updates first); no delay condition applies.
            None => true,
        }
    }
}

/// Extracts all crossings (detours) of `flow.fin` relative to
/// `flow.initial`.
pub fn crossings(instance: &UpdateInstance, flow: &Flow) -> Vec<Crossing> {
    let net = &instance.network;
    let fin = flow.fin.hops();
    let mut out = Vec::new();
    let mut i = 0;
    while i < fin.len() {
        let on_old = flow.initial.contains(fin[i]);
        if !on_old {
            i += 1;
            continue;
        }
        // fin[i] is on the old path; find the next fin hop on the old
        // path. Everything between is a detour (possibly empty if the
        // next hop differs from the old next hop).
        let mut j = i + 1;
        while j < fin.len() && !flow.initial.contains(fin[j]) {
            j += 1;
        }
        if j >= fin.len() {
            break;
        }
        let diverge = fin[i];
        let merge = fin[j];
        // Only a real detour: the new edge sequence must differ from
        // simply following the old path.
        let follows_old = j == i + 1 && flow.initial.next_hop(diverge) == Some(merge);
        if !follows_old {
            let interior: Vec<SwitchId> = fin[i + 1..j].to_vec();
            let phi_new: Delay = fin[i..=j]
                .windows(2)
                .map(|w| net.delay(w[0], w[1]).unwrap_or(0))
                .sum();
            let pos_d = flow.initial.position(diverge).expect("diverge on old path");
            let pos_m = flow.initial.position(merge).expect("merge on old path");
            let phi_old = if pos_m > pos_d {
                let a = flow.initial.prefix_delay(net, diverge).unwrap_or(0);
                let b = flow.initial.prefix_delay(net, merge).unwrap_or(0);
                Some(b - a)
            } else {
                None
            };
            // Λ.cons: bottleneck of the old path from merge onward.
            let cons = flow
                .initial
                .suffix_from(merge)
                .map(|suffix| {
                    suffix
                        .windows(2)
                        .map(|w| net.capacity(w[0], w[1]).unwrap_or(Capacity::MAX))
                        .min()
                        .unwrap_or(Capacity::MAX)
                })
                .unwrap_or(Capacity::MAX);
            out.push(Crossing {
                diverge,
                merge,
                interior,
                phi_new,
                phi_old,
                cons,
            });
        }
        i = j;
    }
    out
}

/// Applies the paper's Case-1 argument: a forward detour whose
/// contended segment cannot hold both streams *and* whose new route is
/// strictly faster than the old one can never be scheduled — if it is
/// infeasible at the current step, it is infeasible at any step
/// (Theorem 2, Case 1). Returns the witness crossing, if any.
///
/// Only detours departing from a switch with no *other* pending
/// upstream cutter are provably doomed; detours deeper in the path may
/// be rescued by updating an upstream switch first, so they are left
/// to the full search.
pub fn quick_infeasible(instance: &UpdateInstance) -> Option<Crossing> {
    for flow in &instance.flows {
        let pending = flow.switches_to_update();
        for c in crossings(instance, flow) {
            if c.admissible(flow.demand) {
                continue;
            }
            // Is there a pending switch strictly upstream of the merge
            // point (other than the diverger) that could cut the old
            // stream first?
            let pos_m = flow
                .initial
                .position(c.merge)
                .expect("merge is on the old path");
            let has_other_cutter = flow.initial.hops()[..pos_m]
                .iter()
                .any(|u| *u != c.diverge && pending.contains(u));
            if !has_other_cutter {
                return Some(c);
            }
        }
    }
    None
}

/// Outcome of [`check_feasibility`].
#[derive(Clone, Debug)]
pub enum Feasibility {
    /// A consistent schedule exists; the simulator-verified witness is
    /// attached (uncertified: the caller seals what it ships).
    Feasible {
        /// The witness schedule.
        schedule: Schedule,
    },
    /// No consistent schedule exists.
    Infeasible {
        /// A crossing that can never be scheduled, when the fast path
        /// found one.
        witness: Option<Crossing>,
    },
    /// The search budget was exhausted before a decision was reached
    /// (only possible on instances with very large pending sets).
    Unknown,
}

impl Feasibility {
    /// `true` for [`Feasibility::Feasible`].
    pub fn is_feasible(&self) -> bool {
        matches!(self, Feasibility::Feasible { .. })
    }

    /// The witness schedule, for [`Feasibility::Feasible`].
    pub fn schedule(&self) -> Option<&Schedule> {
        match self {
            Feasibility::Feasible { schedule } => Some(schedule),
            _ => None,
        }
    }
}

/// Simulator invocations [`check_feasibility`]'s search may spend
/// before giving up with [`Feasibility::Unknown`].
const MAX_SIMULATIONS: usize = 200_000;

/// Decides whether *any* congestion- and loop-free timed update
/// sequence exists for the instance (the question the paper's
/// Algorithm 1 answers), returning a witness schedule when one exists.
pub fn check_feasibility(instance: &UpdateInstance) -> Feasibility {
    // Fast negative path: the paper's delay/capacity conditions.
    if let Some(witness) = quick_infeasible(instance) {
        return Feasibility::Infeasible {
            witness: Some(witness),
        };
    }
    // Memoized DFS over update orders.
    let Ok(problem) = MutpProblem::new(instance) else {
        return Feasibility::Infeasible { witness: None };
    };
    let mut searcher = match Searcher::new(instance, &problem, MAX_SIMULATIONS) {
        Ok(s) => s,
        Err(TooManyPending) => return Feasibility::Unknown,
    };
    match searcher.solve() {
        SearchResult::Found(schedule) => Feasibility::Feasible { schedule },
        SearchResult::Exhausted => Feasibility::Infeasible { witness: None },
        SearchResult::BudgetSpent => Feasibility::Unknown,
    }
}

struct TooManyPending;

enum SearchResult {
    Found(Schedule),
    Exhausted,
    BudgetSpent,
}

/// DFS over update orders: each level picks one pending `(flow,
/// switch)` pair and the earliest time within one drain period at
/// which committing it keeps the partial schedule consistent
/// (verified exactly by the simulator). Failed pending-sets are
/// memoized: after a full drain the data plane depends only on *which*
/// switches updated, not when, so a set that failed once cannot
/// succeed from the stationary state either.
struct Searcher<'a> {
    instance: &'a UpdateInstance,
    sim: FluidSimulator<'a>,
    items: Vec<(usize, SwitchId)>, // (flow index, switch)
    drain: TimeStep,
    budget: usize,
    used: usize,
    // chronus-lint: allow(det-hash) — membership-only memo of failed subset signatures; never iterated
    failed: HashSet<u64>,
    base: Schedule,
}

impl<'a> Searcher<'a> {
    fn new(
        instance: &'a UpdateInstance,
        problem: &MutpProblem<'a>,
        budget: usize,
    ) -> Result<Self, TooManyPending> {
        let mut items = Vec::new();
        let mut base = Schedule::new();
        for (fi, flow) in instance.flows.iter().enumerate() {
            // Fresh switches activate at step 0 unconditionally (they
            // carry no flow until an upstream diverger updates).
            let fresh = problem.fresh_switches(fi);
            for v in &fresh {
                base.set(flow.id, *v, 0);
            }
            for &v in problem.pending(fi) {
                if !fresh.contains(&v) {
                    items.push((fi, v));
                }
            }
        }
        if items.len() > 63 {
            return Err(TooManyPending);
        }
        let sim_cfg = SimulatorConfig {
            record_loads: false,
        };
        Ok(Searcher {
            instance,
            sim: FluidSimulator::with_config(instance, sim_cfg),
            items,
            drain: problem.drain_bound(),
            budget,
            used: 0,
            // chronus-lint: allow(det-hash) — membership-only memo, see field declaration
            failed: HashSet::new(),
            base: base.clone(),
        })
    }

    fn solve(&mut self) -> SearchResult {
        let full: u64 = if self.items.is_empty() {
            0
        } else {
            (1u64 << self.items.len()) - 1
        };
        let mut schedule = self.base.clone();
        match self.dfs(full, &mut schedule, 0) {
            Some(true) => SearchResult::Found(schedule),
            Some(false) => SearchResult::Exhausted,
            None => SearchResult::BudgetSpent,
        }
    }

    /// Returns `Some(true)` on success (schedule filled in),
    /// `Some(false)` if this subtree is exhausted, `None` on budget
    /// exhaustion.
    fn dfs(&mut self, mask: u64, schedule: &mut Schedule, t0: TimeStep) -> Option<bool> {
        if mask == 0 {
            return Some(true);
        }
        if self.failed.contains(&mask) {
            return Some(false);
        }
        let mut bits = mask;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let (fi, v) = self.items[i];
            let flow_id = self.instance.flows[fi].id;
            for t in t0..=t0 + self.drain {
                if self.used >= self.budget {
                    return None;
                }
                self.used += 1;
                schedule.set(flow_id, v, t);
                let clean = self.sim.run(schedule).verdict() == Verdict::Consistent;
                if clean {
                    match self.dfs(mask & !(1 << i), schedule, t) {
                        Some(true) => return Some(true),
                        Some(false) => {}
                        None => {
                            schedule.unset(flow_id, v);
                            return None;
                        }
                    }
                }
                schedule.unset(flow_id, v);
            }
        }
        self.failed.insert(mask);
        Some(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronus_net::{motivating_example, Flow, FlowId, NetworkBuilder, Path};

    fn sid(i: u32) -> SwitchId {
        SwitchId(i)
    }

    fn shared_tail(shortcut_delay: u64) -> UpdateInstance {
        shared_tail_with(shortcut_delay, 1, 1)
    }

    /// Old path 0→1→2→3 (unit delays), new path 0→2→3 over a shortcut
    /// of `shortcut_delay`; every link has capacity `capacity`.
    fn shared_tail_with(
        shortcut_delay: u64,
        capacity: Capacity,
        demand: Capacity,
    ) -> UpdateInstance {
        let mut b = NetworkBuilder::with_switches(4);
        b.add_link(sid(0), sid(1), capacity, 1).unwrap();
        b.add_link(sid(1), sid(2), capacity, 1).unwrap();
        b.add_link(sid(2), sid(3), capacity, 1).unwrap();
        b.add_link(sid(0), sid(2), capacity, shortcut_delay)
            .unwrap();
        let flow = Flow::new(
            FlowId(0),
            demand,
            Path::new(vec![sid(0), sid(1), sid(2), sid(3)]),
            Path::new(vec![sid(0), sid(2), sid(3)]),
        )
        .unwrap();
        UpdateInstance::single(b.build(), flow).unwrap()
    }

    #[test]
    fn crossings_extracts_forward_detour() {
        let inst = shared_tail(3);
        let cs = crossings(&inst, inst.flow());
        assert_eq!(cs.len(), 1);
        let c = &cs[0];
        assert_eq!(c.diverge, sid(0));
        assert_eq!(c.merge, sid(2));
        assert!(c.interior.is_empty());
        assert_eq!(c.phi_new, 3);
        assert_eq!(c.phi_old, Some(2));
        assert_eq!(c.cons, 1);
        assert!(c.admissible(1), "slow detour satisfies phi condition");
    }

    #[test]
    fn crossings_on_motivating_example() {
        let inst = motivating_example();
        let cs = crossings(&inst, inst.flow());
        // New path v1→v4→v3→v2→v6 vs old v1→…→v6: v1 jumps forward to
        // v4 (detour 1), then v4→v3, v3→v2 are backward jumps along
        // the old path, then v2→v6 jumps to the destination.
        assert!(!cs.is_empty());
        let first = &cs[0];
        assert_eq!(first.diverge, sid(0));
        assert_eq!(first.merge, sid(3));
        assert_eq!(first.phi_old, Some(3));
        assert_eq!(first.phi_new, 1);
        // Fast-forward jump over a capacity-1 segment: not admissible
        // by delay, needs an ordering rescue (update v2/v3 first).
        assert!(!first.admissible(1));
        // Backward merges have no phi_old.
        assert!(cs.iter().any(|c| c.phi_old.is_none()));
    }

    #[test]
    fn quick_infeasible_flags_fast_shortcut() {
        let inst = shared_tail(1);
        let w = quick_infeasible(&inst).expect("fast shortcut is doomed");
        assert_eq!(w.diverge, sid(0));
        assert_eq!(w.merge, sid(2));
        assert!(quick_infeasible(&shared_tail(2)).is_none());
        assert!(quick_infeasible(&shared_tail(3)).is_none());
    }

    #[test]
    fn quick_infeasible_spares_rescuable_detours() {
        // The motivating example's v1 crossing is inadmissible but v2
        // and v3 upstream of the merge can cut the stream: not doomed.
        let inst = motivating_example();
        assert!(quick_infeasible(&inst).is_none());
    }

    #[test]
    fn feasibility_decisions() {
        assert!(check_feasibility(&shared_tail(3)).is_feasible());
        assert!(check_feasibility(&shared_tail(2)).is_feasible());
        match check_feasibility(&shared_tail(1)) {
            Feasibility::Infeasible { witness } => {
                assert!(witness.is_some());
            }
            other => panic!("expected infeasible, got {other:?}"),
        }
        let inst = motivating_example();
        match check_feasibility(&inst) {
            Feasibility::Feasible { schedule } => {
                let report = FluidSimulator::check(&inst, &schedule);
                assert_eq!(report.verdict(), Verdict::Consistent, "{report}");
                // The independent certifier agrees with the search.
                let certificate = chronus_verify::certify(&inst, &schedule).expect("certifies");
                assert_eq!(certificate.check(&inst), Ok(()));
            }
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn witness_schedules_are_always_verified() {
        // Equal-delay variant: phi_new == phi_old is admissible (the
        // new stream arrives exactly as the old one ends).
        let inst = shared_tail(2);
        if let Feasibility::Feasible { schedule } = check_feasibility(&inst) {
            let report = FluidSimulator::check(&inst, &schedule);
            assert_eq!(report.verdict(), Verdict::Consistent, "{report}");
            assert!(chronus_verify::certify(&inst, &schedule).is_ok());
        } else {
            panic!("equal-delay shortcut should be feasible");
        }
    }

    #[test]
    fn admissibility_survives_demands_past_half_the_range() {
        // `2 * demand` does not fit in a `Capacity`: the capacity test
        // must answer "cannot hold both streams" and leave the
        // decision to the φ condition.
        let demand = Capacity::MAX / 2 + 1;
        for (shortcut_delay, admissible) in [(1, false), (2, true), (3, true)] {
            let inst = shared_tail_with(shortcut_delay, Capacity::MAX, demand);
            let cs = crossings(&inst, inst.flow());
            assert_eq!(cs.len(), 1);
            assert_eq!(cs[0].cons, Capacity::MAX);
            assert_eq!(
                cs[0].admissible(demand),
                admissible,
                "φ(p) = {shortcut_delay}"
            );
            assert_eq!(quick_infeasible(&inst).is_some(), !admissible);
        }
        // Half the range still fits twice.
        let inst = shared_tail_with(1, Capacity::MAX, Capacity::MAX / 2);
        assert!(crossings(&inst, inst.flow())[0].admissible(Capacity::MAX / 2));
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        let inst = motivating_example();
        let problem = MutpProblem::new(&inst).unwrap();
        let mut searcher = match Searcher::new(&inst, &problem, 1) {
            Ok(s) => s,
            Err(_) => panic!("fits"),
        };
        assert!(matches!(searcher.solve(), SearchResult::BudgetSpent));
    }
}
