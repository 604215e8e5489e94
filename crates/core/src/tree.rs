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
//!   [`quick_infeasible`], the exact search's first-feasible strategy
//!   ([`crate::search`]) walks update orders, each candidate judged by
//!   the incremental simulator and waiting up to one full drain
//!   period, and either finds a witness schedule or exhausts the
//!   orders. [`check_feasibility_within`] is the same decision under a
//!   wall-clock budget, the engine's tree stage passes the request's.
//!   Neither consults the greedy scheduler nor certifies its witness:
//!   callers that ship the witness seal it themselves, as the engine
//!   does.
// Crossing extraction indexes the final path it walks; `expect`
// unwraps positions of switches found on the old path.
#![allow(clippy::indexing_slicing, clippy::expect_used)]

use crate::search::{first_feasible, Search};
use crate::MutpProblem;
use chronus_net::{Capacity, Delay, Flow, SwitchId, UpdateInstance};
use chronus_timenet::{Schedule, SimWorkspace};
use std::time::Duration;

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
    /// The search stopped before a decision: its simulation cap or
    /// its budget ran out, or the instance has more pending updates
    /// than the search holds (63).
    Unknown,
}

/// Decides whether *any* congestion- and loop-free timed update
/// sequence exists for the instance (the question the paper's
/// Algorithm 1 answers), returning a witness schedule when one exists.
pub fn check_feasibility(instance: &UpdateInstance) -> Feasibility {
    check_feasibility_within(instance, Duration::MAX, &mut SimWorkspace::default())
}

/// [`check_feasibility`] within a wall-clock budget: past it the
/// search gives up with [`Feasibility::Unknown`]. Whenever the budget
/// does not run out, the answer is [`check_feasibility`]'s. The search
/// simulates on `workspace`'s buffers and returns them there, so a
/// long-lived caller (the engine) allocates them once.
pub fn check_feasibility_within(
    instance: &UpdateInstance,
    budget: Duration,
    workspace: &mut SimWorkspace,
) -> Feasibility {
    // Fast negative path: the paper's delay/capacity conditions.
    if let Some(witness) = quick_infeasible(instance) {
        return Feasibility::Infeasible {
            witness: Some(witness),
        };
    }
    let Ok(problem) = MutpProblem::new(instance) else {
        return Feasibility::Infeasible { witness: None };
    };
    match first_feasible(&problem, budget, workspace) {
        Search::Found(schedule) => Feasibility::Feasible { schedule },
        Search::Exhausted => Feasibility::Infeasible { witness: None },
        Search::Stopped | Search::TooLarge(_) => Feasibility::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronus_net::{motivating_example, Flow, FlowId, NetworkBuilder, Path};
    use chronus_timenet::{FluidSimulator, Verdict};

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
        for delay in [3, 2] {
            let verdict = check_feasibility(&shared_tail(delay));
            assert!(
                matches!(verdict, Feasibility::Feasible { .. }),
                "{verdict:?}"
            );
        }
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
        // A spent budget stops the search, not the crossing check.
        assert!(matches!(
            check_feasibility_within(&inst, Duration::ZERO, &mut SimWorkspace::default()),
            Feasibility::Unknown
        ));
        assert!(matches!(
            check_feasibility_within(
                &shared_tail(1),
                Duration::ZERO,
                &mut SimWorkspace::default()
            ),
            Feasibility::Infeasible { witness: Some(_) }
        ));
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
}
