//! **Algorithm 3** — the dependency relation set `O_t`.
//!
//! For every pending switch `v_i`, Algorithm 3 asks: if `v_i` were
//! updated at the current step `t`, the redirected flow would arrive at
//! `v = v_i`'s new next-hop; if old flow is *still* streaming through
//! `v` onto its old outgoing link `⟨v, ṽ⟩` at that moment, and the
//! link cannot hold both streams (`C(v, ṽ) < 2d`), then some upstream
//! switch must be updated first to cut the old stream — a dependency
//! `(u → v_i)`. Dependencies sharing switches merge into chains (the
//! paper merges `{v1 → v2}` and `{v2 → v3}` into `{v1 → v2 → v3}`);
//! only chain heads may be updated at `t`. A cycle in the relation
//! means no congestion-free order exists at this step.
//!
//! Whether old flow still reaches `v` is read off the time-extended
//! network: a cohort emitted at `τ` follows the old path into `v` iff
//! it passes every upstream old-path switch before that switch's
//! update time. [`last_old_arrival`] computes the resulting cutoff
//! exactly, respecting the partial schedule.
// Dependency analysis walks dense per-switch tables indexed by ids
// minted from the instance's own path hops; `expect` unwraps
// invariants the builder just established.
#![allow(clippy::indexing_slicing, clippy::expect_used)]

use chronus_net::{Flow, SwitchId, TimeStep, UpdateInstance};
use chronus_timenet::Schedule;
use std::collections::{BTreeMap, BTreeSet};

/// Until when does old-path flow keep *arriving at* switch `v`?
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArrivalBound {
    /// Old flow never crosses `v` (it is not an interior old-path hop).
    Never,
    /// Old flow arrives at `v` at every step `≤ t`, none after.
    Until(TimeStep),
    /// No upstream diversion is scheduled: old flow arrives forever.
    Forever,
}

impl ArrivalBound {
    /// `true` if old flow still arrives at step `t` or later.
    pub fn still_arrives_at(self, t: TimeStep) -> bool {
        match self {
            ArrivalBound::Never => false,
            ArrivalBound::Until(last) => t <= last,
            ArrivalBound::Forever => true,
        }
    }
}

/// Computes the last step at which old-path flow arrives at `v`,
/// given the updates committed in `schedule`.
///
/// A cohort emitted at `τ` reaches `v` along the old path iff for
/// every upstream old-path switch `u` (source included) with a
/// *diverting* scheduled update at `t_u`, the cohort passes `u` before
/// `t_u`: `τ + φ_prefix(u) < t_u`. The cutoff emission is therefore
/// `min_u (t_u − φ_prefix(u)) − 1`, and the last arrival at `v` is the
/// cutoff plus `φ_prefix(v)`.
pub fn last_old_arrival(
    instance: &UpdateInstance,
    flow: &Flow,
    schedule: &Schedule,
    v: SwitchId,
) -> ArrivalBound {
    let net = &instance.network;
    let Some(pos) = flow.initial.position(v) else {
        return ArrivalBound::Never;
    };
    if pos == 0 {
        // `v` is the source: flow originates here rather than arriving.
        return ArrivalBound::Never;
    }
    let prefix_v = flow
        .initial
        .prefix_delay(net, v)
        .expect("validated old path has prefix delays") as TimeStep;

    let mut cutoff: Option<TimeStep> = None; // min over upstream diverters
    for &u in &flow.initial.hops()[..pos] {
        // Only switches whose scheduled update actually changes their
        // forwarding divert the stream.
        let diverts = flow.new_rule(u).is_some() && flow.new_rule(u) != flow.old_rule(u);
        if !diverts {
            continue;
        }
        if let Some(t_u) = schedule.get(flow.id, u) {
            let prefix_u =
                flow.initial
                    .prefix_delay(net, u)
                    .expect("validated old path has prefix delays") as TimeStep;
            let bound = t_u - prefix_u;
            cutoff = Some(cutoff.map_or(bound, |c| c.min(bound)));
        }
    }
    match cutoff {
        None => ArrivalBound::Forever,
        Some(c) => ArrivalBound::Until(c - 1 + prefix_v),
    }
}

/// The dependency relation set `O_t` of Algorithm 3.
#[derive(Clone, Debug, Default)]
pub struct DependencySet {
    /// Raw dependency edges `(u, w)`: `u` must update before `w`.
    pub edges: Vec<(SwitchId, SwitchId)>,
    /// Merged chains/components, each topologically ordered; pending
    /// switches without constraints appear as singleton chains (the
    /// paper's `{(v4)}`).
    pub chains: Vec<Vec<SwitchId>>,
    /// A witness cycle if the relation is cyclic (update order
    /// impossible at this step).
    pub cycle: Option<Vec<SwitchId>>,
}

impl DependencySet {
    /// The updatable switches at this step: the head (first element)
    /// of every acyclic chain — "Pick the first element v̂ from o"
    /// (Algorithm 2 line 10). For a component that is a DAG rather
    /// than a pure chain, every zero-in-degree switch is a head.
    pub fn heads(&self) -> Vec<SwitchId> {
        let blocked: BTreeSet<SwitchId> = self.edges.iter().map(|&(_, w)| w).collect();
        let mut out = Vec::new();
        for chain in &self.chains {
            for &v in chain {
                if !blocked.contains(&v) {
                    out.push(v);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Builds the dependency relation set for `flow` at step `t`
/// (Algorithm 3), given committed updates in `schedule` and the
/// not-yet-updated switches in `pending`.
pub fn dependency_set(
    instance: &UpdateInstance,
    flow: &Flow,
    schedule: &Schedule,
    pending: &BTreeSet<SwitchId>,
    t: TimeStep,
) -> DependencySet {
    let net = &instance.network;
    let mut edges: Vec<(SwitchId, SwitchId)> = Vec::new();

    for &vi in pending {
        // Updating v_i only matters while flow still reaches v_i: the
        // source always emits, any other switch is relevant only while
        // old flow keeps arriving (cohorts arriving from step t on are
        // the ones the update redirects).
        let redirect_active = vi == flow.source()
            || last_old_arrival(instance, flow, schedule, vi).still_arrives_at(t);
        if !redirect_active {
            continue;
        }
        let Some(v) = flow.new_rule(vi) else {
            continue; // no dashed out-edge: nothing to redirect
        };
        if v == flow.destination() {
            continue; // flow terminates at v: no downstream contention
        }
        let Some(v_tilde) = flow.old_rule(v) else {
            continue; // v has no old outgoing link: no old stream at v
        };
        let Some(capacity) = net.capacity(v, v_tilde) else {
            continue;
        };
        if capacity >= 2 * flow.demand {
            continue; // link can hold old and new stream simultaneously
        }
        // When would the redirected flow arrive at v?
        let sigma = net.delay(vi, v).unwrap_or(1) as TimeStep;
        let arrival = t + sigma;
        // Is old flow still streaming through v at that point?
        if !last_old_arrival(instance, flow, schedule, v).still_arrives_at(arrival) {
            continue; // already drained: no dependency
        }
        // Some pending switch upstream of v on the old path must cut
        // the stream first. The nearest pending upstream switch is the
        // dependency head; if the only candidate is v_i itself, the
        // relation becomes the self-cycle (v_i → v_i), signalling that
        // no ordering fixes the contention at this step.
        let pos_v = flow
            .initial
            .position(v)
            .expect("v has an old rule, so it lies on the old path");
        let upstream_pending: Vec<SwitchId> = flow.initial.hops()[..pos_v]
            .iter()
            .copied()
            .filter(|u| pending.contains(u))
            .collect();
        if let Some(&nearest) = upstream_pending.iter().rev().find(|&&u| u != vi) {
            edges.push((nearest, vi));
        } else if upstream_pending.contains(&vi) {
            // Only v_i itself can cut the stream; updating v_i is what
            // creates the new stream, so the contention is ordered by
            // the delay comparison of Algorithm 1 instead. If the new
            // detour is faster than the old route, the two streams
            // overlap whatever we do: record the self-dependency.
            let phi_new = net.delay(vi, v).unwrap_or(0) as TimeStep;
            let pos_vi = flow.initial.position(vi);
            let phi_old = match pos_vi {
                Some(p) if p < pos_v => {
                    let a = flow.initial.prefix_delay(net, vi).unwrap_or(0);
                    let b = flow.initial.prefix_delay(net, v).unwrap_or(0);
                    (b - a) as TimeStep
                }
                _ => TimeStep::MAX,
            };
            if phi_new < phi_old {
                edges.push((vi, vi));
            }
        }
    }

    build_set(edges, pending)
}

/// Merges raw edges into chains and detects cycles (the paper's
/// "merge the dependency relation set with the common element").
/// Shared with the flat scan in [`crate::scan`], which produces the
/// same edge list from dense tables — chain construction is therefore
/// byte-identical between the two scan paths by construction.
pub(crate) fn build_set(
    edges: Vec<(SwitchId, SwitchId)>,
    pending: &BTreeSet<SwitchId>,
) -> DependencySet {
    // Union-find over involved switches to group components.
    let involved: BTreeSet<SwitchId> = edges
        .iter()
        .flat_map(|&(a, b)| [a, b])
        .chain(pending.iter().copied())
        .collect();
    let idx: BTreeMap<SwitchId, usize> = involved
        .iter()
        .copied()
        .enumerate()
        .map(|(i, v)| (v, i))
        .collect();
    let nodes: Vec<SwitchId> = involved.iter().copied().collect();
    let n = nodes.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let r = find(parent, parent[x]);
            parent[x] = r;
        }
        parent[x]
    }
    for &(a, b) in &edges {
        let (ra, rb) = (find(&mut parent, idx[&a]), find(&mut parent, idx[&b]));
        if ra != rb {
            parent[ra] = rb;
        }
    }

    // Per-component topological sort (Kahn); leftovers mean a cycle.
    // Components that *are* cyclic are reported as a witness but do
    // not stop the other components from producing usable chains —
    // their contention typically resolves at a later step once flow
    // drains (the greedy loop re-runs Algorithm 3 every step).
    let mut adj: BTreeMap<SwitchId, Vec<SwitchId>> = BTreeMap::new();
    let mut indeg: BTreeMap<SwitchId, usize> = involved.iter().map(|&v| (v, 0)).collect();
    let mut cycle_members: Vec<SwitchId> = Vec::new();
    for &(a, b) in &edges {
        if a == b {
            cycle_members.push(a);
            continue;
        }
        adj.entry(a).or_default().push(b);
        *indeg.get_mut(&b).expect("b is involved") += 1;
    }

    let mut comp_members: BTreeMap<usize, Vec<SwitchId>> = BTreeMap::new();
    for &v in &nodes {
        let root = find(&mut parent, idx[&v]);
        comp_members.entry(root).or_default().push(v);
    }

    let mut chains = Vec::new();
    for (_, members) in comp_members {
        if members.iter().any(|v| cycle_members.contains(v)) {
            continue; // component already known cyclic via a self-loop
        }
        let mut local_indeg: BTreeMap<SwitchId, usize> =
            members.iter().map(|&v| (v, indeg[&v])).collect();
        let mut queue: Vec<SwitchId> = members
            .iter()
            .copied()
            .filter(|v| local_indeg[v] == 0)
            .collect();
        let mut order = Vec::new();
        while let Some(v) = queue.pop() {
            order.push(v);
            for &w in adj.get(&v).into_iter().flatten() {
                let d = local_indeg.get_mut(&w).expect("w in component");
                *d -= 1;
                if *d == 0 {
                    queue.push(w);
                }
            }
        }
        if order.len() != members.len() {
            cycle_members.extend(members.iter().copied().filter(|v| !order.contains(v)));
        } else {
            chains.push(order);
        }
    }
    chains.sort();
    cycle_members.sort_unstable();
    cycle_members.dedup();
    DependencySet {
        edges,
        chains,
        cycle: if cycle_members.is_empty() {
            None
        } else {
            Some(cycle_members)
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronus_net::{motivating_example, Flow, FlowId, NetworkBuilder, Path};

    fn sid(i: u32) -> SwitchId {
        SwitchId(i)
    }

    fn pending_of(flow: &Flow) -> BTreeSet<SwitchId> {
        flow.switches_to_update()
    }

    #[test]
    fn arrival_bound_semantics() {
        assert!(!ArrivalBound::Never.still_arrives_at(0));
        assert!(ArrivalBound::Until(3).still_arrives_at(3));
        assert!(!ArrivalBound::Until(3).still_arrives_at(4));
        assert!(ArrivalBound::Forever.still_arrives_at(1_000_000));
    }

    #[test]
    fn last_old_arrival_unscheduled_is_forever() {
        let inst = motivating_example();
        let flow = inst.flow().clone();
        let s = Schedule::new();
        // v4 (id 3) keeps receiving old flow while nothing upstream is
        // scheduled.
        assert_eq!(
            last_old_arrival(&inst, &flow, &s, sid(3)),
            ArrivalBound::Forever
        );
        // The source never "receives" old flow.
        assert_eq!(
            last_old_arrival(&inst, &flow, &s, sid(0)),
            ArrivalBound::Never
        );
        // v6 off the old path? v6 is the destination and on the path —
        // it receives flow forever too until an upstream cut.
        assert_eq!(
            last_old_arrival(&inst, &flow, &s, sid(5)),
            ArrivalBound::Forever
        );
    }

    #[test]
    fn last_old_arrival_respects_upstream_cut() {
        let inst = motivating_example();
        let flow = inst.flow().clone();
        let mut s = Schedule::new();
        // Cut at v2 (id 1, prefix delay 1) at step 4: last cohort that
        // passes v2 on the old rule is emitted at 4 − 1 − 1 = 2, so the
        // last old arrival at v4 (prefix 3) is 2 + 3 = 5.
        s.set(FlowId(0), sid(1), 4);
        assert_eq!(
            last_old_arrival(&inst, &flow, &s, sid(3)),
            ArrivalBound::Until(5)
        );
        // Source cut at step 2 tightens the bound: emissions < 2 reach
        // v4 until 1 + 3 = 4.
        s.set(FlowId(0), sid(0), 2);
        assert_eq!(
            last_old_arrival(&inst, &flow, &s, sid(3)),
            ArrivalBound::Until(4)
        );
    }

    #[test]
    fn motivating_example_dependencies_at_t0() {
        let inst = motivating_example();
        let flow = inst.flow().clone();
        let pending = pending_of(&flow);
        let s = Schedule::new();
        let deps = dependency_set(&inst, &flow, &s, &pending, 0);
        // v2's new edge goes straight to the destination: unconstrained,
        // and it heads the (v2 → v4) chain — only v2 may update at t0,
        // exactly like the paper's Fig. 5 where only v2 updates first.
        assert_eq!(deps.heads(), vec![sid(1)]);
        // v1 is constrained (its redirect lands on v4 which still sees
        // old flow) and v3's constraint points back at v1: at t0 these
        // two form a cycle that only draining can break.
        assert!(
            deps.edges.iter().any(|&(_, w)| w == sid(0)),
            "v1 should be dependent, edges {:?}",
            deps.edges
        );
        let cycle = deps.cycle.clone().expect("v1/v3 mutual wait at t0");
        assert_eq!(cycle, vec![sid(0), sid(2)]);
        // The acyclic component is the chain v2 → v4.
        assert_eq!(deps.chains, vec![vec![sid(1), sid(3)]]);
    }

    #[test]
    fn dependencies_resolve_once_upstream_commits_and_drains() {
        let inst = motivating_example();
        let flow = inst.flow().clone();
        let mut pending = pending_of(&flow);
        let mut s = Schedule::new();
        // Commit v2 at step 0: the old stream into v3/v4 dries up.
        s.set(FlowId(0), sid(1), 0);
        pending.remove(&sid(1));
        // Well after the drain, nothing depends on anything.
        let deps = dependency_set(&inst, &flow, &s, &pending, 10);
        assert!(deps.edges.is_empty(), "edges: {:?}", deps.edges);
        assert_eq!(deps.heads().len(), pending.len());
    }

    #[test]
    fn self_dependency_detects_unfixable_contention() {
        // shared-tail instance with a *fast* shortcut: old 0→1→2→3,
        // new 0→2→3 with σ(0,2)=1 < σ(0→1→2)=2 and C(2,3)=1 < 2d.
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
        let inst = chronus_net::UpdateInstance::single(net, flow.clone()).unwrap();
        let pending = pending_of(&flow);
        let deps = dependency_set(&inst, &flow, &Schedule::new(), &pending, 0);
        assert!(deps.cycle.is_some(), "fast shortcut must self-depend");
        assert_eq!(deps.cycle, Some(vec![sid(0)]));
    }

    #[test]
    fn slow_shortcut_has_no_dependency() {
        // Same topology but σ(0,2)=3 ≥ 2: the new stream arrives after
        // the old drains; no dependency.
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
        let inst = chronus_net::UpdateInstance::single(net, flow.clone()).unwrap();
        let pending = pending_of(&flow);
        let deps = dependency_set(&inst, &flow, &Schedule::new(), &pending, 0);
        assert!(deps.cycle.is_none());
        assert!(deps.edges.is_empty());
        assert_eq!(deps.heads(), vec![sid(0)]);
    }

    #[test]
    fn wide_links_remove_all_dependencies() {
        // Capacity ≥ 2d everywhere: Algorithm 3 finds nothing.
        let mut inst = motivating_example();
        // Rebuild with capacity 2.
        let mut b = NetworkBuilder::with_switches(6);
        for l in inst.network.links() {
            b.add_link(l.src, l.dst, 2, l.delay).unwrap();
        }
        let flow = inst.flow().clone();
        inst = chronus_net::UpdateInstance::single(b.build(), flow.clone()).unwrap();
        let pending = pending_of(&flow);
        let deps = dependency_set(&inst, &flow, &Schedule::new(), &pending, 0);
        assert!(deps.edges.is_empty());
        assert_eq!(deps.heads().len(), pending.len());
    }

    #[test]
    fn chain_merging_produces_topological_chains() {
        let pending: BTreeSet<SwitchId> = [sid(1), sid(2), sid(3), sid(7)].into();
        let set = build_set(vec![(sid(1), sid(2)), (sid(2), sid(3))], &pending);
        assert!(set.cycle.is_none());
        // One merged chain 1 → 2 → 3, one singleton (7).
        assert_eq!(set.chains.len(), 2);
        let big = set.chains.iter().find(|c| c.len() == 3).unwrap();
        assert_eq!(big, &vec![sid(1), sid(2), sid(3)]);
        assert_eq!(set.heads(), vec![sid(1), sid(7)]);
    }

    #[test]
    fn cycle_detection_in_merge() {
        let pending: BTreeSet<SwitchId> = [sid(1), sid(2)].into();
        let set = build_set(vec![(sid(1), sid(2)), (sid(2), sid(1))], &pending);
        assert!(set.cycle.is_some());
        let c = set.cycle.unwrap();
        assert_eq!(c.len(), 2);
    }
}
