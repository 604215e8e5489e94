//! Flat candidate scan: dense per-flow twins of Algorithms 3 and 4.
//!
//! The reference implementations ([`crate::deps::dependency_set`],
//! [`crate::loopcheck::creates_forwarding_loop`]) re-derive everything
//! per candidate from [`chronus_net::Path`] primitives: `position` is
//! a linear hop scan, `prefix_delay` a per-edge hash lookup walk, and
//! both run inside [`crate::deps::last_old_arrival`], once per pending
//! switch per step — O(steps × pending × diverters × path) if the
//! greedy loop called them directly.
//!
//! [`FlowScan`] flattens all of it. At construction (once per greedy
//! run) every path-derived quantity becomes a dense array indexed by
//! switch id or by old-path position. At the start of each flow's
//! turn in a step ([`FlowScan::begin_step`], O(path · log)), the
//! schedule-dependent state is snapshotted:
//!
//! - `divert_bound[p] = t_p − φ_prefix(p)` for each diverting
//!   scheduled position, folded into an *exclusive prefix minimum*
//!   `ex_min`, so [`last_old_arrival`](crate::deps::last_old_arrival)
//!   becomes one O(1) array read;
//! - scheduled times by position, giving Algorithm 4's backward walk
//!   O(1) per hop with zero hash lookups;
//! - the sorted list of pending old-path positions, giving the
//!   "nearest pending upstream switch" a reverse scan over exactly
//!   the pending positions instead of a filter over the whole prefix.
//!
//! The snapshot is sound for the whole candidate-collection phase of
//! one flow's turn because the greedy loop commits candidates only
//! *after* collection: `dependency_set` and every `creates_loop`
//! pre-check read the same schedule state.
//!
//! Edge discovery iterates pending switches in the same ascending
//! order and pushes the same edges as [`crate::deps::dependency_set`],
//! then reuses the identical [`crate::deps::build_set`] merge — so
//! chains, heads and cycle witnesses are byte-identical to the
//! reference, which the differential proptest at the bottom of this
//! file pins across random instances, partial schedules and steps.
// Dense tables indexed by ids this module mints from validated paths.
#![allow(clippy::indexing_slicing, clippy::expect_used)]

use crate::deps::{build_set, ArrivalBound, DependencySet};
use chronus_net::{Flow, SwitchId, TimeStep, UpdateInstance};
use chronus_timenet::Schedule;
use std::collections::BTreeSet;

/// Sentinel for "not on the old path" in [`FlowScan::pos_of`].
const NO_POS: u32 = u32::MAX;

/// Dense per-flow scan tables (see the module docs).
#[derive(Debug)]
pub(crate) struct FlowScan {
    flow_id: chronus_net::FlowId,
    source: SwitchId,
    destination: SwitchId,
    /// Old-path hops in order.
    old_hops: Vec<SwitchId>,
    /// `prefix[p]` = old-path delay from the source to `old_hops[p]`.
    prefix: Vec<TimeStep>,
    /// `link_delay[p]` = delay of the old link `old_hops[p] → [p+1]`.
    link_delay: Vec<TimeStep>,
    /// Does `old_hops[p]` divert (has a new rule ≠ its old rule)?
    diverts: Vec<bool>,
    /// Switch id → old-path position ([`NO_POS`] when absent).
    pos_of: Vec<u32>,
    /// Switch id → the flow's new rule target.
    new_next: Vec<Option<SwitchId>>,
    /// `σ(v, new_next(v))` with the reference's `unwrap_or(1)`
    /// fallback (arrival-time computation in Algorithm 3).
    sigma_new: Vec<TimeStep>,
    /// Same delay with the reference's `unwrap_or(0)` fallback (the
    /// self-cycle φ_new comparison). The two defaults differ in
    /// [`crate::deps::dependency_set`] and must be replicated
    /// independently.
    phi_new0: Vec<TimeStep>,
    /// Switch id → "its old outgoing link exists and cannot hold old
    /// and new stream simultaneously" (`C < 2d`); folds the three
    /// `continue` guards of Algorithm 3 into one flag.
    contended: Vec<bool>,

    // ---- Per-step snapshot (rebuilt by `begin_step`) ----
    /// Scheduled update time by old-path position, diverting positions
    /// only (the only ones either algorithm consults).
    sched_pos: Vec<Option<TimeStep>>,
    /// Exclusive prefix minimum of `t_p − prefix[p]` over diverting
    /// scheduled positions `< p` ([`TimeStep::MAX`] = unbounded).
    ex_min: Vec<TimeStep>,
    /// Ascending old-path positions of currently pending switches.
    pending_pos: Vec<u32>,
}

impl FlowScan {
    /// Builds the dense tables of `flow` (once per greedy run).
    pub fn build(instance: &UpdateInstance, flow: &Flow) -> Self {
        let net = &instance.network;
        let old_hops: Vec<SwitchId> = flow.initial.hops().to_vec();
        let n = old_hops.len();
        let max_id = old_hops
            .iter()
            .chain(flow.fin.hops())
            .map(|s| s.index() + 1)
            .max()
            .unwrap_or(0);
        let width = net.switch_count().max(max_id);

        let mut prefix = vec![0; n];
        let mut link_delay = vec![0; n.saturating_sub(1)];
        for p in 0..n.saturating_sub(1) {
            let d = net
                .delay(old_hops[p], old_hops[p + 1])
                .expect("validated old path links exist") as TimeStep;
            link_delay[p] = d;
            prefix[p + 1] = prefix[p] + d;
        }

        let mut pos_of = vec![NO_POS; width];
        for (p, &h) in old_hops.iter().enumerate() {
            pos_of[h.index()] = p as u32;
        }

        let mut new_next = vec![None; width];
        for w in flow.fin.hops().windows(2) {
            new_next[w[0].index()] = Some(w[1]);
        }
        let mut old_next = vec![None; width];
        for w in old_hops.windows(2) {
            old_next[w[0].index()] = Some(w[1]);
        }

        let diverts = old_hops
            .iter()
            .map(|&h| {
                let nn = new_next[h.index()];
                nn.is_some() && nn != old_next[h.index()]
            })
            .collect();

        let mut sigma_new = vec![0; width];
        let mut phi_new0 = vec![0; width];
        let mut contended = vec![false; width];
        for v in 0..width {
            if let Some(next) = new_next[v] {
                let d = net.delay(SwitchId(v as u32), next);
                sigma_new[v] = d.unwrap_or(1) as TimeStep;
                phi_new0[v] = d.unwrap_or(0) as TimeStep;
            }
            if let Some(vt) = old_next[v] {
                if let Some(c) = net.capacity(SwitchId(v as u32), vt) {
                    contended[v] = c < 2 * flow.demand;
                }
            }
        }

        FlowScan {
            flow_id: flow.id,
            source: flow.source(),
            destination: flow.destination(),
            prefix,
            link_delay,
            diverts,
            pos_of,
            new_next,
            sigma_new,
            phi_new0,
            contended,
            sched_pos: vec![None; n],
            ex_min: vec![TimeStep::MAX; n],
            pending_pos: Vec::new(),
            old_hops,
        }
    }

    /// Snapshots the schedule-dependent state for one flow-turn of one
    /// greedy step. Valid until the first commit for this flow — i.e.
    /// for the whole candidate-collection phase.
    pub fn begin_step(&mut self, schedule: &Schedule, pending: &BTreeSet<SwitchId>) {
        let n = self.old_hops.len();
        let mut run_min = TimeStep::MAX;
        for p in 0..n {
            self.ex_min[p] = run_min;
            self.sched_pos[p] = if self.diverts[p] {
                schedule.get(self.flow_id, self.old_hops[p])
            } else {
                None
            };
            if let Some(tp) = self.sched_pos[p] {
                run_min = run_min.min(tp - self.prefix[p]);
            }
        }
        self.pending_pos.clear();
        for &v in pending {
            let p = self.pos_of.get(v.index()).copied().unwrap_or(NO_POS);
            if p != NO_POS {
                self.pending_pos.push(p);
            }
        }
        self.pending_pos.sort_unstable();
    }

    /// O(1) twin of [`crate::deps::last_old_arrival`] over the current
    /// snapshot.
    fn arrival_bound(&self, v: SwitchId) -> ArrivalBound {
        let p = self.pos_of.get(v.index()).copied().unwrap_or(NO_POS);
        if p == NO_POS || p == 0 {
            return ArrivalBound::Never;
        }
        let m = self.ex_min[p as usize];
        if m == TimeStep::MAX {
            ArrivalBound::Forever
        } else {
            ArrivalBound::Until(m - 1 + self.prefix[p as usize])
        }
    }

    /// Flat twin of [`crate::deps::dependency_set`]: same pending
    /// iteration order, same guards, same edges — then the shared
    /// [`build_set`] merge.
    pub fn dependency_set(&self, pending: &BTreeSet<SwitchId>, t: TimeStep) -> DependencySet {
        // chronus-lint: allow(hot-alloc) — edge list feeds build_set, which returns a freshly built DependencySet by contract
        let mut edges: Vec<(SwitchId, SwitchId)> = Vec::new();
        for &vi in pending {
            let redirect_active = vi == self.source || self.arrival_bound(vi).still_arrives_at(t);
            if !redirect_active {
                continue;
            }
            let Some(v) = self.new_next.get(vi.index()).copied().flatten() else {
                continue;
            };
            if v == self.destination {
                continue;
            }
            // `contended` folds the old-rule / link-exists / capacity
            // guards into one precomputed flag.
            if !self.contended[v.index()] {
                continue;
            }
            let arrival = t + self.sigma_new[vi.index()];
            if !self.arrival_bound(v).still_arrives_at(arrival) {
                continue;
            }
            let pos_v = self.pos_of[v.index()];
            debug_assert_ne!(pos_v, NO_POS, "v has an old rule, so it is on the old path");
            // Nearest pending switch strictly upstream of v that is not
            // vi itself; scans only pending positions, newest first.
            let cut = self.pending_pos.partition_point(|&q| q < pos_v);
            let mut nearest = None;
            let mut saw_vi = false;
            for &q in self.pending_pos[..cut].iter().rev() {
                let u = self.old_hops[q as usize];
                if u == vi {
                    saw_vi = true;
                    continue;
                }
                nearest = Some(u);
                break;
            }
            if let Some(u) = nearest {
                edges.push((u, vi));
            } else if saw_vi {
                let phi_new = self.phi_new0[vi.index()];
                let pos_vi = self.pos_of.get(vi.index()).copied().unwrap_or(NO_POS);
                let phi_old = if pos_vi != NO_POS && pos_vi < pos_v {
                    self.prefix[pos_v as usize] - self.prefix[pos_vi as usize]
                } else {
                    TimeStep::MAX
                };
                if phi_new < phi_old {
                    edges.push((vi, vi));
                }
            }
        }
        build_set(edges, pending)
    }

    /// Flat twin of [`crate::loopcheck::creates_forwarding_loop`] over
    /// the current snapshot: the backward time-respecting walk with
    /// positions and precomputed link delays instead of `prev_hop` /
    /// `net.delay` per hop.
    pub fn creates_loop(&self, v: SwitchId, t: TimeStep) -> bool {
        let Some(v_prime) = self.new_next.get(v.index()).copied().flatten() else {
            return false;
        };
        let mut p = match self.pos_of.get(v.index()).copied() {
            Some(p) if p != NO_POS => p as usize,
            // Not on the old path: `prev_hop` would be None right away.
            _ => return false,
        };
        let mut time = t;
        while p > 0 {
            let prev_pos = p - 1;
            let departure = time - self.link_delay[prev_pos];
            if self.diverts[prev_pos] {
                if let Some(t_prev) = self.sched_pos[prev_pos] {
                    if t_prev <= departure {
                        return false;
                    }
                }
            }
            if self.old_hops[prev_pos] == v_prime {
                return true;
            }
            p = prev_pos;
            time = departure;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::dependency_set;
    use crate::loopcheck::creates_forwarding_loop;
    use chronus_net::{
        motivating_example, Flow, FlowId, InstanceGenerator, InstanceGeneratorConfig,
    };
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// After re-snapshotting `scan`, both scan functions must equal
    /// the paper-as-written references over `schedule` / `pending` at
    /// step `at` (and, for the loop check, the following steps too).
    fn assert_matches_reference(
        scan: &mut FlowScan,
        inst: &UpdateInstance,
        flow: &Flow,
        schedule: &Schedule,
        pending: &BTreeSet<SwitchId>,
        at: TimeStep,
    ) {
        scan.begin_step(schedule, pending);
        let reference = dependency_set(inst, flow, schedule, pending, at);
        let flat = scan.dependency_set(pending, at);
        assert_eq!(reference.edges, flat.edges, "edges diverged at t={at}");
        assert_eq!(reference.chains, flat.chains, "chains diverged at t={at}");
        assert_eq!(reference.cycle, flat.cycle, "cycle diverged at t={at}");
        for &v in pending {
            for t in at..at + 4 {
                assert_eq!(
                    creates_forwarding_loop(inst, flow, schedule, v, t),
                    scan.creates_loop(v, t),
                    "loop check diverged for {v:?} at t={t}"
                );
            }
        }
    }

    #[test]
    fn flat_scan_matches_reference_on_motivating_example() {
        let inst = motivating_example();
        let flow = inst.flow().clone();
        let mut scan = FlowScan::build(&inst, &flow);
        let mut pending = flow.switches_to_update();
        let mut schedule = Schedule::new();

        for (commit, at) in [(None, 0), (Some((1u32, 0)), 1), (Some((3u32, 4)), 6)] {
            if let Some((v, tc)) = commit {
                let v = SwitchId(v);
                schedule.set(FlowId(0), v, tc);
                pending.remove(&v);
            }
            assert_matches_reference(&mut scan, &inst, &flow, &schedule, &pending, at);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Random instances from n = 4 up (so the n < 32 range the
        /// engine plans most is covered), each under two successive
        /// random partial schedules on one reused `FlowScan` — a random
        /// subset of the still-pending switches committed at random
        /// steps each round — probed at a random step.
        #[test]
        fn flat_scan_matches_reference_on_random_partial_schedules(
            switches in 4usize..48,
            seed in 0u64..100_000,
        ) {
            let cfg = InstanceGeneratorConfig::paper(switches, seed);
            let Some(inst) = InstanceGenerator::new(cfg).generate() else {
                return Ok(());
            };
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5ca1ab1e);
            let horizon = inst.total_path_delay().max(1) as TimeStep;
            for flow in &inst.flows {
                let mut scan = FlowScan::build(&inst, flow);
                let mut pending = flow.switches_to_update();
                let mut schedule = Schedule::new();
                for _round in 0..2 {
                    for v in pending.clone() {
                        if rng.gen_bool(0.4) {
                            schedule.set(flow.id, v, rng.gen_range(0..=horizon));
                            pending.remove(&v);
                        }
                    }
                    let at = rng.gen_range(0..=horizon + 2);
                    assert_matches_reference(&mut scan, &inst, flow, &schedule, &pending, at);
                }
            }
        }
    }
}
