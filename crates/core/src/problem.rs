//! The Minimum Update Time Problem instance wrapper.
// Update items index the instance's own switch set; `expect` sites
// unwrap path invariants checked at `Path` construction.
#![allow(clippy::indexing_slicing, clippy::expect_used)]

use crate::ScheduleError;
use chronus_net::{Flow, SwitchId, TimeStep, UpdateInstance};
use std::collections::BTreeSet;

/// A validated MUTP instance (paper §II-B, program (3)) together with
/// the derived quantities every scheduler needs.
///
/// Construction validates the underlying instance once, so algorithms
/// can use `expect`-free accessors afterwards.
#[derive(Clone, Debug)]
pub struct MutpProblem<'a> {
    instance: &'a UpdateInstance,
    /// Per-flow pending sets, parallel to `instance.flows`.
    pending: Vec<BTreeSet<SwitchId>>,
    /// Per-flow initial-path total delay `φ(p_init)`.
    phi_init: Vec<u64>,
    /// Per-flow final-path total delay `φ(p_fin)`.
    phi_fin: Vec<u64>,
}

impl<'a> MutpProblem<'a> {
    /// Wraps and validates an instance.
    ///
    /// # Errors
    /// [`ScheduleError::Invalid`] if a flow fails validation against
    /// the network.
    pub fn new(instance: &'a UpdateInstance) -> Result<Self, ScheduleError> {
        let mut pending = Vec::with_capacity(instance.flows.len());
        let mut phi_init = Vec::with_capacity(instance.flows.len());
        let mut phi_fin = Vec::with_capacity(instance.flows.len());
        for f in &instance.flows {
            f.validate(&instance.network)?;
            pending.push(f.switches_to_update());
            phi_init.push(
                f.initial
                    .total_delay(&instance.network)
                    .expect("validated path has a delay"),
            );
            phi_fin.push(
                f.fin
                    .total_delay(&instance.network)
                    .expect("validated path has a delay"),
            );
        }
        Ok(MutpProblem {
            instance,
            pending,
            phi_init,
            phi_fin,
        })
    }

    /// The wrapped instance.
    pub fn instance(&self) -> &'a UpdateInstance {
        self.instance
    }

    /// The flows of the instance.
    pub fn flows(&self) -> &[Flow] {
        &self.instance.flows
    }

    /// Switches requiring an update for flow index `fi`.
    pub fn pending(&self, fi: usize) -> &BTreeSet<SwitchId> {
        &self.pending[fi]
    }

    /// Total switches requiring updates across all flows.
    pub fn pending_total(&self) -> usize {
        self.pending.iter().map(BTreeSet::len).sum()
    }

    /// `φ(p_init)` of flow index `fi`.
    pub fn phi_init(&self, fi: usize) -> u64 {
        self.phi_init[fi]
    }

    /// `φ(p_fin)` of flow index `fi`.
    pub fn phi_fin(&self, fi: usize) -> u64 {
        self.phi_fin[fi]
    }

    /// The *drain bound*: after this many idle steps every in-flight
    /// cohort emitted before the idle period has left the network, so
    /// the transient state repeats. Waiting longer than this between
    /// updates can never unlock a previously impossible update —
    /// the core of the paper's Theorem 2 "infeasible now ⇒ infeasible
    /// forever" argument.
    pub fn drain_bound(&self) -> TimeStep {
        let max_phi = self
            .phi_init
            .iter()
            .chain(self.phi_fin.iter())
            .copied()
            .max()
            .unwrap_or(0);
        max_phi as TimeStep + 2
    }

    /// A horizon after which the greedy search declares infeasibility:
    /// every pending switch gets at least one full drain period.
    pub fn search_horizon(&self) -> TimeStep {
        (self.pending_total() as TimeStep + 2) * self.drain_bound()
    }

    /// Switches on the final path that have *no* old rule for flow
    /// `fi` ("fresh" switches): they carry no flow until an upstream
    /// switch diverges, so updating them at step 0 is always safe and
    /// any later time risks a blackhole.
    pub fn fresh_switches(&self, fi: usize) -> Vec<SwitchId> {
        let f = &self.instance.flows[fi];
        self.pending[fi]
            .iter()
            .copied()
            .filter(|&v| f.old_rule(v).is_none())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronus_net::{motivating_example, reversal_instance};

    #[test]
    fn wraps_motivating_example() {
        let inst = motivating_example();
        let p = MutpProblem::new(&inst).unwrap();
        assert_eq!(p.pending_total(), 4);
        assert_eq!(p.phi_init(0), 5);
        assert_eq!(p.phi_fin(0), 4);
        assert_eq!(p.drain_bound(), 7);
        assert!(p.search_horizon() >= p.drain_bound());
        // All four updated switches are on both paths in this example
        // except none are fresh (v4 and v3 lie on the old path too).
        assert!(p.fresh_switches(0).is_empty());
        assert_eq!(p.flows().len(), 1);
        assert!(std::ptr::eq(p.instance(), &inst));
    }

    #[test]
    fn fresh_switch_detection() {
        // Diamond: 0 -> 1 -> 3 old, 0 -> 2 -> 3 new; switch 2 is fresh.
        let mut b = chronus_net::NetworkBuilder::with_switches(4);
        let s = SwitchId;
        b.add_link(s(0), s(1), 5, 1).unwrap();
        b.add_link(s(1), s(3), 5, 1).unwrap();
        b.add_link(s(0), s(2), 5, 1).unwrap();
        b.add_link(s(2), s(3), 5, 1).unwrap();
        let f = chronus_net::Flow::new(
            chronus_net::FlowId(0),
            1,
            chronus_net::Path::new(vec![s(0), s(1), s(3)]),
            chronus_net::Path::new(vec![s(0), s(2), s(3)]),
        )
        .unwrap();
        let inst = UpdateInstance::single(b.build(), f).unwrap();
        let p = MutpProblem::new(&inst).unwrap();
        assert_eq!(p.fresh_switches(0), vec![s(2)]);
    }

    #[test]
    fn reversal_has_large_pending_set() {
        let inst = reversal_instance(8, 1, 1);
        let p = MutpProblem::new(&inst).unwrap();
        assert!(p.pending_total() >= 6);
    }
}
