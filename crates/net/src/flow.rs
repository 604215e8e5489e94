//! Dynamic flows and update instances.
// Flow paths hold >= 2 hops (checked at construction of `Path`).
#![allow(clippy::indexing_slicing)]

use crate::{Capacity, FlowId, NetError, Network, Path, SwitchId};
use std::collections::BTreeSet;
use std::fmt;

/// A dynamic flow of demand `d` that must be migrated from `p_init` to
/// `p_fin` (paper §II-B).
///
/// Both paths share source and destination; the update problem is to
/// pick, for every switch whose forwarding rule changes, a time at which
/// the rule's *action* is rewritten from the old next-hop to the new one.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Flow {
    /// Flow identifier.
    pub id: FlowId,
    /// Demand `d` in capacity units, emitted every time step.
    pub demand: Capacity,
    /// The initial ("solid line") routing path.
    pub initial: Path,
    /// The final ("dashed line") routing path.
    pub fin: Path,
}

impl Flow {
    /// Creates a flow, checking both paths are simple and share
    /// endpoints and that the demand is positive.
    ///
    /// # Errors
    /// [`NetError::ZeroDemand`], [`NetError::PathTooShort`],
    /// [`NetError::PathNotSimple`] or [`NetError::EndpointMismatch`].
    pub fn new(id: FlowId, demand: Capacity, initial: Path, fin: Path) -> Result<Self, NetError> {
        if demand == 0 {
            return Err(NetError::ZeroDemand);
        }
        let initial = Path::try_new(initial.hops().to_vec())?;
        let fin = Path::try_new(fin.hops().to_vec())?;
        if initial.source() != fin.source() || initial.destination() != fin.destination() {
            return Err(NetError::EndpointMismatch {
                init: (initial.source(), initial.destination()),
                fin: (fin.source(), fin.destination()),
            });
        }
        Ok(Flow {
            id,
            demand,
            initial,
            fin,
        })
    }

    /// The common source of both paths.
    pub fn source(&self) -> SwitchId {
        self.initial.source()
    }

    /// The common destination of both paths.
    pub fn destination(&self) -> SwitchId {
        self.initial.destination()
    }

    /// Validates the flow against a network: both paths must exist and
    /// every link on either path must have capacity ≥ demand (otherwise
    /// even the static routing is congested).
    pub fn validate(&self, net: &Network) -> Result<(), NetError> {
        self.initial.validate(net)?;
        self.fin.validate(net)?;
        for (u, v) in self.initial.edges().chain(self.fin.edges()) {
            let cap = net.capacity(u, v).ok_or(NetError::MissingLink(u, v))?;
            if cap < self.demand {
                return Err(NetError::DemandExceedsCapacity { src: u, dst: v });
            }
        }
        Ok(())
    }

    /// The old forwarding rule at `v`: next hop on `p_init`, if `v` is a
    /// non-terminal hop of the initial path.
    pub fn old_rule(&self, v: SwitchId) -> Option<SwitchId> {
        self.initial.next_hop(v)
    }

    /// The new forwarding rule at `v`: next hop on `p_fin`, if `v` is a
    /// non-terminal hop of the final path.
    pub fn new_rule(&self, v: SwitchId) -> Option<SwitchId> {
        self.fin.next_hop(v)
    }

    /// The switches whose forwarding behaviour must change: every
    /// non-terminal hop of `p_fin` whose new next-hop differs from its
    /// old one (or that had no old rule at all).
    ///
    /// The destination never needs an update (paper §IV: "the
    /// destination switch does not require to be updated"). Switches on
    /// `p_init` that are *not* on `p_fin` keep their old rule — it simply
    /// stops receiving traffic once upstream switches divert the flow.
    ///
    /// The result is sorted by switch id (it is a `BTreeSet`), giving
    /// deterministic iteration order to all schedulers.
    pub fn switches_to_update(&self) -> BTreeSet<SwitchId> {
        let mut set = BTreeSet::new();
        for &v in self.fin.hops() {
            if v == self.destination() {
                continue;
            }
            let new = self.new_rule(v);
            let old = self.old_rule(v);
            if new.is_some() && new != old {
                set.insert(v);
            }
        }
        set
    }

    /// Switches appearing on either path, sorted.
    pub fn touched_switches(&self) -> BTreeSet<SwitchId> {
        self.initial
            .hops()
            .iter()
            .chain(self.fin.hops())
            .copied()
            .collect()
    }
}

impl fmt::Display for Flow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (d={}): {} => {}",
            self.id, self.demand, self.initial, self.fin
        )
    }
}

/// One update instance: a network plus the set of flows to migrate.
///
/// This is the input to every scheduler in the workspace. The paper's
/// algorithms (§III–§IV) operate on a single flow; the ILP formulation
/// (3) and our fluid simulator handle the general multi-flow case.
#[derive(Clone, Debug)]
pub struct UpdateInstance {
    /// The (frozen) network topology.
    pub network: Network,
    /// Flows to migrate, each with its own path pair.
    pub flows: Vec<Flow>,
}

impl UpdateInstance {
    /// Creates an instance, validating every flow against the network.
    ///
    /// # Errors
    /// Any validation error from [`Flow::validate`].
    pub fn new(network: Network, flows: Vec<Flow>) -> Result<Self, NetError> {
        for f in &flows {
            f.validate(&network)?;
        }
        Ok(UpdateInstance { network, flows })
    }

    /// Convenience constructor for the single-flow case the paper's
    /// algorithms target.
    ///
    /// # Errors
    /// Any validation error from [`Flow::validate`].
    pub fn single(network: Network, flow: Flow) -> Result<Self, NetError> {
        Self::new(network, vec![flow])
    }

    /// The single flow of a single-flow instance.
    ///
    /// # Panics
    /// Panics if the instance holds zero or more than one flow; use
    /// [`UpdateInstance::flows`] directly in the multi-flow case.
    pub fn flow(&self) -> &Flow {
        assert_eq!(
            self.flows.len(),
            1,
            "UpdateInstance::flow requires exactly one flow"
        );
        &self.flows[0]
    }

    /// Union of [`Flow::switches_to_update`] across all flows.
    pub fn switches_to_update(&self) -> BTreeSet<SwitchId> {
        self.flows
            .iter()
            .flat_map(|f| f.switches_to_update())
            .collect()
    }

    /// Sum of all per-path transmission delays, an upper bound building
    /// block for schedule horizons.
    pub fn total_path_delay(&self) -> u64 {
        self.flows
            .iter()
            .map(|f| {
                f.initial.total_delay(&self.network).unwrap_or(0)
                    + f.fin.total_delay(&self.network).unwrap_or(0)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkBuilder;

    fn ids(v: &[u32]) -> Vec<SwitchId> {
        v.iter().copied().map(SwitchId).collect()
    }

    /// Diamond: 0 -> 1 -> 3 (old), 0 -> 2 -> 3 (new).
    fn diamond() -> Network {
        let mut b = NetworkBuilder::with_switches(4);
        b.add_link(SwitchId(0), SwitchId(1), 10, 1).unwrap();
        b.add_link(SwitchId(1), SwitchId(3), 10, 1).unwrap();
        b.add_link(SwitchId(0), SwitchId(2), 10, 1).unwrap();
        b.add_link(SwitchId(2), SwitchId(3), 10, 1).unwrap();
        b.build()
    }

    fn diamond_flow(demand: u64) -> Flow {
        Flow::new(
            FlowId(0),
            demand,
            Path::new(ids(&[0, 1, 3])),
            Path::new(ids(&[0, 2, 3])),
        )
        .unwrap()
    }

    #[test]
    fn flow_construction_checks() {
        let err = Flow::new(
            FlowId(0),
            0,
            Path::new(ids(&[0, 1])),
            Path::new(ids(&[0, 1])),
        )
        .unwrap_err();
        assert_eq!(err, NetError::ZeroDemand);

        let err = Flow::new(
            FlowId(0),
            1,
            Path::new(ids(&[0, 1, 3])),
            Path::new(ids(&[0, 2])),
        )
        .unwrap_err();
        assert!(matches!(err, NetError::EndpointMismatch { .. }));
    }

    #[test]
    fn rules_and_update_set() {
        let f = diamond_flow(1);
        assert_eq!(f.old_rule(SwitchId(0)), Some(SwitchId(1)));
        assert_eq!(f.new_rule(SwitchId(0)), Some(SwitchId(2)));
        assert_eq!(f.old_rule(SwitchId(2)), None);
        assert_eq!(f.new_rule(SwitchId(2)), Some(SwitchId(3)));
        // Source changes rule; fresh switch 2 needs its rule activated;
        // destination 3 never updates.
        let ups = f.switches_to_update();
        assert!(ups.contains(&SwitchId(0)));
        assert!(ups.contains(&SwitchId(2)));
        assert!(!ups.contains(&SwitchId(3)));
        assert!(!ups.contains(&SwitchId(1)));
        assert_eq!(f.source(), SwitchId(0));
        assert_eq!(f.destination(), SwitchId(3));
        assert_eq!(f.touched_switches().len(), 4);
    }

    #[test]
    fn noop_flow_needs_no_updates() {
        let p = Path::new(ids(&[0, 1, 3]));
        let f = Flow::new(FlowId(1), 1, p.clone(), p).unwrap();
        assert!(f.switches_to_update().is_empty());
    }

    #[test]
    fn validate_checks_capacity() {
        let net = diamond();
        assert!(diamond_flow(10).validate(&net).is_ok());
        let err = diamond_flow(11).validate(&net).unwrap_err();
        assert!(matches!(err, NetError::DemandExceedsCapacity { .. }));
    }

    #[test]
    fn instance_construction_and_helpers() {
        let net = diamond();
        let inst = UpdateInstance::single(net, diamond_flow(5)).unwrap();
        assert_eq!(inst.flows.len(), 1);
        assert_eq!(inst.flow().id, FlowId(0));
        assert_eq!(inst.switches_to_update().len(), 2);
        assert_eq!(inst.total_path_delay(), 4);
    }

    #[test]
    fn instance_rejects_invalid_flow() {
        let net = diamond();
        let bad = Flow::new(
            FlowId(0),
            1,
            Path::new(ids(&[0, 1, 3])),
            Path::new(ids(&[0, 3])), // no link 0 -> 3
        )
        .unwrap();
        assert!(UpdateInstance::single(net, bad).is_err());
    }

    #[test]
    fn flow_display() {
        let f = diamond_flow(2);
        let s = f.to_string();
        assert!(s.contains("d=2"));
        assert!(s.contains("=>"));
    }
}
