//! Priority-ordered flow tables with longest-prefix match, counters
//! and a capacity limit.

use crate::types::{Action, Match, Packet};
use std::fmt;

/// Identifier of a rule within one table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct RuleId(pub u64);

/// Per-rule traffic counters — the counters the paper's statistics
/// module polls ("the controller queries the byte counters collected
/// at every two time points", §V-A).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Counters {
    /// Packets matched.
    pub packets: u64,
    /// Bytes matched.
    pub bytes: u64,
}

/// One flow rule.
#[derive(Clone, Debug)]
pub struct FlowRule {
    /// Table-unique id.
    pub id: RuleId,
    /// Higher wins; destination-prefix length breaks ties (LPM).
    pub priority: u16,
    /// Match fields.
    pub mat: Match,
    /// Action list, applied in order.
    pub actions: Vec<Action>,
    /// Traffic counters.
    pub counters: Counters,
}

/// Errors from table mutation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TableError {
    /// The table's rule capacity is exhausted — the "flow table space
    /// is limited" scenario of §I that two-phase updates aggravate.
    TableFull {
        /// The configured capacity.
        capacity: usize,
    },
    /// No rule with the given id.
    NoSuchRule(RuleId),
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::TableFull { capacity } => {
                write!(f, "flow table full (capacity {capacity})")
            }
            TableError::NoSuchRule(id) => write!(f, "no rule {id:?}"),
        }
    }
}

impl std::error::Error for TableError {}

/// A single flow table.
///
/// Lookup selects the matching rule with the highest priority,
/// breaking ties by longest destination prefix then lowest id
/// (deterministic). An optional capacity cap models TCAM space.
#[derive(Clone, Debug)]
pub struct FlowTable {
    rules: Vec<FlowRule>,
    capacity: Option<usize>,
    next_id: u64,
}

impl Default for FlowTable {
    fn default() -> Self {
        Self::new()
    }
}

impl FlowTable {
    /// An unbounded table.
    pub fn new() -> Self {
        FlowTable {
            rules: Vec::new(),
            capacity: None,
            next_id: 0,
        }
    }

    /// A table holding at most `capacity` rules.
    // chronus-lint: allow(dead-pub) — read by tests/substrate_integration.rs
    pub fn with_capacity_limit(capacity: usize) -> Self {
        FlowTable {
            rules: Vec::new(),
            capacity: Some(capacity),
            next_id: 0,
        }
    }

    /// Number of installed rules — the Fig. 9 metric.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// `true` if no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Installs a rule.
    ///
    /// # Errors
    /// [`TableError::TableFull`] when at capacity.
    pub fn add(
        &mut self,
        priority: u16,
        mat: Match,
        actions: Vec<Action>,
    ) -> Result<RuleId, TableError> {
        if let Some(cap) = self.capacity {
            if self.rules.len() >= cap {
                return Err(TableError::TableFull { capacity: cap });
            }
        }
        let id = RuleId(self.next_id);
        self.next_id += 1;
        self.rules.push(FlowRule {
            id,
            priority,
            mat,
            actions,
            counters: Counters::default(),
        });
        // Control-plane churn is process-wide observability (rule
        // installs are cold relative to packet lookups).
        chronus_trace::MetricsRegistry::global()
            .counter("chronus_openflow_rule_installs_total")
            .inc();
        Ok(id)
    }

    /// Rewrites a rule's action list *in place* — the Chronus update
    /// primitive ("we only modify the action in the flow table",
    /// §II-A). Match, priority and counters are untouched, and no
    /// table space is consumed.
    ///
    /// # Errors
    /// [`TableError::NoSuchRule`].
    pub fn modify_actions(&mut self, id: RuleId, actions: Vec<Action>) -> Result<(), TableError> {
        let rule = self
            .rules
            .iter_mut()
            .find(|r| r.id == id)
            .ok_or(TableError::NoSuchRule(id))?;
        rule.actions = actions;
        Ok(())
    }

    /// Removes a rule.
    ///
    /// # Errors
    /// [`TableError::NoSuchRule`].
    pub fn remove(&mut self, id: RuleId) -> Result<FlowRule, TableError> {
        let pos = self
            .rules
            .iter()
            .position(|r| r.id == id)
            .ok_or(TableError::NoSuchRule(id))?;
        chronus_trace::MetricsRegistry::global()
            .counter("chronus_openflow_rule_removals_total")
            .inc();
        Ok(self.rules.remove(pos))
    }

    /// The rule a packet would hit, without updating counters.
    pub fn lookup(&self, pkt: &Packet) -> Option<&FlowRule> {
        self.rules
            .iter()
            .filter(|r| r.mat.matches(pkt))
            .max_by(|a, b| {
                (a.priority, a.mat.dst_len(), std::cmp::Reverse(a.id)).cmp(&(
                    b.priority,
                    b.mat.dst_len(),
                    std::cmp::Reverse(b.id),
                ))
            })
    }

    /// Processes a packet: finds the best rule, bumps its counters and
    /// returns its actions (empty = table miss, i.e. drop/punt).
    pub fn process(&mut self, pkt: &Packet) -> Vec<Action> {
        let id = self.lookup(pkt).map(|r| r.id);
        match id {
            Some(id) => {
                // `id` came from `lookup` over the same rule set.
                #[allow(clippy::expect_used)]
                let rule = self
                    .rules
                    .iter_mut()
                    .find(|r| r.id == id)
                    .expect("id came from lookup");
                rule.counters.packets += 1;
                rule.counters.bytes += pkt.bytes;
                rule.actions.clone()
            }
            None => Vec::new(),
        }
    }

    /// Iterator over the rules in insertion order.
    pub fn rules(&self) -> impl Iterator<Item = &FlowRule> {
        self.rules.iter()
    }

    /// A rule by id.
    pub fn rule(&self, id: RuleId) -> Option<&FlowRule> {
        self.rules.iter().find(|r| r.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> u32 {
        u32::from_be_bytes([a, b, c, d])
    }

    fn dst(p: &str) -> Match {
        Match::dst_prefix(p.parse().unwrap())
    }

    #[test]
    fn add_lookup_and_counters() {
        let mut t = FlowTable::new();
        let r1 = t
            .add(10, dst("10.0.1.0/24"), vec![Action::Output(1)])
            .unwrap();
        let _r2 = t
            .add(10, dst("10.0.0.0/8"), vec![Action::Output(2)])
            .unwrap();
        let pkt = Packet::new(3, ip(10, 1, 0, 1), ip(10, 0, 1, 5));
        // LPM: /24 wins over /8 at equal priority.
        assert_eq!(t.lookup(&pkt).unwrap().id, r1);
        let actions = t.process(&pkt);
        assert_eq!(actions, vec![Action::Output(1)]);
        assert_eq!(t.rule(r1).unwrap().counters.packets, 1);
        assert_eq!(t.rule(r1).unwrap().counters.bytes, 1500);
    }

    #[test]
    fn priority_beats_prefix_length() {
        let mut t = FlowTable::new();
        let _long = t
            .add(1, dst("10.0.1.0/30"), vec![Action::Output(1)])
            .unwrap();
        let high = t
            .add(9, dst("10.0.0.0/8"), vec![Action::Output(2)])
            .unwrap();
        let pkt = Packet::new(0, 0, ip(10, 0, 1, 1));
        assert_eq!(t.lookup(&pkt).unwrap().id, high);
    }

    #[test]
    fn table_miss_returns_empty() {
        let mut t = FlowTable::new();
        t.add(5, dst("10.0.1.0/24"), vec![Action::Output(1)])
            .unwrap();
        let pkt = Packet::new(0, 0, ip(192, 168, 0, 1));
        assert!(t.lookup(&pkt).is_none());
        assert!(t.process(&pkt).is_empty());
    }

    #[test]
    fn capacity_limit_enforced() {
        let mut t = FlowTable::with_capacity_limit(2);
        t.add(1, Match::default(), vec![Action::Drop]).unwrap();
        t.add(1, Match::default(), vec![Action::Drop]).unwrap();
        let err = t.add(1, Match::default(), vec![Action::Drop]).unwrap_err();
        assert_eq!(err, TableError::TableFull { capacity: 2 });
    }

    #[test]
    fn modify_actions_in_place() {
        let mut t = FlowTable::with_capacity_limit(1);
        let id = t
            .add(5, dst("10.0.2.0/24"), vec![Action::Output(1)])
            .unwrap();
        // The Chronus primitive: rewrite the action with the table full.
        t.modify_actions(id, vec![Action::Output(7)]).unwrap();
        assert_eq!(t.len(), 1);
        let pkt = Packet::new(0, 0, ip(10, 0, 2, 2));
        assert_eq!(t.lookup(&pkt).unwrap().actions, vec![Action::Output(7)]);
        assert!(matches!(
            t.modify_actions(RuleId(99), vec![]),
            Err(TableError::NoSuchRule(_))
        ));
    }

    #[test]
    fn remove_by_id() {
        let mut t = FlowTable::new();
        let a = t
            .add(1, dst("10.0.1.0/24"), vec![Action::Output(1)])
            .unwrap();
        let _b = t
            .add(2, dst("10.0.2.0/24"), vec![Action::Output(2)])
            .unwrap();
        let removed = t.remove(a).unwrap();
        assert_eq!(removed.id, a);
        assert_eq!(t.len(), 1);
        assert!(t.remove(a).is_err());
    }

    #[test]
    fn deterministic_tie_break_prefers_older_rule() {
        let mut t = FlowTable::new();
        let first = t
            .add(5, dst("10.0.0.0/8"), vec![Action::Output(1)])
            .unwrap();
        let _second = t
            .add(5, dst("10.1.0.0/8"), vec![Action::Output(2)])
            .unwrap();
        // Both /8, same priority; only the first matches this packet
        // anyway, but craft an overlap to check the id tie-break:
        let _third = t
            .add(5, dst("10.0.0.0/8"), vec![Action::Output(3)])
            .unwrap();
        let pkt = Packet::new(0, 0, ip(10, 0, 0, 1));
        assert_eq!(t.lookup(&pkt).unwrap().id, first);
    }

    #[test]
    fn vlan_versioning_like_two_phase() {
        // Two generations side by side, disambiguated by tag — the TP
        // transition state.
        let mut t = FlowTable::new();
        let old = Match {
            dst: Some("10.0.9.0/24".parse().unwrap()),
            vlan: Some(1),
            ..Default::default()
        };
        let new = Match {
            dst: Some("10.0.9.0/24".parse().unwrap()),
            vlan: Some(2),
            ..Default::default()
        };
        t.add(5, old, vec![Action::Output(1)]).unwrap();
        t.add(5, new, vec![Action::Output(2)]).unwrap();
        let p_old = Packet {
            vlan: Some(1),
            ..Packet::new(0, 0, ip(10, 0, 9, 1))
        };
        let p_new = Packet {
            vlan: Some(2),
            ..Packet::new(0, 0, ip(10, 0, 9, 1))
        };
        assert_eq!(t.lookup(&p_old).unwrap().actions, vec![Action::Output(1)]);
        assert_eq!(t.lookup(&p_new).unwrap().actions, vec![Action::Output(2)]);
        assert_eq!(t.len(), 2, "two-phase doubles the rules");
    }
}
