//! The directed network graph `G = (V, E)` and its builder.
// `LinkIdx` values are only minted by this builder, so indexing the
// link table with one cannot fail.
#![allow(clippy::indexing_slicing)]

use crate::{Capacity, Delay, Link, LinkIdx, NetError, SwitchId};
use std::collections::HashMap;
use std::fmt;

/// Immutable directed network graph with capacitated, delayed links.
///
/// Built through [`NetworkBuilder`]; once built, the topology is frozen.
/// All mutable update state (which rule a switch currently applies) lives
/// in the scheduling and simulation crates, never here — this mirrors
/// the paper's separation between the static graph `G` and the dynamic
/// flow over it.
#[derive(Clone, Debug)]
pub struct Network {
    names: Vec<String>,
    links: Vec<Link>,
    out_links: Vec<Vec<LinkIdx>>,
    in_links: Vec<Vec<LinkIdx>>,
    by_endpoints: HashMap<(SwitchId, SwitchId), LinkIdx>,
}

impl Network {
    /// Number of switches `|V|`.
    #[inline]
    pub fn switch_count(&self) -> usize {
        self.names.len()
    }

    /// Number of links `|E|`.
    #[inline]
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Iterator over all switch ids in the network.
    pub fn switches(&self) -> impl Iterator<Item = SwitchId> + '_ {
        (0..self.names.len() as u32).map(SwitchId)
    }

    /// Iterator over all links.
    pub fn links(&self) -> impl Iterator<Item = &Link> {
        self.links.iter()
    }

    /// Returns `true` if `s` is a switch of this network.
    #[inline]
    pub fn contains_switch(&self, s: SwitchId) -> bool {
        s.index() < self.names.len()
    }

    /// The human-readable name given to `s` at build time.
    ///
    /// Returns `None` if `s` is not a switch of this network.
    pub fn switch_name(&self, s: SwitchId) -> Option<&str> {
        self.names.get(s.index()).map(String::as_str)
    }

    /// Looks up the link `⟨u, v⟩`, if present.
    pub fn link_between(&self, u: SwitchId, v: SwitchId) -> Option<&Link> {
        self.by_endpoints
            .get(&(u, v))
            .map(|i| &self.links[i.index()])
    }

    /// Looks up the arena index of link `⟨u, v⟩`, if present.
    pub fn link_idx(&self, u: SwitchId, v: SwitchId) -> Option<LinkIdx> {
        self.by_endpoints.get(&(u, v)).copied()
    }

    /// The link stored at arena index `idx`.
    ///
    /// # Panics
    /// Panics if `idx` was not issued by this network.
    pub fn link(&self, idx: LinkIdx) -> &Link {
        &self.links[idx.index()]
    }

    /// Capacity of link `⟨u, v⟩`, or `None` if it does not exist.
    pub fn capacity(&self, u: SwitchId, v: SwitchId) -> Option<Capacity> {
        self.link_between(u, v).map(|l| l.capacity)
    }

    /// Transmission delay `σ(u, v)`, or `None` if the link is missing.
    pub fn delay(&self, u: SwitchId, v: SwitchId) -> Option<Delay> {
        self.link_between(u, v).map(|l| l.delay)
    }

    /// Outgoing links of `u`.
    pub fn out_links(&self, u: SwitchId) -> impl Iterator<Item = &Link> {
        self.out_links
            .get(u.index())
            .into_iter()
            .flatten()
            .map(|i| &self.links[i.index()])
    }

    /// Incoming links of `v`.
    pub fn in_links(&self, v: SwitchId) -> impl Iterator<Item = &Link> {
        self.in_links
            .get(v.index())
            .into_iter()
            .flatten()
            .map(|i| &self.links[i.index()])
    }

    /// The maximum link delay in the network (0 if there are no links).
    pub fn max_delay(&self) -> Delay {
        self.links.iter().map(|l| l.delay).max().unwrap_or(0)
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Network: {} switches, {} links",
            self.switch_count(),
            self.link_count()
        )?;
        for l in &self.links {
            writeln!(f, "  {l}")?;
        }
        Ok(())
    }
}

/// Incremental builder for [`Network`].
///
/// ```
/// use chronus_net::NetworkBuilder;
/// let mut b = NetworkBuilder::new();
/// let a = b.add_switch("a");
/// let c = b.add_switch("c");
/// b.add_link(a, c, 10, 1).unwrap();
/// let net = b.build();
/// assert_eq!(net.switch_count(), 2);
/// assert_eq!(net.capacity(a, c), Some(10));
/// ```
#[derive(Clone, Debug, Default)]
pub struct NetworkBuilder {
    names: Vec<String>,
    links: Vec<Link>,
    by_endpoints: HashMap<(SwitchId, SwitchId), LinkIdx>,
}

impl NetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder pre-populated with `n` switches named
    /// `v1 … vn` (the paper's naming convention).
    pub fn with_switches(n: usize) -> Self {
        let mut b = Self::new();
        for i in 1..=n {
            b.add_switch(format!("v{i}"));
        }
        b
    }

    /// Creates a builder pre-populated with `n` *unnamed* switches.
    /// For derived planning views (shard instances, clamped-capacity
    /// copies) that keep another network's switch numbering: skipping
    /// `n` name allocations matters when views are minted per shard
    /// per replan round.
    pub fn with_unnamed_switches(n: usize) -> Self {
        let mut b = Self::new();
        b.names.resize(n, String::new());
        b
    }

    /// Adds a switch and returns its id.
    pub fn add_switch(&mut self, name: impl Into<String>) -> SwitchId {
        let id = SwitchId(self.names.len() as u32);
        self.names.push(name.into());
        id
    }

    /// Number of switches added so far.
    pub fn switch_count(&self) -> usize {
        self.names.len()
    }

    /// Adds a directed link `⟨u, v⟩` with the given capacity and delay.
    ///
    /// # Errors
    /// - [`NetError::UnknownSwitch`] if `u` or `v` was not added first;
    /// - [`NetError::SelfLoop`] if `u == v`;
    /// - [`NetError::DuplicateLink`] if `⟨u, v⟩` already exists;
    /// - [`NetError::ZeroDelay`] / [`NetError::ZeroCapacity`] for
    ///   non-positive parameters.
    pub fn add_link(
        &mut self,
        u: SwitchId,
        v: SwitchId,
        capacity: Capacity,
        delay: Delay,
    ) -> Result<LinkIdx, NetError> {
        if u.index() >= self.names.len() {
            return Err(NetError::UnknownSwitch(u));
        }
        if v.index() >= self.names.len() {
            return Err(NetError::UnknownSwitch(v));
        }
        if u == v {
            return Err(NetError::SelfLoop(u));
        }
        if self.by_endpoints.contains_key(&(u, v)) {
            return Err(NetError::DuplicateLink(u, v));
        }
        if delay == 0 {
            return Err(NetError::ZeroDelay(u, v));
        }
        if capacity == 0 {
            return Err(NetError::ZeroCapacity(u, v));
        }
        let idx = LinkIdx(self.links.len() as u32);
        self.links.push(Link::new(u, v, capacity, delay));
        self.by_endpoints.insert((u, v), idx);
        Ok(idx)
    }

    /// Adds links `⟨u, v⟩` and `⟨v, u⟩` with identical parameters, as a
    /// convenience for the (bidirectional) Mininet-style topologies used
    /// in the paper's evaluation.
    pub fn add_duplex_link(
        &mut self,
        u: SwitchId,
        v: SwitchId,
        capacity: Capacity,
        delay: Delay,
    ) -> Result<(LinkIdx, LinkIdx), NetError> {
        let a = self.add_link(u, v, capacity, delay)?;
        let b = self.add_link(v, u, capacity, delay)?;
        Ok((a, b))
    }

    /// Returns `true` if the link `⟨u, v⟩` was already added.
    pub fn has_link(&self, u: SwitchId, v: SwitchId) -> bool {
        self.by_endpoints.contains_key(&(u, v))
    }

    /// Freezes the builder into an immutable [`Network`].
    pub fn build(self) -> Network {
        let n = self.names.len();
        let mut out_links = vec![Vec::new(); n];
        let mut in_links = vec![Vec::new(); n];
        for (i, l) in self.links.iter().enumerate() {
            out_links[l.src.index()].push(LinkIdx(i as u32));
            in_links[l.dst.index()].push(LinkIdx(i as u32));
        }
        Network {
            names: self.names,
            links: self.links,
            out_links,
            in_links,
            by_endpoints: self.by_endpoints,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (Network, [SwitchId; 3]) {
        let mut b = NetworkBuilder::new();
        let a = b.add_switch("a");
        let c = b.add_switch("b");
        let d = b.add_switch("c");
        b.add_link(a, c, 5, 1).unwrap();
        b.add_link(c, d, 5, 2).unwrap();
        b.add_link(a, d, 3, 4).unwrap();
        (b.build(), [a, c, d])
    }

    #[test]
    fn builds_and_queries() {
        let (net, [a, b, c]) = triangle();
        assert_eq!(net.switch_count(), 3);
        assert_eq!(net.link_count(), 3);
        assert_eq!(net.capacity(a, b), Some(5));
        assert_eq!(net.delay(b, c), Some(2));
        assert_eq!(net.delay(c, b), None);
        assert_eq!(net.out_links(a).count(), 2);
        assert_eq!(net.in_links(c).count(), 2);
        assert_eq!(net.max_delay(), 4);
        assert_eq!(net.switch_name(a), Some("a"));
        assert_eq!(net.switch_name(SwitchId(9)), None);
        assert!(net.contains_switch(c));
        assert!(!net.contains_switch(SwitchId(3)));
    }

    #[test]
    fn rejects_bad_links() {
        let mut b = NetworkBuilder::new();
        let a = b.add_switch("a");
        let c = b.add_switch("b");
        assert_eq!(
            b.add_link(a, SwitchId(9), 1, 1),
            Err(NetError::UnknownSwitch(SwitchId(9)))
        );
        assert_eq!(b.add_link(a, a, 1, 1), Err(NetError::SelfLoop(a)));
        assert_eq!(b.add_link(a, c, 1, 0), Err(NetError::ZeroDelay(a, c)));
        assert_eq!(b.add_link(a, c, 0, 1), Err(NetError::ZeroCapacity(a, c)));
        b.add_link(a, c, 1, 1).unwrap();
        assert_eq!(b.add_link(a, c, 2, 2), Err(NetError::DuplicateLink(a, c)));
    }

    #[test]
    fn duplex_adds_both_directions() {
        let mut b = NetworkBuilder::with_switches(2);
        let (u, v) = (SwitchId(0), SwitchId(1));
        b.add_duplex_link(u, v, 7, 3).unwrap();
        let net = b.build();
        assert_eq!(net.capacity(u, v), Some(7));
        assert_eq!(net.capacity(v, u), Some(7));
        assert_eq!(net.switch_name(u), Some("v1"));
    }

    #[test]
    fn link_iterators_cover_all_links() {
        let (net, [a, _, c]) = triangle();
        assert_eq!(net.links().count(), 3);
        assert_eq!(net.out_links(a).count(), 2);
        assert_eq!(net.in_links(c).count(), 2);
        assert_eq!(net.switches().count(), 3);
        // Unknown switch yields empty iterators rather than a panic.
        assert_eq!(net.out_links(SwitchId(77)).count(), 0);
    }

    #[test]
    fn link_idx_roundtrip() {
        let (net, [a, b, _]) = triangle();
        let idx = net.link_idx(a, b).unwrap();
        assert_eq!(net.link(idx).endpoints(), (a, b));
    }

    #[test]
    fn display_lists_links() {
        let (net, _) = triangle();
        let s = net.to_string();
        assert!(s.contains("3 switches"));
        assert!(s.contains("<s0, s1>"));
    }
}
