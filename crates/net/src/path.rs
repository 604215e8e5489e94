//! Simple (loop-free) switch paths.
// A `Path` holds >= 2 hops (checked at construction); first/last and
// windowed hop indexing rely on that invariant.
#![allow(clippy::expect_used, clippy::indexing_slicing)]

use crate::{Delay, NetError, Network, SwitchId};
use std::collections::HashSet;
use std::fmt;

/// A simple directed path through the network: a sequence of at least
/// two distinct switches.
///
/// `Path` is a plain sequence; whether all of its hops exist in a given
/// [`Network`] is checked by [`Path::validate`]. The paper requires both
/// `p_init` and `p_fin` to be loop-free (§II-B: the pre-computed path set
/// `P(f)` contains only loop-free paths).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Path {
    hops: Vec<SwitchId>,
}

impl Path {
    /// Creates a path from a hop sequence.
    ///
    /// The sequence is taken as-is; call [`Path::validate`] to check it
    /// against a network, or [`Path::try_new`] to validate simplicity
    /// eagerly.
    pub fn new(hops: Vec<SwitchId>) -> Self {
        Path { hops }
    }

    /// Creates a path, checking that it is simple and has ≥ 2 hops.
    ///
    /// # Errors
    /// [`NetError::PathTooShort`] or [`NetError::PathNotSimple`].
    pub fn try_new(hops: Vec<SwitchId>) -> Result<Self, NetError> {
        let p = Path { hops };
        p.check_simple()?;
        Ok(p)
    }

    fn check_simple(&self) -> Result<(), NetError> {
        if self.hops.len() < 2 {
            return Err(NetError::PathTooShort);
        }
        let mut seen = HashSet::with_capacity(self.hops.len());
        for &h in &self.hops {
            if !seen.insert(h) {
                return Err(NetError::PathNotSimple(h));
            }
        }
        Ok(())
    }

    /// The hop sequence.
    #[inline]
    pub fn hops(&self) -> &[SwitchId] {
        &self.hops
    }

    /// Number of switches on the path.
    #[inline]
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// `true` if the path has no hops at all (an invalid path).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// The source switch (first hop).
    ///
    /// # Panics
    /// Panics on an empty path; construct through [`Path::try_new`] to
    /// rule that out.
    pub fn source(&self) -> SwitchId {
        *self.hops.first().expect("path has a source")
    }

    /// The destination switch (last hop).
    ///
    /// # Panics
    /// Panics on an empty path.
    pub fn destination(&self) -> SwitchId {
        *self.hops.last().expect("path has a destination")
    }

    /// Returns `true` if `v` lies on the path.
    pub fn contains(&self, v: SwitchId) -> bool {
        self.hops.contains(&v)
    }

    /// The position of `v` on the path, if present.
    pub fn position(&self, v: SwitchId) -> Option<usize> {
        self.hops.iter().position(|&h| h == v)
    }

    /// The switch following `v` on this path, if `v` is a non-terminal
    /// hop. This is the forwarding rule the path induces at `v`.
    pub fn next_hop(&self, v: SwitchId) -> Option<SwitchId> {
        self.position(v).and_then(|i| self.hops.get(i + 1)).copied()
    }

    /// The switch preceding `v` on this path, if `v` is not the source.
    pub fn prev_hop(&self, v: SwitchId) -> Option<SwitchId> {
        match self.position(v) {
            Some(i) if i > 0 => Some(self.hops[i - 1]),
            _ => None,
        }
    }

    /// Iterator over the directed edges `(u, v)` of the path.
    pub fn edges(&self) -> impl Iterator<Item = (SwitchId, SwitchId)> + '_ {
        self.hops.windows(2).map(|w| (w[0], w[1]))
    }

    /// Checks the path against a network: simplicity, and existence of
    /// every hop-to-hop link.
    ///
    /// # Errors
    /// [`NetError::PathTooShort`], [`NetError::PathNotSimple`],
    /// [`NetError::UnknownSwitch`] or [`NetError::MissingLink`].
    pub fn validate(&self, net: &Network) -> Result<(), NetError> {
        self.check_simple()?;
        for &h in &self.hops {
            if !net.contains_switch(h) {
                return Err(NetError::UnknownSwitch(h));
            }
        }
        for (u, v) in self.edges() {
            if net.link_between(u, v).is_none() {
                return Err(NetError::MissingLink(u, v));
            }
        }
        Ok(())
    }

    /// Total transmission delay `φ(p) = Σ σ(u,v)` along the path
    /// (paper Algorithm 1 input).
    ///
    /// Returns `None` if a hop-to-hop link is missing from the network.
    pub fn total_delay(&self, net: &Network) -> Option<Delay> {
        let mut sum = 0;
        for (u, v) in self.edges() {
            sum += net.delay(u, v)?;
        }
        Some(sum)
    }

    /// Delay `φ` of the prefix ending at `v` (source has prefix delay 0).
    ///
    /// Returns `None` if `v` is not on the path or a link is missing.
    pub fn prefix_delay(&self, net: &Network, v: SwitchId) -> Option<Delay> {
        let pos = self.position(v)?;
        let mut sum = 0;
        for w in self.hops[..=pos].windows(2) {
            sum += net.delay(w[0], w[1])?;
        }
        Some(sum)
    }

    /// The suffix of the path starting at `v` (inclusive), if `v` is on
    /// the path.
    pub fn suffix_from(&self, v: SwitchId) -> Option<&[SwitchId]> {
        self.position(v).map(|i| &self.hops[i..])
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for h in &self.hops {
            if !first {
                write!(f, " -> ")?;
            }
            write!(f, "{h}")?;
            first = false;
        }
        Ok(())
    }
}

impl From<Vec<SwitchId>> for Path {
    fn from(hops: Vec<SwitchId>) -> Self {
        Path::new(hops)
    }
}

impl AsRef<[SwitchId]> for Path {
    fn as_ref(&self) -> &[SwitchId] {
        &self.hops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkBuilder;

    fn chain(n: usize) -> Network {
        let mut b = NetworkBuilder::with_switches(n);
        for i in 0..n - 1 {
            b.add_link(SwitchId(i as u32), SwitchId(i as u32 + 1), 10, i as u64 + 1)
                .unwrap();
        }
        b.build()
    }

    fn ids(v: &[u32]) -> Vec<SwitchId> {
        v.iter().copied().map(SwitchId).collect()
    }

    #[test]
    fn construction_and_accessors() {
        let p = Path::try_new(ids(&[0, 1, 2, 3])).unwrap();
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
        assert_eq!(p.source(), SwitchId(0));
        assert_eq!(p.destination(), SwitchId(3));
        assert_eq!(p.next_hop(SwitchId(1)), Some(SwitchId(2)));
        assert_eq!(p.next_hop(SwitchId(3)), None);
        assert_eq!(p.prev_hop(SwitchId(1)), Some(SwitchId(0)));
        assert_eq!(p.prev_hop(SwitchId(0)), None);
        assert_eq!(p.position(SwitchId(2)), Some(2));
        assert!(p.contains(SwitchId(3)));
        assert!(!p.contains(SwitchId(9)));
        assert_eq!(p.suffix_from(SwitchId(2)), Some(&ids(&[2, 3])[..]));
    }

    #[test]
    fn rejects_short_and_looping_paths() {
        assert_eq!(
            Path::try_new(ids(&[0])).unwrap_err(),
            NetError::PathTooShort
        );
        assert_eq!(
            Path::try_new(ids(&[0, 1, 0])).unwrap_err(),
            NetError::PathNotSimple(SwitchId(0))
        );
    }

    #[test]
    fn validate_against_network() {
        let net = chain(4);
        let good = Path::new(ids(&[0, 1, 2, 3]));
        assert!(good.validate(&net).is_ok());

        let missing = Path::new(ids(&[0, 2]));
        assert_eq!(
            missing.validate(&net).unwrap_err(),
            NetError::MissingLink(SwitchId(0), SwitchId(2))
        );

        let unknown = Path::new(ids(&[0, 9]));
        assert_eq!(
            unknown.validate(&net).unwrap_err(),
            NetError::UnknownSwitch(SwitchId(9))
        );
    }

    #[test]
    fn delays_along_a_path() {
        let net = chain(4); // delays 1, 2, 3 along the chain
        let p = Path::new(ids(&[0, 1, 2, 3]));
        assert_eq!(p.total_delay(&net), Some(6));
        assert_eq!(p.prefix_delay(&net, SwitchId(0)), Some(0));
        assert_eq!(p.prefix_delay(&net, SwitchId(2)), Some(3));
        assert_eq!(p.prefix_delay(&net, SwitchId(9)), None);
        let bad = Path::new(ids(&[0, 2]));
        assert_eq!(bad.total_delay(&net), None);
    }

    #[test]
    fn edges_and_display() {
        let p = Path::new(ids(&[0, 1, 2]));
        let es: Vec<_> = p.edges().collect();
        assert_eq!(
            es,
            vec![(SwitchId(0), SwitchId(1)), (SwitchId(1), SwitchId(2))]
        );
        assert_eq!(p.to_string(), "s0 -> s1 -> s2");
        assert_eq!(p.as_ref().len(), 3);
        let q: Path = ids(&[0, 1, 2]).into();
        assert_eq!(p, q);
    }
}
