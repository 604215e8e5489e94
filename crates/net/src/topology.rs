//! Topology generators.
//!
//! The paper evaluates on (a) a small 10-switch Mininet topology with
//! 500 Mbps links and (b) large synthetic topologies of up to 6 000
//! switches with random final paths. This module provides deterministic
//! generators for the classic shapes (line, ring, grid, fat-tree) plus
//! the seeded Erdős–Rényi-style `random_connected` generator used by
//! the experiment harness.
//!
//! All generators produce *duplex* links (both directions, identical
//! capacity/delay), matching the Mininet links of §V-A.
// Generators index freshly-built switch/adjacency vectors whose
// sizes they chose themselves; out-of-bounds is impossible by
// construction.
// Generators `expect` on builder results for shapes they define:
// a failure is a bug in the generator, not a runtime condition.
#![allow(clippy::indexing_slicing, clippy::expect_used)]

use crate::{Capacity, Delay, Network, NetworkBuilder, SwitchId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Common parameters shared by all generators.
#[derive(Clone, Copy, Debug)]
pub struct LinkParams {
    /// Capacity of every generated link.
    pub capacity: Capacity,
    /// Delay of every generated link; random generators may widen this
    /// to a range via [`TopologyConfig::delay_range`].
    pub delay: Delay,
}

impl Default for LinkParams {
    fn default() -> Self {
        // Unit capacity / unit delay, as in the paper's running example.
        LinkParams {
            capacity: 1,
            delay: 1,
        }
    }
}

impl LinkParams {
    /// Creates link parameters.
    pub fn new(capacity: Capacity, delay: Delay) -> Self {
        LinkParams { capacity, delay }
    }
}

/// A line (path graph) of `n` switches: `v1 - v2 - … - vn`.
///
/// # Panics
/// Panics if `n < 2`.
pub fn line(n: usize, p: LinkParams) -> Network {
    assert!(n >= 2, "line topology needs at least two switches");
    let mut b = NetworkBuilder::with_switches(n);
    for i in 0..n - 1 {
        b.add_duplex_link(
            SwitchId(i as u32),
            SwitchId(i as u32 + 1),
            p.capacity,
            p.delay,
        )
        .expect("line links are unique");
    }
    b.build()
}

/// A ring of `n` switches.
///
/// # Panics
/// Panics if `n < 3`.
pub fn ring(n: usize, p: LinkParams) -> Network {
    assert!(n >= 3, "ring topology needs at least three switches");
    let mut b = NetworkBuilder::with_switches(n);
    for i in 0..n {
        let u = SwitchId(i as u32);
        let v = SwitchId(((i + 1) % n) as u32);
        b.add_duplex_link(u, v, p.capacity, p.delay)
            .expect("ring links are unique");
    }
    b.build()
}

/// A `rows × cols` grid with 4-neighbour connectivity.
///
/// # Panics
/// Panics if either dimension is zero or the grid has < 2 switches.
// chronus-lint: allow(dead-pub) — read by examples/failure_recovery.rs
pub fn grid(rows: usize, cols: usize, p: LinkParams) -> Network {
    assert!(rows * cols >= 2, "grid needs at least two switches");
    let mut b = NetworkBuilder::with_switches(rows * cols);
    let id = |r: usize, c: usize| SwitchId((r * cols + c) as u32);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_duplex_link(id(r, c), id(r, c + 1), p.capacity, p.delay)
                    .expect("grid links are unique");
            }
            if r + 1 < rows {
                b.add_duplex_link(id(r, c), id(r + 1, c), p.capacity, p.delay)
                    .expect("grid links are unique");
            }
        }
    }
    b.build()
}

/// A `k`-ary fat-tree (Al-Fares et al.) with `k²/4` core switches,
/// `k` pods of `k/2` aggregation and `k/2` edge switches each —
/// `5k²/4` switches total.
///
/// # Panics
/// Panics if `k` is odd or `k < 2`.
pub fn fat_tree(k: usize, p: LinkParams) -> Network {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "fat-tree arity must be even and >= 2"
    );
    let half = k / 2;
    let cores = half * half;
    let aggs = k * half;
    let edges = k * half;
    let mut b = NetworkBuilder::new();
    let core_ids: Vec<_> = (0..cores)
        .map(|i| b.add_switch(format!("core{i}")))
        .collect();
    let agg_ids: Vec<_> = (0..aggs).map(|i| b.add_switch(format!("agg{i}"))).collect();
    let edge_ids: Vec<_> = (0..edges)
        .map(|i| b.add_switch(format!("edge{i}")))
        .collect();

    for pod in 0..k {
        for a in 0..half {
            let agg = agg_ids[pod * half + a];
            // Aggregation <-> core: agg `a` connects to core group `a`.
            for c in 0..half {
                let core = core_ids[a * half + c];
                b.add_duplex_link(agg, core, p.capacity, p.delay)
                    .expect("fat-tree links are unique");
            }
            // Aggregation <-> edge within the pod (complete bipartite).
            for e in 0..half {
                let edge = edge_ids[pod * half + e];
                b.add_duplex_link(agg, edge, p.capacity, p.delay)
                    .expect("fat-tree links are unique");
            }
        }
    }
    b.build()
}

/// Configuration for the seeded random generators.
#[derive(Clone, Copy, Debug)]
pub struct TopologyConfig {
    /// Number of switches.
    pub switches: usize,
    /// Inclusive capacity range; each duplex link draws one capacity
    /// (set both ends equal for uniform links). Heterogeneous
    /// capacities make some links unable to hold two flow copies
    /// (`C < 2d`) while others can — the mix that drives the paper's
    /// congestion results.
    pub capacity_range: (Capacity, Capacity),
    /// Inclusive delay range; each duplex link draws one delay.
    pub delay_range: (Delay, Delay),
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl TopologyConfig {
    /// A config with the paper's large-scale simulation flavour:
    /// `n` switches, uniform 500-capacity links, delays in `[1, 10]`.
    // chronus-lint: allow(dead-pub) — read by tests/substrate_props.rs
    pub fn simulation(n: usize, seed: u64) -> Self {
        TopologyConfig {
            switches: n,
            capacity_range: (500, 500),
            delay_range: (1, 10),
            seed,
        }
    }
}

/// A connected random graph: a random spanning tree (guaranteeing
/// connectivity) plus `extra_links` random chords.
///
/// # Panics
/// Panics if `cfg.switches < 2` or the delay range is empty.
pub fn random_connected(cfg: TopologyConfig, extra_links: usize) -> Network {
    assert!(
        cfg.switches >= 2,
        "random topology needs at least two switches"
    );
    assert!(
        cfg.delay_range.0 >= 1 && cfg.delay_range.0 <= cfg.delay_range.1,
        "delay range must be non-empty and positive"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n = cfg.switches;
    let mut b = NetworkBuilder::with_switches(n);
    let delay = |rng: &mut StdRng| rng.gen_range(cfg.delay_range.0..=cfg.delay_range.1);
    let capacity = |rng: &mut StdRng| rng.gen_range(cfg.capacity_range.0..=cfg.capacity_range.1);

    // Random spanning tree: attach each node to a random earlier node.
    for i in 1..n {
        let j = rng.gen_range(0..i);
        let d = delay(&mut rng);
        let c = capacity(&mut rng);
        b.add_duplex_link(SwitchId(i as u32), SwitchId(j as u32), c, d)
            .expect("tree links are unique");
    }
    // Random chords.
    let mut added = 0;
    let mut attempts = 0;
    while added < extra_links && attempts < extra_links * 20 + 100 {
        attempts += 1;
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        let (su, sv) = (SwitchId(u as u32), SwitchId(v as u32));
        if b.has_link(su, sv) || b.has_link(sv, su) {
            continue;
        }
        let d = delay(&mut rng);
        let c = capacity(&mut rng);
        b.add_duplex_link(su, sv, c, d)
            .expect("chord checked for duplicates");
        added += 1;
    }
    b.build()
}

/// `true` if every switch can reach every other switch: everything is
/// reachable from switch 0 along links, and switch 0 from everything
/// (the same search against link direction).
// chronus-lint: allow(dead-pub) — read by tests/substrate_props.rs
pub fn is_strongly_connected(net: &Network) -> bool {
    let Some(root) = net.switches().next() else {
        return true;
    };
    reaches_all(net, root, |u| net.out_links(u).map(|l| l.dst))
        && reaches_all(net, root, |u| net.in_links(u).map(|l| l.src))
}

/// Breadth-first search from `root`, stepping from `u` to every switch
/// `next(u)` yields; `true` when it visits every switch.
fn reaches_all<I: Iterator<Item = SwitchId>>(
    net: &Network,
    root: SwitchId,
    next: impl Fn(SwitchId) -> I,
) -> bool {
    let mut seen = vec![false; net.switch_count()];
    seen[root.index()] = true;
    let mut queue = std::collections::VecDeque::from([root]);
    let mut visited = 1;
    while let Some(u) = queue.pop_front() {
        for v in next(u) {
            if !std::mem::replace(&mut seen[v.index()], true) {
                visited += 1;
                queue.push_back(v);
            }
        }
    }
    visited == seen.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_shape() {
        let net = line(5, LinkParams::default());
        assert_eq!(net.switch_count(), 5);
        assert_eq!(net.link_count(), 8); // 4 duplex pairs
        assert!(net.link_between(SwitchId(0), SwitchId(1)).is_some());
        assert!(net.link_between(SwitchId(0), SwitchId(2)).is_none());
        assert!(is_strongly_connected(&net));
    }

    #[test]
    fn ring_shape() {
        let net = ring(4, LinkParams::default());
        assert_eq!(net.link_count(), 8);
        assert!(net.link_between(SwitchId(3), SwitchId(0)).is_some());
        assert!(is_strongly_connected(&net));
    }

    #[test]
    fn grid_shape() {
        let net = grid(2, 3, LinkParams::default());
        assert_eq!(net.switch_count(), 6);
        // 2*3 grid: horizontal 2 rows * 2 = 4, vertical 3 cols * 1 = 3; 7 duplex.
        assert_eq!(net.link_count(), 14);
        assert!(is_strongly_connected(&net));
    }

    #[test]
    fn fat_tree_shape() {
        let net = fat_tree(4, LinkParams::default());
        // k=4: 4 cores + 8 agg + 8 edge = 20 switches.
        assert_eq!(net.switch_count(), 20);
        // links: agg-core 8 agg * 2 = 16, agg-edge 4 pods * 4 = 16; 32 duplex = 64.
        assert_eq!(net.link_count(), 64);
        assert!(is_strongly_connected(&net));
    }

    #[test]
    fn random_connected_is_connected_and_deterministic() {
        let cfg = TopologyConfig::simulation(30, 42);
        let a = random_connected(cfg, 20);
        let b = random_connected(cfg, 20);
        assert_eq!(a.link_count(), b.link_count());
        assert!(a.link_count() >= 2 * 29); // spanning tree duplex at minimum
        assert!(is_strongly_connected(&a));
        for l in a.links() {
            assert!((1..=10).contains(&l.delay));
            assert_eq!(l.capacity, 500, "uniform range pins the capacity");
        }
    }

    #[test]
    fn one_way_links_are_not_strongly_connected() {
        // A one-way chain 0 → 1 → 2: everything is reachable from 0,
        // but nothing reaches 0 back.
        let mut b = NetworkBuilder::with_switches(3);
        b.add_link(SwitchId(0), SwitchId(1), 1, 1).unwrap();
        b.add_link(SwitchId(1), SwitchId(2), 1, 1).unwrap();
        assert!(!is_strongly_connected(&b.build()));
        // A ring 0 ⇄ 1 ⇄ 2 with a sink 3 fed from 2: 3 is reachable
        // from 0 but has no way out.
        let mut b = NetworkBuilder::with_switches(4);
        for (u, v) in [(0, 1), (1, 2), (2, 0)] {
            b.add_duplex_link(SwitchId(u), SwitchId(v), 1, 1).unwrap();
        }
        b.add_link(SwitchId(2), SwitchId(3), 1, 1).unwrap();
        assert!(!is_strongly_connected(&b.build()));
        // Closing the sink's way back makes the graph strongly connected.
        let mut b = NetworkBuilder::with_switches(4);
        for (u, v) in [(0, 1), (1, 2), (2, 0)] {
            b.add_duplex_link(SwitchId(u), SwitchId(v), 1, 1).unwrap();
        }
        b.add_link(SwitchId(2), SwitchId(3), 1, 1).unwrap();
        b.add_link(SwitchId(3), SwitchId(1), 1, 1).unwrap();
        assert!(is_strongly_connected(&b.build()));
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn line_rejects_tiny() {
        line(1, LinkParams::default());
    }

    #[test]
    #[should_panic(expected = "arity must be even")]
    fn fat_tree_rejects_odd_k() {
        fat_tree(3, LinkParams::default());
    }
}
