//! Routing algorithms: delay-weighted Dijkstra and seeded random
//! simple paths.
//!
//! The experiment harness uses [`shortest_path_delay`] for initial
//! routes and [`random_simple_path`] for the paper's "final path is
//! chosen randomly" setup (§V-B).
// Graph algorithms over dense `SwitchId`-indexed arrays: every index
// is minted from `switch_count`, so slice indexing cannot go out of
// bounds by construction.
// `expect` sites unwrap invariants the algorithms themselves
// establish (heap entries, predecessor links on reached nodes).
#![allow(clippy::indexing_slicing, clippy::expect_used)]

use crate::{Delay, Network, Path, SwitchId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Shortest path by total transmission delay (Dijkstra). Returns `None`
/// if unreachable.
pub fn shortest_path_delay(net: &Network, src: SwitchId, dst: SwitchId) -> Option<Path> {
    if !net.contains_switch(src) || !net.contains_switch(dst) || src == dst {
        return None;
    }
    let n = net.switch_count();
    let mut dist: Vec<Delay> = vec![Delay::MAX; n];
    let mut prev: Vec<Option<SwitchId>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[src.index()] = 0;
    heap.push(Reverse((0u64, src)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u.index()] {
            continue;
        }
        if u == dst {
            break;
        }
        for l in net.out_links(u) {
            let nd = d.saturating_add(l.delay);
            if nd < dist[l.dst.index()] {
                dist[l.dst.index()] = nd;
                prev[l.dst.index()] = Some(u);
                heap.push(Reverse((nd, l.dst)));
            }
        }
    }
    if dist[dst.index()] == Delay::MAX {
        return None;
    }
    reconstruct(&prev, src, dst)
}

fn reconstruct(prev: &[Option<SwitchId>], src: SwitchId, dst: SwitchId) -> Option<Path> {
    let mut hops = vec![dst];
    let mut cur = dst;
    while cur != src {
        cur = prev[cur.index()]?;
        hops.push(cur);
    }
    hops.reverse();
    Some(Path::new(hops))
}

/// A seeded random *simple* path from `src` to `dst`: a loop-erased
/// random walk (whenever the walk revisits a switch, the loop it just
/// closed is erased), which terminates in polynomial expected time on
/// connected graphs — unlike backtracking DFS, whose worst case is
/// exponential. Used to draw the paper's random final routing paths.
///
/// Returns `None` only if `dst` is unreachable from `src`.
pub fn random_simple_path(
    net: &Network,
    src: SwitchId,
    dst: SwitchId,
    rng: &mut StdRng,
) -> Option<Path> {
    loop_erased_walk(net, src, dst, 0.0, rng)
}

/// Shared loop-erased random-walk core for [`random_simple_path`]
/// (`greediness = 0`) and [`biased_random_path`].
fn loop_erased_walk(
    net: &Network,
    src: SwitchId,
    dst: SwitchId,
    greediness: f64,
    rng: &mut StdRng,
) -> Option<Path> {
    if !net.contains_switch(src) || !net.contains_switch(dst) || src == dst {
        return None;
    }
    // Distance-to-destination field: restricts the walk to switches
    // that can still reach `dst` and powers the greedy bias.
    let n = net.switch_count();
    let mut dist: Vec<Delay> = vec![Delay::MAX; n];
    let mut heap = BinaryHeap::new();
    dist[dst.index()] = 0;
    heap.push(Reverse((0u64, dst)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u.index()] {
            continue;
        }
        for l in net.in_links(u) {
            let nd = d.saturating_add(l.delay);
            if nd < dist[l.src.index()] {
                dist[l.src.index()] = nd;
                heap.push(Reverse((nd, l.src)));
            }
        }
    }
    if dist[src.index()] == Delay::MAX {
        return None;
    }

    let mut hops: Vec<SwitchId> = vec![src];
    // chronus-lint: allow(det-hash) — switch -> walk-position lookup; read by key only, never iterated
    let mut index: HashMap<SwitchId, usize> = HashMap::from([(src, 0)]);
    let max_steps = 100 * n + 1_000;
    for _ in 0..max_steps {
        let cur = *hops.last().expect("walk is non-empty");
        let mut neighbours: Vec<SwitchId> = net
            .out_links(cur)
            .map(|l| l.dst)
            .filter(|s| dist[s.index()] != Delay::MAX)
            .collect();
        if neighbours.is_empty() {
            return None; // cannot happen while dist[cur] is finite
        }
        let next = if greediness > 0.0 && rng.gen::<f64>() < greediness {
            *neighbours
                .iter()
                .min_by_key(|s| dist[s.index()])
                .expect("non-empty")
        } else if greediness < 0.0 && rng.gen::<f64>() < -greediness {
            *neighbours
                .iter()
                .max_by_key(|s| dist[s.index()])
                .expect("non-empty")
        } else {
            neighbours.shuffle(rng);
            neighbours[0]
        };
        if let Some(&pos) = index.get(&next) {
            // Loop erase: drop everything after the first visit.
            for dropped in hops.drain(pos + 1..) {
                index.remove(&dropped);
            }
        } else {
            index.insert(next, hops.len());
            hops.push(next);
        }
        if next == dst {
            return Some(Path::new(hops));
        }
    }
    // The walk wandered too long (astronomically unlikely on connected
    // graphs): fall back to the deterministic shortest path.
    shortest_path_delay(net, src, dst)
}

/// A random simple path biased toward short paths: with probability
/// `greediness` each walk step moves to the delay-closest neighbour of
/// the destination instead of a uniformly random one. Produces the
/// "random but plausible" reroutes used in experiments;
/// `greediness = 0` degenerates to [`random_simple_path`]. A
/// *negative* value biases the walk **away** from the destination with
/// probability `-greediness`, stretching the resulting path — used to
/// model long legacy routes in the scale experiments.
pub fn biased_random_path(
    net: &Network,
    src: SwitchId,
    dst: SwitchId,
    greediness: f64,
    rng: &mut StdRng,
) -> Option<Path> {
    loop_erased_walk(net, src, dst, greediness, rng)
}

/// Deterministic helper: a fresh RNG from a seed, for callers that do
/// not want to depend on `rand` directly.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{self, LinkParams};
    use crate::NetworkBuilder;

    fn diamond_weighted() -> Network {
        // 0 ->(1) 1 ->(1) 3   and   0 ->(5) 2 ->(1) 3
        let mut b = NetworkBuilder::with_switches(4);
        b.add_link(SwitchId(0), SwitchId(1), 10, 1).unwrap();
        b.add_link(SwitchId(1), SwitchId(3), 10, 1).unwrap();
        b.add_link(SwitchId(0), SwitchId(2), 10, 5).unwrap();
        b.add_link(SwitchId(2), SwitchId(3), 10, 1).unwrap();
        b.build()
    }

    #[test]
    fn dijkstra_prefers_low_delay() {
        let net = diamond_weighted();
        let p = shortest_path_delay(&net, SwitchId(0), SwitchId(3)).unwrap();
        assert_eq!(p.hops(), &[SwitchId(0), SwitchId(1), SwitchId(3)]);
        assert_eq!(p.total_delay(&net), Some(2));
    }

    /// All-pairs shortest delays by Floyd–Warshall: an oracle that
    /// shares no code with the Dijkstra under test.
    fn floyd_warshall(net: &Network) -> Vec<Vec<Option<Delay>>> {
        let n = net.switch_count();
        let mut d = vec![vec![None; n]; n];
        for (i, row) in d.iter_mut().enumerate() {
            row[i] = Some(0);
        }
        for l in net.links() {
            let cell = &mut d[l.src.index()][l.dst.index()];
            *cell = Some(cell.map_or(l.delay, |c: Delay| c.min(l.delay)));
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    if let (Some(a), Some(b)) = (d[i][k], d[k][j]) {
                        if d[i][j].is_none_or(|c| a + b < c) {
                            d[i][j] = Some(a + b);
                        }
                    }
                }
            }
        }
        d
    }

    #[test]
    fn dijkstra_matches_floyd_warshall() {
        let net = topology::random_connected(topology::TopologyConfig::simulation(20, 3), 15);
        let dist = floyd_warshall(&net);
        for (target, &theirs) in dist[0].iter().enumerate().skip(1) {
            let ours = shortest_path_delay(&net, SwitchId(0), SwitchId(target as u32))
                .and_then(|p| p.total_delay(&net));
            assert_eq!(ours, theirs, "distance mismatch to node {target}");
        }
    }

    #[test]
    fn random_simple_path_is_valid_and_seeded() {
        let net = topology::grid(4, 4, LinkParams::default());
        let mut rng = seeded_rng(11);
        let p = random_simple_path(&net, SwitchId(0), SwitchId(15), &mut rng).unwrap();
        assert!(p.validate(&net).is_ok());
        assert_eq!(p.source(), SwitchId(0));
        assert_eq!(p.destination(), SwitchId(15));
        // Same seed, same path.
        let mut rng2 = seeded_rng(11);
        let q = random_simple_path(&net, SwitchId(0), SwitchId(15), &mut rng2).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn random_path_none_when_unreachable() {
        let mut b = NetworkBuilder::with_switches(3);
        b.add_link(SwitchId(0), SwitchId(1), 1, 1).unwrap();
        let net = b.build();
        let mut rng = seeded_rng(5);
        assert!(random_simple_path(&net, SwitchId(0), SwitchId(2), &mut rng).is_none());
    }

    #[test]
    fn biased_path_valid_and_short_when_greedy() {
        let net = topology::grid(4, 4, LinkParams::default());
        let mut rng = seeded_rng(9);
        let p = biased_random_path(&net, SwitchId(0), SwitchId(15), 1.0, &mut rng).unwrap();
        assert!(p.validate(&net).is_ok());
        // Fully greedy walk follows the distance field, i.e. a shortest path.
        assert_eq!(p.total_delay(&net), Some(6));
        let mut rng = seeded_rng(10);
        let q = biased_random_path(&net, SwitchId(0), SwitchId(15), 0.0, &mut rng).unwrap();
        assert!(q.validate(&net).is_ok());
    }
}
