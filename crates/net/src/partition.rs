//! Topology partitioning for sharded multi-flow planning.
//!
//! The sharded planner (`chronus-core::shard`) plans per-region
//! subproblems in parallel and coordinates shared links through
//! capacity reservations. This module supplies the region structure:
//!
//! 1. [`partition_network`] assigns every switch to a shard — by
//!    **fat-tree pod detection** when the topology is a
//!    [`crate::topology::fat_tree`] fabric (pods are the natural
//!    planning domains; core switches are spread across shards), or by
//!    a **greedy min-cut fallback** (farthest-point seeding,
//!    multi-source BFS growth, then a boundary-refinement pass that
//!    moves switches to the shard holding most of their neighbours)
//!    for arbitrary graphs.
//! 2. [`split_instance`] groups an [`UpdateInstance`]'s flows by the
//!    shard owning the majority of their touched switches and derives
//!    the **shared-link set**: every link loaded by flows of two or
//!    more shards, with the per-shard static demand bounds the
//!    reservation table needs. Links used by a single shard — even
//!    topologically cross-shard ones — need no reservation, because
//!    only flows load links and paths never change during planning.

// Shard assignments are dense `Vec`s indexed by `SwitchId` values that
// the `Network` itself hands out (always `< switch_count`), so direct
// indexing cannot go out of bounds here.
#![allow(clippy::indexing_slicing)]

use crate::{Capacity, Network, SwitchId, UpdateInstance};
use std::collections::{BTreeMap, VecDeque};

/// How [`partition_network`] derived the shard assignment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PartitionMethod {
    /// The whole topology fits one shard (trivial partition).
    Single,
    /// Fat-tree pods detected structurally; pods map to shards.
    FatTreePods,
    /// Greedy min-cut: BFS-grown balanced regions plus boundary
    /// refinement.
    GreedyMinCut,
}

/// A shard assignment over a topology, with its cross-shard link set.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Number of shards (≥ 1; may be fewer than requested).
    pub shards: usize,
    /// Shard index per switch, indexed by `SwitchId` value.
    pub assignment: Vec<usize>,
    /// Directed links whose endpoints live in different shards.
    pub cross_links: Vec<(SwitchId, SwitchId)>,
    /// How the assignment was derived.
    pub method: PartitionMethod,
}

impl Partition {
    /// The shard `switch` belongs to.
    pub fn shard_of(&self, switch: SwitchId) -> usize {
        self.assignment.get(switch.0 as usize).copied().unwrap_or(0)
    }
}

/// A link loaded by flows of two or more shards: the coordination
/// surface of sharded planning. `needs`/`min_needs` are indexed by
/// shard.
#[derive(Clone, Debug)]
pub struct SharedLink {
    /// Link source switch.
    pub src: SwitchId,
    /// Link destination switch.
    pub dst: SwitchId,
    /// The link's true capacity in the source instance.
    pub capacity: Capacity,
    /// Per-shard static need: the sum of each of the shard's flows'
    /// demands once per path occupancy (initial and final counted
    /// separately). Because paths are simple, a shard's transient peak
    /// on the link can never exceed this bound.
    pub needs: Vec<Capacity>,
    /// Per-shard minimum viable reservation: the largest single-flow
    /// demand the shard routes over the link (below this the shard's
    /// instance fails validation).
    pub min_needs: Vec<Capacity>,
}

impl SharedLink {
    /// Shards with non-zero static need on this link.
    pub fn users(&self) -> usize {
        self.needs.iter().filter(|&&n| n > 0).count()
    }

    /// Sum of all shards' static needs.
    pub fn total_need(&self) -> Capacity {
        self.needs.iter().sum()
    }
}

/// An [`UpdateInstance`] split into per-shard flow groups plus the
/// shared links their reservations must coordinate.
#[derive(Clone, Debug)]
pub struct ShardedInstance {
    /// The topology partition the split was made over.
    pub partition: Partition,
    /// Flow indices (into the source instance's `flows`) per shard.
    pub flow_shards: Vec<Vec<usize>>,
    /// Links loaded by two or more shards, with per-shard needs.
    pub shared_links: Vec<SharedLink>,
}

/// Partitions `net` into up to `target` shards.
///
/// Tries structural fat-tree pod detection first (pods become shards,
/// grouped contiguously when `target < k`; core switches are spread
/// evenly), then falls back to greedy min-cut growth. `target <= 1` or
/// a trivially small network yields the single-shard partition.
pub fn partition_network(net: &Network, target: usize) -> Partition {
    let n = net.switch_count();
    if target <= 1 || n <= 2 {
        return trivial(net);
    }
    if let Some(p) = fat_tree_pods(net, target) {
        return p;
    }
    greedy_min_cut(net, target.min(n))
}

fn trivial(net: &Network) -> Partition {
    Partition {
        shards: 1,
        assignment: vec![0; net.switch_count()],
        cross_links: Vec::new(),
        method: PartitionMethod::Single,
    }
}

fn finish(
    net: &Network,
    shards: usize,
    assignment: Vec<usize>,
    method: PartitionMethod,
) -> Partition {
    let cross_links = net
        .links()
        .filter(|l| assignment[l.src.0 as usize] != assignment[l.dst.0 as usize])
        .map(|l| (l.src, l.dst))
        .collect();
    Partition {
        shards,
        assignment,
        cross_links,
        method,
    }
}

/// Detects a [`crate::topology::fat_tree`] fabric by its switch-name
/// structure (`core{i}`/`agg{i}`/`edge{i}`) and cross-checks the
/// counts: `k²/4` cores, `k·k/2` aggregation and edge switches. Pod
/// membership follows the generator's layout (`agg i` and `edge i`
/// belong to pod `i / (k/2)`); cores are spread round-robin over the
/// shards since they connect to every pod anyway.
fn fat_tree_pods(net: &Network, target: usize) -> Option<Partition> {
    let n = net.switch_count();
    let mut cores = 0usize;
    let mut aggs = 0usize;
    let mut edges = 0usize;
    // role per switch: 0 = core, 1 = agg, 2 = edge, with its index.
    let mut roles: Vec<(u8, usize)> = Vec::with_capacity(n);
    for s in net.switches() {
        let name = net.switch_name(s)?;
        let (role, idx) = if let Some(i) = name.strip_prefix("core") {
            cores += 1;
            (0u8, i.parse::<usize>().ok()?)
        } else if let Some(i) = name.strip_prefix("agg") {
            aggs += 1;
            (1, i.parse::<usize>().ok()?)
        } else if let Some(i) = name.strip_prefix("edge") {
            edges += 1;
            (2, i.parse::<usize>().ok()?)
        } else {
            return None;
        };
        roles.push((role, idx));
    }
    // Counts must solve to an even arity k >= 2.
    if aggs == 0 || aggs != edges || cores == 0 {
        return None;
    }
    let half = (cores as f64).sqrt() as usize;
    if half * half != cores || half == 0 {
        return None;
    }
    let k = aggs / half;
    if k < 2 || !k.is_multiple_of(2) || k * half != aggs {
        return None;
    }
    let shards = target.min(k).max(1);
    if shards <= 1 {
        return Some(trivial(net));
    }
    // Contiguous pod grouping: pod p -> shard p * shards / k.
    let mut assignment = vec![0usize; n];
    for (sw, &(role, idx)) in roles.iter().enumerate() {
        assignment[sw] = match role {
            0 => idx * shards / cores, // cores spread evenly
            _ => {
                let pod = idx / half;
                if pod >= k {
                    return None;
                }
                pod * shards / k
            }
        };
    }
    Some(finish(
        net,
        shards,
        assignment,
        PartitionMethod::FatTreePods,
    ))
}

/// Greedy min-cut partition for arbitrary graphs: farthest-point
/// seeding, balanced multi-source BFS growth, then one refinement pass
/// moving boundary switches toward the shard holding the majority of
/// their neighbours (bounded by a 2×-balance cap so no shard absorbs
/// the graph).
fn greedy_min_cut(net: &Network, shards: usize) -> Partition {
    let n = net.switch_count();
    // Undirected adjacency over dense switch ids.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for l in net.links() {
        let (u, v) = (l.src.0 as usize, l.dst.0 as usize);
        if !adj[u].contains(&v) {
            adj[u].push(v);
        }
        if !adj[v].contains(&u) {
            adj[v].push(u);
        }
    }
    for nbrs in &mut adj {
        nbrs.sort_unstable();
    }

    // Farthest-point seeds: start from switch 0, then repeatedly take
    // the switch maximizing its BFS distance to the chosen seed set.
    let mut seeds = vec![0usize];
    let mut dist_to_seeds = bfs_distances(&adj, 0);
    while seeds.len() < shards {
        let far = (0..n)
            .filter(|v| !seeds.contains(v))
            .max_by_key(|&v| dist_to_seeds[v])
            .unwrap_or(0);
        if seeds.contains(&far) {
            break;
        }
        seeds.push(far);
        let d = bfs_distances(&adj, far);
        for v in 0..n {
            dist_to_seeds[v] = dist_to_seeds[v].min(d[v]);
        }
    }

    // Balanced multi-source growth: shards take turns claiming one
    // frontier switch per round, so a high-degree seed cannot flood
    // the graph before the other frontiers move (dense random graphs
    // have tiny diameters; plain multi-source BFS degenerates there).
    let mut assignment = vec![usize::MAX; n];
    let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); seeds.len()];
    for (s, &seed) in seeds.iter().enumerate() {
        assignment[seed] = s;
        queues[s].push_back(seed);
    }
    let mut remaining = n - seeds.len();
    while remaining > 0 {
        let mut progressed = false;
        for (s, queue) in queues.iter_mut().enumerate() {
            // Claim exactly one unassigned neighbour of this shard's
            // frontier; exhausted frontier switches are retired.
            'claim: while let Some(&u) = queue.front() {
                for &v in &adj[u] {
                    if assignment[v] == usize::MAX {
                        assignment[v] = s;
                        queue.push_back(v);
                        remaining -= 1;
                        progressed = true;
                        break 'claim;
                    }
                }
                queue.pop_front();
            }
        }
        if !progressed {
            break; // disconnected leftovers
        }
    }
    // Disconnected leftovers (none for valid instances, but stay total).
    for a in &mut assignment {
        if *a == usize::MAX {
            *a = 0;
        }
    }

    // Refinement: move a switch to the neighbouring shard holding
    // strictly more of its neighbours, while keeping shards within a
    // 2× balance cap. One deterministic pass in id order.
    let cap = (2 * n).div_ceil(seeds.len());
    let mut sizes = vec![0usize; seeds.len()];
    for &a in &assignment {
        sizes[a] += 1;
    }
    let mut counts = vec![0usize; seeds.len()];
    for u in 0..n {
        counts.fill(0);
        for &v in &adj[u] {
            counts[assignment[v]] += 1;
        }
        let here = assignment[u];
        let (best, best_count) = counts
            .iter()
            .enumerate()
            .max_by_key(|&(s, &c)| (c, usize::MAX - s))
            .map(|(s, &c)| (s, c))
            .unwrap_or((here, 0));
        if best != here && best_count > counts[here] && sizes[best] < cap && sizes[here] > 1 {
            sizes[here] -= 1;
            sizes[best] += 1;
            assignment[u] = best;
        }
    }

    finish(net, seeds.len(), assignment, PartitionMethod::GreedyMinCut)
}

fn bfs_distances(adj: &[Vec<usize>], start: usize) -> Vec<usize> {
    let mut dist = vec![usize::MAX / 2; adj.len()];
    let mut queue = VecDeque::new();
    dist[start] = 0;
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        for &v in &adj[u] {
            if dist[v] > dist[u] + 1 {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Splits `instance` into per-shard flow groups over a partition of
/// its topology into up to `target` shards, deriving the shared-link
/// set (links loaded by ≥ 2 shards) with per-shard static needs.
///
/// Each flow goes to the shard owning the majority of its touched
/// switches (ties to the lowest shard id) — flows are never split.
pub fn split_instance(instance: &UpdateInstance, target: usize) -> ShardedInstance {
    let partition = partition_network(&instance.network, target);
    let shards = partition.shards;
    let mut flow_shards: Vec<Vec<usize>> = vec![Vec::new(); shards];
    let mut owner: Vec<usize> = Vec::with_capacity(instance.flows.len());
    let mut votes = vec![0usize; shards];
    for (fi, flow) in instance.flows.iter().enumerate() {
        votes.fill(0);
        for sw in flow.touched_switches() {
            votes[partition.shard_of(sw)] += 1;
        }
        let shard = votes
            .iter()
            .enumerate()
            .max_by_key(|&(s, &c)| (c, usize::MAX - s))
            .map(|(s, _)| s)
            .unwrap_or(0);
        owner.push(shard);
        flow_shards[shard].push(fi);
    }

    // Per-link static needs: demand once per path occupancy. A link
    // becomes shared when two distinct shards both need it.
    let mut needs: BTreeMap<(SwitchId, SwitchId), (Vec<Capacity>, Vec<Capacity>)> = BTreeMap::new();
    for (fi, flow) in instance.flows.iter().enumerate() {
        let shard = owner[fi];
        for path in [&flow.initial, &flow.fin] {
            for (u, v) in path.edges() {
                let entry = needs
                    .entry((u, v))
                    .or_insert_with(|| (vec![0; shards], vec![0; shards]));
                entry.0[shard] += flow.demand;
                entry.1[shard] = entry.1[shard].max(flow.demand);
            }
        }
    }
    let shared_links = needs
        .into_iter()
        .filter(|(_, (need, _))| need.iter().filter(|&&c| c > 0).count() >= 2)
        .map(|((src, dst), (needs, min_needs))| SharedLink {
            src,
            dst,
            capacity: instance.network.capacity(src, dst).unwrap_or(0),
            needs,
            min_needs,
        })
        .collect();

    ShardedInstance {
        partition,
        flow_shards,
        shared_links,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{fat_tree, random_connected, LinkParams, TopologyConfig};
    use crate::{Flow, FlowId, Path};

    fn params() -> LinkParams {
        LinkParams {
            capacity: 1000,
            delay: 1,
        }
    }

    #[test]
    fn fat_tree_partition_detects_pods() {
        let net = fat_tree(4, params());
        let p = partition_network(&net, 4);
        assert_eq!(p.method, PartitionMethod::FatTreePods);
        assert_eq!(p.shards, 4);
        // Every agg/edge pair of one pod shares a shard.
        for pod in 0..4 {
            let agg = net
                .switches()
                .find(|&s| net.switch_name(s) == Some(&format!("agg{}", pod * 2)))
                .unwrap();
            let edge = net
                .switches()
                .find(|&s| net.switch_name(s) == Some(&format!("edge{}", pod * 2)))
                .unwrap();
            assert_eq!(p.shard_of(agg), p.shard_of(edge), "pod {pod}");
        }
        // Pod-interconnect (core) links cross shards; the set is
        // symmetric and non-empty.
        assert!(!p.cross_links.is_empty());
        for &(u, v) in &p.cross_links {
            assert_ne!(p.shard_of(u), p.shard_of(v));
        }
    }

    #[test]
    fn fat_tree_groups_pods_when_fewer_shards_requested() {
        let net = fat_tree(8, params());
        let p = partition_network(&net, 2);
        assert_eq!(p.method, PartitionMethod::FatTreePods);
        assert_eq!(p.shards, 2);
        let mut sizes = [0usize; 2];
        for &a in &p.assignment {
            sizes[a] += 1;
        }
        assert!(sizes[0] > 0 && sizes[1] > 0);
    }

    #[test]
    fn min_cut_fallback_balances_random_graphs() {
        let net = random_connected(TopologyConfig::simulation(64, 7), 32);
        let p = partition_network(&net, 4);
        assert_eq!(p.method, PartitionMethod::GreedyMinCut);
        assert_eq!(p.shards, 4);
        let mut sizes = [0usize; 4];
        for &a in &p.assignment {
            sizes[a] += 1;
        }
        let cap = (2 * 64usize).div_ceil(4);
        for (s, &size) in sizes.iter().enumerate() {
            assert!(size >= 1, "shard {s} empty");
            assert!(size <= cap, "shard {s} oversize: {size}");
        }
        // Cross links are consistent with the assignment.
        for &(u, v) in &p.cross_links {
            assert_ne!(p.shard_of(u), p.shard_of(v));
        }
    }

    #[test]
    fn single_shard_requests_are_trivial() {
        let net = fat_tree(4, params());
        let p = partition_network(&net, 1);
        assert_eq!(p.method, PartitionMethod::Single);
        assert_eq!(p.shards, 1);
        assert!(p.cross_links.is_empty());
    }

    /// Two pod-local flows in different pods plus one cross-pod flow:
    /// the cross-pod flow's links are shared exactly where another
    /// shard also loads them.
    #[test]
    fn split_groups_flows_and_finds_shared_links() {
        let net = fat_tree(4, params());
        let by_name = |n: &str| {
            net.switches()
                .find(|&s| net.switch_name(s) == Some(n))
                .unwrap()
        };
        // Pod 0: edge0 -> agg0 -> edge1, migrate to edge0 -> agg1 -> edge1.
        let f0 = Flow::new(
            FlowId(0),
            100,
            Path::new(vec![by_name("edge0"), by_name("agg0"), by_name("edge1")]),
            Path::new(vec![by_name("edge0"), by_name("agg1"), by_name("edge1")]),
        )
        .unwrap();
        // Pod 1, same shape — oriented so its pod-1 hops share the
        // directed links agg2->edge2 / agg3->edge2 with f2 below.
        let f1 = Flow::new(
            FlowId(1),
            100,
            Path::new(vec![by_name("edge3"), by_name("agg2"), by_name("edge2")]),
            Path::new(vec![by_name("edge3"), by_name("agg3"), by_name("edge2")]),
        )
        .unwrap();
        // Cross-pod: edge0 -> agg0 -> core0 -> agg2 -> edge2 migrating
        // to the agg1/core2/agg3 spine — overlaps f0's pod-0 edge and
        // f1's pod-1 edge.
        let f2 = Flow::new(
            FlowId(2),
            100,
            Path::new(vec![
                by_name("edge0"),
                by_name("agg0"),
                by_name("core0"),
                by_name("agg2"),
                by_name("edge2"),
            ]),
            Path::new(vec![
                by_name("edge0"),
                by_name("agg1"),
                by_name("core2"),
                by_name("agg3"),
                by_name("edge2"),
            ]),
        )
        .unwrap();
        let inst = UpdateInstance::new(net, vec![f0, f1, f2]).unwrap();
        let split = split_instance(&inst, 4);
        assert_eq!(split.partition.method, PartitionMethod::FatTreePods);
        // The pod-local flows land in different shards.
        let shard_of_flow = |fi: usize| {
            split
                .flow_shards
                .iter()
                .position(|fs| fs.contains(&fi))
                .unwrap()
        };
        assert_ne!(shard_of_flow(0), shard_of_flow(1));
        assert!(split.flow_shards.iter().filter(|f| !f.is_empty()).count() >= 2);
        // Shared links exist (the cross-pod flow overlaps both pods)
        // and carry consistent need bounds.
        assert!(!split.shared_links.is_empty());
        for sl in &split.shared_links {
            assert!(sl.users() >= 2, "{}->{} has one user", sl.src, sl.dst);
            assert!(sl.capacity > 0);
            for (n, m) in sl.needs.iter().zip(&sl.min_needs) {
                assert!(m <= n);
            }
        }
        // edge0 -> agg0 is used by f0 and f2 only; both live in pod
        // 0's shard, so the link needs no reservation and must NOT be
        // in the shared set.
        if shard_of_flow(0) == shard_of_flow(2) {
            let edge0 = by_name_in(&inst.network, "edge0");
            let agg0 = by_name_in(&inst.network, "agg0");
            assert!(!split
                .shared_links
                .iter()
                .any(|sl| sl.src == edge0 && sl.dst == agg0));
        }
    }

    fn by_name_in(net: &Network, n: &str) -> SwitchId {
        net.switches()
            .find(|&s| net.switch_name(s) == Some(n))
            .unwrap()
    }
}
