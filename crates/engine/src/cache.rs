//! Memoized time-extended-network construction, kept off every
//! request path.
//!
//! No planner and no daemon path uses this module: every planner
//! works from the `UpdateInstance` directly, and the engine builds no
//! `G_T` window while planning. The type stays only because the
//! benchmark's traced in-process replay still times a lookup through
//! [`TimeNetCache`] / [`CacheKey`] / [`crate::planning_horizon`];
//! ROADMAP item 1(a) drops those timings and deletes this module.
//!
//! [`TimeNetCache`] memoizes the owned [`MaterializedTimeNet`] snapshot
//! per `(topology, flow, horizon)` key across threads. It optionally
//! takes a capacity bound: when set, inserting past it evicts the
//! oldest window (FIFO), counted by [`TimeNetCache::evictions`].
// `flows[0]`: the engine plans single-flow instances (the cache key
// is per-flow by design).
#![allow(clippy::indexing_slicing)]

use crate::pool::lock;
use chronus_net::{Flow, Network, TimeStep, UpdateInstance};
use chronus_timenet::{MaterializedTimeNet, TimeExtendedNetwork};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a over 8-byte words.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn write_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Structural hash of a topology: switch count plus every link's
/// endpoints, capacity and delay, in the network's canonical link
/// order.
pub fn topology_hash(net: &Network) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(net.switch_count() as u64);
    for l in net.links() {
        h.write_u64(u64::from(l.src.0));
        h.write_u64(u64::from(l.dst.0));
        h.write_u64(l.capacity);
        h.write_u64(l.delay);
    }
    h.finish()
}

/// Structural hash of a flow: id, demand and both paths hop by hop.
pub fn flow_signature(flow: &Flow) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(u64::from(flow.id.0));
    h.write_u64(flow.demand);
    for path in [&flow.initial, &flow.fin] {
        h.write_u64(path.hops().len() as u64);
        for hop in path.hops() {
            h.write_u64(u64::from(hop.0));
        }
    }
    h.finish()
}

/// Key of one memoized `G_T` window.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CacheKey {
    /// [`topology_hash`] of the instance's network.
    pub topo_hash: u64,
    /// [`flow_signature`] of the flow being migrated.
    pub flow_sig: u64,
    /// `t_max` of the window (its `t_min` is `-horizon`, mirroring
    /// [`TimeExtendedNetwork::initial_window`]).
    pub horizon: TimeStep,
}

impl CacheKey {
    /// The key for a single-flow instance with the given horizon.
    pub fn for_instance(instance: &UpdateInstance, horizon: TimeStep) -> Self {
        CacheKey {
            topo_hash: topology_hash(&instance.network),
            flow_sig: flow_signature(&instance.flows[0]),
            horizon,
        }
    }
}

/// One window's slot: claimed under the cache lock, filled outside it
/// by whichever thread claimed it while later arrivals wait on it.
type Window = Arc<OnceLock<Arc<MaterializedTimeNet>>>;

/// Map plus FIFO insertion order, under one lock so eviction and
/// lookup agree on membership.
#[derive(Default)]
struct CacheState {
    map: HashMap<CacheKey, Window>,
    order: VecDeque<CacheKey>,
}

/// Shared, thread-safe memoization of materialized `G_T` windows,
/// optionally bounded with FIFO eviction.
#[derive(Default)]
pub struct TimeNetCache {
    entries: Mutex<CacheState>,
    capacity: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl TimeNetCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        TimeNetCache::default()
    }

    /// An empty cache holding at most `capacity` windows (clamped to
    /// ≥ 1); the oldest window is evicted on overflow.
    pub fn bounded(capacity: usize) -> Self {
        TimeNetCache {
            capacity: Some(capacity.max(1)),
            ..TimeNetCache::default()
        }
    }

    /// The capacity bound, `None` when unbounded.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Returns the memoized window for `key`, materializing it from
    /// `instance` on first use. The bool is `true` on a cache hit.
    pub fn get_or_materialize(
        &self,
        key: CacheKey,
        instance: &UpdateInstance,
    ) -> (Arc<MaterializedTimeNet>, bool) {
        let slot = self.claim(key);
        // Materialize outside the lock: windows can be large. Threads
        // racing on the same key build it once — the first fills the
        // slot, the others wait for it — so a window (tens of MB on a
        // fabric-scale topology) is never resident twice.
        let mut built = false;
        let window = slot.get_or_init(|| {
            built = true;
            let reach = key.horizon.max(1);
            let te = TimeExtendedNetwork::new(&instance.network, -reach, reach);
            Arc::new(te.materialize())
        });
        let counter = if built { &self.misses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        (Arc::clone(window), !built)
    }

    /// The slot for `key`, inserted empty (evicting the oldest windows
    /// past the capacity bound) when the key is new.
    fn claim(&self, key: CacheKey) -> Window {
        let mut state = lock(&self.entries);
        if let Some(found) = state.map.get(&key) {
            return Arc::clone(found);
        }
        let slot = Window::default();
        state.map.insert(key, Arc::clone(&slot));
        state.order.push_back(key);
        if let Some(cap) = self.capacity {
            while state.map.len() > cap {
                match state.order.pop_front() {
                    Some(oldest) => {
                        state.map.remove(&oldest);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                    None => break,
                }
            }
        }
        slot
    }

    /// Number of lookups that found a memoized window.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that had to materialize.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of windows evicted by the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of distinct memoized windows.
    pub fn len(&self) -> usize {
        lock(&self.entries).map.len()
    }

    /// `true` when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total approximate heap footprint of the memoized windows.
    pub fn approx_bytes(&self) -> usize {
        lock(&self.entries)
            .map
            .values()
            .filter_map(|slot| slot.get())
            .map(|m| m.approx_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronus_net::motivating_example;

    #[test]
    fn hashes_are_stable_and_discriminating() {
        let a = motivating_example();
        let b = motivating_example();
        assert_eq!(topology_hash(&a.network), topology_hash(&b.network));
        assert_eq!(flow_signature(&a.flows[0]), flow_signature(&b.flows[0]));
        let mut c = motivating_example();
        c.flows[0].demand += 1;
        assert_ne!(flow_signature(&a.flows[0]), flow_signature(&c.flows[0]));
    }

    #[test]
    fn memoizes_by_key() {
        let inst = motivating_example();
        let cache = TimeNetCache::new();
        let key = CacheKey::for_instance(&inst, 4);
        let (first, hit1) = cache.get_or_materialize(key, &inst);
        assert!(!hit1);
        let (second, hit2) = cache.get_or_materialize(key, &inst);
        assert!(hit2);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
        // A different horizon is a different window.
        let (third, hit3) = cache.get_or_materialize(CacheKey::for_instance(&inst, 6), &inst);
        assert!(!hit3);
        assert_ne!(third.t_max(), first.t_max());
        assert_eq!(cache.len(), 2);
        assert!(cache.approx_bytes() > 0);
        assert_eq!(cache.evictions(), 0, "unbounded caches never evict");
    }

    #[test]
    fn bounded_cache_evicts_fifo() {
        let inst = motivating_example();
        let cache = TimeNetCache::bounded(2);
        assert_eq!(cache.capacity(), Some(2));
        for horizon in [3, 4, 5] {
            let key = CacheKey::for_instance(&inst, horizon);
            let (_, hit) = cache.get_or_materialize(key, &inst);
            assert!(!hit);
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        // Oldest (horizon 3) was evicted; newest two still hit.
        let (_, hit) = cache.get_or_materialize(CacheKey::for_instance(&inst, 5), &inst);
        assert!(hit);
        let (_, hit) = cache.get_or_materialize(CacheKey::for_instance(&inst, 4), &inst);
        assert!(hit);
        let (_, miss) = cache.get_or_materialize(CacheKey::for_instance(&inst, 3), &inst);
        assert!(!miss, "horizon 3 was evicted and re-materializes");
        assert_eq!(cache.evictions(), 2);
    }
}
