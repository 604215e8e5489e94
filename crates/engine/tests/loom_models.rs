//! Loom model checks for the engine's concurrency skeleton.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"` (the `loom` CI job).
//! The offline shim in `shims/loom` runs each model body as many
//! real-thread iterations; swapping in the real loom gives exhaustive
//! interleaving enumeration with the same model code.
//!
//! Each model isolates one concurrency invariant the engine relies on:
//!
//! 1. **cursor lanes** — the lanes of a batch claim indices off one
//!    atomic cursor and fill every answer slot exactly once, while a
//!    second batch takes from and returns to the same workspace stack;
//! 2. **cache insert race** — two threads racing a cold
//!    `TimeNetCache` key both leave with the one window either of them
//!    built and the map keeps one entry (no planning path uses the
//!    cache; the model stays as long as the type does).

#![cfg(loom)]

use chronus_engine::{CacheKey, TimeNetCache};
use chronus_net::motivating_example;
use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::{Arc, Mutex};
use loom::thread;

const JOBS: usize = 4;
const WORKERS: usize = 2;

/// One `Engine::plan_batch`, reduced to its invariant: a cursor, one
/// fill count per answer slot, and the engine's shared stack of idle
/// workspaces (here a token each).
struct Batch {
    cursor: AtomicUsize,
    filled: Vec<AtomicUsize>,
}

impl Batch {
    fn new() -> Arc<Self> {
        Arc::new(Batch {
            cursor: AtomicUsize::new(0),
            filled: (0..JOBS).map(|_| AtomicUsize::new(0)).collect(),
        })
    }

    fn lane(&self, idle: &Mutex<Vec<u8>>) {
        let ws = idle.lock().unwrap().pop().unwrap_or_default();
        loop {
            // Relaxed on both, as in the engine: the cursor publishes
            // nothing and the join orders the fills before the reads.
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = self.filled.get(i) else {
                break;
            };
            slot.fetch_add(1, Ordering::Relaxed);
        }
        let mut idle = idle.lock().unwrap();
        if idle.len() < WORKERS {
            idle.push(ws);
        }
    }

    fn assert_every_slot_filled_once(&self) {
        for (i, slot) in self.filled.iter().enumerate() {
            assert_eq!(slot.load(Ordering::Relaxed), 1, "slot {i}");
        }
    }
}

#[test]
fn cursor_lanes_fill_every_slot_once_beside_a_second_batch() {
    loom::model(|| {
        let idle = Arc::new(Mutex::new(Vec::new()));
        let (first, second) = (Batch::new(), Batch::new());
        let spawn_lane = |batch: &Arc<Batch>| {
            let (batch, idle) = (batch.clone(), idle.clone());
            thread::spawn(move || batch.lane(&idle))
        };
        // The first batch's caller is its lane 0, as in the engine;
        // the second batch runs beside it on the same stack.
        let handles = [spawn_lane(&first), spawn_lane(&second)];
        first.lane(&idle);
        for h in handles {
            h.join().unwrap();
        }
        first.assert_every_slot_filled_once();
        second.assert_every_slot_filled_once();
        // Three lanes took a workspace; the stack keeps at most
        // `WORKERS` of them.
        let idle = idle.lock().unwrap().len();
        assert!((1..=WORKERS).contains(&idle), "{idle} idle");
    });
}

#[test]
fn cache_insert_race_keeps_one_entry_and_identical_windows() {
    loom::model(|| {
        let inst = Arc::new(motivating_example());
        let cache = Arc::new(TimeNetCache::new());
        let key = CacheKey::for_instance(&inst, 4);
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| {
                let inst = inst.clone();
                let cache = cache.clone();
                thread::spawn(move || {
                    let (window, _hit) = cache.get_or_materialize(key, &inst);
                    window.t_max()
                })
            })
            .collect();
        let t_maxes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // One racer builds, the others wait for its snapshot, and the
        // map holds one entry.
        assert!(t_maxes.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hits() + cache.misses(), WORKERS as u64);
        assert_eq!(cache.misses(), 1);
    });
}
