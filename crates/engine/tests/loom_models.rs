//! Loom model checks for the engine's concurrency skeleton.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"` (the `loom` CI job).
//! The offline shim in `shims/loom` runs each model body as many
//! real-thread iterations; swapping in the real loom gives exhaustive
//! interleaving enumeration with the same model code.
//!
//! Each model isolates one concurrency invariant the engine relies on:
//!
//! 1. **publish/steal** — every job popped off the shared queue is
//!    answered exactly once, no matter which worker steals it;
//! 2. **cache insert race** — two workers racing a cold cache key both
//!    leave with the one window either of them built and the map keeps
//!    one entry;
//! 3. **shutdown vs enqueue** — closing the job channel after a burst
//!    of sends loses nothing: workers drain the backlog, then exit.

#![cfg(loom)]

use chronus_engine::{CacheKey, TimeNetCache};
use chronus_net::motivating_example;
use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::{Arc, Mutex};
use loom::thread;

const JOBS: usize = 4;
const WORKERS: usize = 2;

#[test]
fn workers_answer_each_stolen_job_exactly_once() {
    loom::model(|| {
        // The engine's MPMC queue, reduced to its invariant: a shared
        // pop-front queue and a shared answer board.
        let queue = Arc::new(Mutex::new((0..JOBS).collect::<Vec<usize>>()));
        let answers = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| {
                let queue = queue.clone();
                let answers = answers.clone();
                thread::spawn(move || loop {
                    let job = queue.lock().unwrap().pop();
                    match job {
                        Some(seq) => answers.lock().unwrap().push(seq),
                        None => break,
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut seen = answers.lock().unwrap().clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..JOBS).collect::<Vec<usize>>());
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

#[test]
fn shutdown_after_enqueue_drains_the_backlog() {
    loom::model(|| {
        let (tx, rx) = loom::sync::mpsc::channel::<usize>();
        let rx = Arc::new(Mutex::new(rx));
        let processed = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| {
                let rx = rx.clone();
                let processed = processed.clone();
                thread::spawn(move || loop {
                    // Lock-then-recv models the engine's shared
                    // receiver; disconnect is the shutdown signal.
                    let msg = rx.lock().unwrap().try_recv();
                    match msg {
                        Ok(_) => {
                            processed.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(std::sync::mpsc::TryRecvError::Empty) => thread::yield_now(),
                        Err(std::sync::mpsc::TryRecvError::Disconnected) => break,
                    }
                })
            })
            .collect();
        for seq in 0..JOBS {
            tx.send(seq).unwrap();
        }
        // Dropping the sender races the workers still draining: the
        // invariant is that disconnect is only observed after the
        // backlog is empty.
        drop(tx);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(processed.load(Ordering::SeqCst), JOBS);
    });
}
