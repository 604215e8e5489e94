//! Planning holds no time-extended window: a counting global allocator
//! tracks live heap bytes and their high-water mark while the engine
//! plans a fig10-scale route reversal under the daemon's engine config
//! (certification on, the default slack policy).
//!
//! Planning itself peaks ≈ 11 MB above the baseline on this instance.
//! Materializing the instance's `G_T` window for the request — what the
//! chain used to do first thing — lifts that to ≈ 36 MB. The bound sits
//! between: ≥ 1.5× headroom over the first, 1.5× under the second.
//!
//! (An integration test gets its own binary and this one holds a single
//! test, so nothing else allocates while the peak is measured.)

use chronus_engine::{Engine, EngineConfig, SlackPolicy, UpdateRequest};
use chronus_net::reversal_instance;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct PeakAlloc;

impl PeakAlloc {
    fn grew(by: usize) {
        let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    fn shrank(by: usize) {
        LIVE.fetch_sub(by, Ordering::Relaxed);
    }
}

// SAFETY: delegates allocation to `System` unchanged; the byte counts
// are relaxed atomic side effects.
unsafe impl GlobalAlloc for PeakAlloc {
    // SAFETY: forwards `layout` to `System.alloc` untouched; the
    // caller's layout obligations pass through unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            PeakAlloc::grew(layout.size());
        }
        ptr
    }

    // SAFETY: forwards `ptr`/`layout` to `System.dealloc`; the caller
    // guarantees `ptr` came from this allocator with that layout.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        PeakAlloc::shrank(layout.size());
        System.dealloc(ptr, layout)
    }

    // SAFETY: forwards to `System.realloc`; the caller guarantees
    // `ptr`/`layout` validity and a nonzero `new_size`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            PeakAlloc::grew(new_size);
            PeakAlloc::shrank(layout.size());
        }
        moved
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// Peak live heap above the pre-plan baseline must stay under this.
const BOUND_BYTES: usize = 24_000_000;

#[test]
fn planning_a_fabric_scale_reversal_holds_no_window() {
    let config = EngineConfig::with_workers(2).with_slack(SlackPolicy::default());
    let engine = Engine::new(config);
    let instance = Arc::new(reversal_instance(256, 2, 1));

    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    for id in 0..2 {
        let request = UpdateRequest::new(id, Arc::clone(&instance), Duration::from_secs(600));
        let planned = engine.plan_one(request);
        assert!(planned.timed_schedule().is_ok(), "{:?}", planned.winner);
        assert!(planned.certificate.is_some());
    }
    let above = PEAK.load(Ordering::Relaxed) - baseline;
    println!(
        "peak live heap above baseline: {:.2} MB (bound {:.0} MB)",
        above as f64 / 1e6,
        BOUND_BYTES as f64 / 1e6
    );
    assert!(
        above < BOUND_BYTES,
        "planning peaked {above} B above its baseline (bound {BOUND_BYTES} B): \
         something on the request path holds an instance-sized buffer again"
    );
}
