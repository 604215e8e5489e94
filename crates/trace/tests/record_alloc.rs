//! Counting-allocator test for the span record path.
//!
//! Every `chronusd` request records its spans and instants into the
//! flight-recorder ring, so the record path must not touch the heap:
//! fields are packed into the span (or, for an instant, on the stack)
//! and written into a preallocated slot. After one warm-up round has
//! claimed this thread's ring, interned the names and sized the span
//! stack, a second round — a span with two integer fields, a span
//! recording a static name, an instant with two fields — must make no
//! allocation on this thread.
//!
//! (An integration test gets its own binary, so the global allocator
//! here cannot interfere with any other test.)

use chronus_trace::{instant, span, FieldValue, FlightRecorder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by the current thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down at thread exit.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

struct CountingAlloc;

// SAFETY: delegates allocation to `System` unchanged; the counter is a
// thread-local side effect that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards `layout` to `System.alloc` untouched; the
    // caller's layout obligations pass through unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    // SAFETY: forwards `ptr`/`layout` to `System.dealloc`; the caller
    // guarantees `ptr` came from this allocator with that layout.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: forwards to `System.realloc`; the caller guarantees
    // `ptr`/`layout` validity and a nonzero `new_size`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One round of the record path: what a planned request records.
fn record_round(request: u64) {
    let _plan = span!("alloc.plan", request = request, flows = 2u64).entered();
    {
        let mut stage = span!("alloc.stage").entered();
        stage.record("outcome", "won");
    }
    instant!("alloc.refused", request = request, looped = false);
}

#[test]
fn warm_record_path_allocates_nothing() {
    FlightRecorder::enable(64);
    record_round(1);
    let before = ALLOCS.with(Cell::get);
    record_round(2);
    let allocs = ALLOCS.with(Cell::get) - before;
    FlightRecorder::disable();
    assert_eq!(allocs, 0, "the warm record path allocated {allocs} times");

    // The measured round did record, fields and all.
    let snapshot = FlightRecorder::snapshot();
    let args = |name: &str| {
        snapshot
            .events
            .iter()
            .rev()
            .find(|e| e.name == name)
            .map(|e| e.args().to_vec())
    };
    let word = FieldValue::U64;
    assert_eq!(
        args("alloc.plan"),
        Some(vec![("request", word(2)), ("flows", word(2))])
    );
    assert_eq!(
        args("alloc.stage"),
        Some(vec![("outcome", FieldValue::Str("won"))])
    );
    assert_eq!(
        args("alloc.refused"),
        Some(vec![("request", word(2)), ("looped", word(0))])
    );
}
