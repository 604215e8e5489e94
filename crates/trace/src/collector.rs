//! The global span collector.
//!
//! Spans record themselves here when (and only when) a collector is
//! installed. The uninstalled fast path — the steady state of every
//! production run and benchmark — is a single relaxed atomic load per
//! span site. Installation is process-global and scoped by a guard;
//! the engine's planning threads, the solvers and the emulator all feed
//! the same sink, with per-thread parent linkage.

use crate::fields::FieldValue;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// What a [`SpanRecord`] describes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpanKind {
    /// A duration span with distinct start and stop times.
    Complete,
    /// A zero-duration point event.
    Instant,
}

/// One finished span (or instant event) as the collector stores it.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Enclosing span's id at open time, if any (thread-local stack).
    pub parent: Option<u64>,
    /// Static span name, `"<crate>.<site>"` by convention.
    pub name: &'static str,
    /// `key = value` fields, in recording order.
    pub fields: Vec<(&'static str, FieldValue)>,
    /// Monotonic start nanos (see [`crate::now_ns`]).
    pub start_ns: u64,
    /// Monotonic stop nanos (equals `start_ns` for instants).
    pub end_ns: u64,
    /// Dense id of the recording thread (see [`thread_id`]).
    pub thread: u64,
    /// Complete span or instant event.
    pub kind: SpanKind,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);
static SINK: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
}

/// A small dense id for the calling thread, stable for the thread's
/// lifetime — the `tid` of every record it produces.
pub fn thread_id() -> u64 {
    THREAD_ID.with(|id| *id)
}

/// Handle to the process-global span sink.
pub struct Collector;

impl Collector {
    /// Installs the collector, clearing any stale records. Recording
    /// stays on until the returned guard is dropped.
    ///
    /// Installation is idempotent but not reference-counted: the first
    /// guard dropped turns recording off, so scope one collector per
    /// process (tests that need one serialize on their own lock).
    #[must_use = "recording stops when the guard is dropped"]
    pub fn install() -> CollectorGuard {
        SINK.lock().unwrap_or_else(PoisonError::into_inner).clear();
        ENABLED.store(true, Ordering::SeqCst);
        CollectorGuard { _priv: () }
    }

    /// `true` while a collector is installed (the span fast-path
    /// probe).
    #[inline]
    pub fn is_enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Takes every record collected so far, leaving the sink empty
    /// (recording continues if a guard is still live).
    pub fn drain() -> Vec<SpanRecord> {
        std::mem::take(&mut SINK.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Number of records currently in the sink.
    pub fn len() -> usize {
        SINK.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// Mints a fresh process-unique span id.
    pub(crate) fn next_id() -> u64 {
        NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
    }

    /// Appends a finished record to the sink.
    pub(crate) fn push(record: SpanRecord) {
        if Self::is_enabled() {
            SINK.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(record);
        }
    }

    /// Records a zero-duration instant event parented to the current
    /// span stack top (used by the `instant!` macro). Feeds both the
    /// collector sink (when installed) and the flight-recorder ring
    /// (when on); the ring copy keeps the first two numeric fields.
    pub fn record_instant(name: &'static str, fields: Vec<(&'static str, FieldValue)>) {
        let sink = Self::is_enabled();
        let ring = crate::ring::ring_on();
        if !sink && !ring {
            return;
        }
        let now = crate::now_ns();
        let id = Self::next_id();
        let parent = crate::span::current_span_id();
        if ring {
            let mut args: Vec<(&'static str, u64)> = Vec::with_capacity(2);
            for (key, value) in &fields {
                if args.len() == 2 {
                    break;
                }
                if let Some(word) = value.as_ring_word() {
                    args.push((key, word));
                }
            }
            crate::ring::record_instant_event(name, id, parent, now, &args);
        }
        if sink {
            Self::push(SpanRecord {
                id,
                parent,
                name,
                fields,
                start_ns: now,
                end_ns: now,
                thread: thread_id(),
                kind: SpanKind::Instant,
            });
        }
    }
}

/// Scope guard returned by [`Collector::install`]; dropping it stops
/// recording (collected records stay drainable).
pub struct CollectorGuard {
    _priv: (),
}

impl Drop for CollectorGuard {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::SeqCst);
    }
}

// The collector is process-global; tests that install it serialize on
// this lock (shared with span.rs's tests).
#[cfg(test)]
pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_guard_scopes_recording() {
        let _l = super::TEST_LOCK
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        assert!(!Collector::is_enabled());
        {
            let _g = Collector::install();
            assert!(Collector::is_enabled());
            Collector::record_instant("t.instant", vec![("k", FieldValue::U64(1))]);
            assert_eq!(Collector::len(), 1);
        }
        assert!(!Collector::is_enabled());
        let drained = Collector::drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].name, "t.instant");
        assert_eq!(drained[0].kind, SpanKind::Instant);
        assert_eq!(drained[0].start_ns, drained[0].end_ns);
        assert_eq!(Collector::len(), 0);
    }

    #[test]
    fn thread_ids_are_dense_and_stable() {
        let a = thread_id();
        let b = thread_id();
        assert_eq!(a, b);
        let other = std::thread::spawn(thread_id).join().unwrap();
        assert_ne!(a, other);
    }
}
