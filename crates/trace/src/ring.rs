//! The flight recorder: an always-on, fixed-memory event ring.
//!
//! The [`Collector`](crate::Collector) answers "show me everything
//! that happened in this short run"; the flight recorder answers "what
//! were the last N things that happened before the process got into
//! trouble" — continuously, in production, with bounded memory and no
//! locks on the record path.
//!
//! ## Ring layout
//!
//! Each recording thread owns one [`ThreadRing`]: a power-of-two array
//! of 8-word slots, each word an `AtomicU64`:
//!
//! ```text
//! [ stamp | meta | id | parent | start_ns | end_ns | arg0 | arg1 ]
//! ```
//!
//! `stamp` doubles as a per-slot seqlock and a global ordering key: a
//! process-wide sequencer hands out unique, monotonically increasing
//! stamps, the writer parks the slot at `stamp = 0` while overwriting
//! the payload, and a reader accepts a slot only when the stamp it saw
//! before reading the payload equals the stamp it sees after. Stamps
//! are never reused, so a stable nonzero stamp proves the payload is
//! the coherent event that stamp names — no ABA window. The writer is
//! always the ring's owning thread (SPSC), readers are snapshotters.
//!
//! A ring outlives its thread only until another thread needs one: the
//! registry keeps an exited thread's ring — its events stay
//! snapshotable until overwritten — and hands it to the next thread
//! that records its first event (see `claim_ring`). The registry is
//! therefore bounded by the peak number of concurrently live recording
//! threads, not by how many threads ever recorded.
//!
//! `meta` packs the event kind, the interned name and field keys, the
//! dense thread id and the live-arg count; see [`pack_meta`]. Up to
//! two numeric fields ride along in `arg0`/`arg1` — enough for the
//! `request = id` style fields the hot spans carry — and everything
//! else is dropped rather than allocated for.
//!
//! Overwrite-oldest semantics fall out of the layout: the ring head is
//! a monotone event count, the slot index is `head & mask`, and the
//! drop count is exactly `emitted - recorded` (events whose slots have
//! been reused). [`FlightRecorder::snapshot`] reassembles every ring
//! into one time-ordered event list with per-ring drop accounting.
//!
//! ## Dumps and triggers
//!
//! [`FlightRecorder::trigger`] writes a forensic dump — the
//! reassembled timeline as Chrome trace-event JSON plus a metrics
//! snapshot under a `chronusMeta` key — atomically (tmp + rename, the
//! journal's discipline) and rate-limited so a trigger storm produces
//! one dump, not hundreds. [`FlightRecorder::force_dump`] bypasses the
//! rate limit for operator-initiated dumps (SIGUSR1, `chronusctl
//! dump`). DESIGN.md §16 catalogues the trigger taxonomy.

use crate::collector::thread_id;
use crate::fields::FieldValue;
use crate::json;
use crate::timeline::TimelineExporter;
use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Event kinds a ring slot can hold.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlightEventKind {
    /// A completed duration span.
    Span,
    /// A zero-duration point event.
    Instant,
    /// A sampled counter value (value in `args[0]`).
    Counter,
}

/// One event reassembled from a ring by [`FlightRecorder::snapshot`].
#[derive(Clone, Debug)]
pub struct FlightEvent {
    /// Global sequence stamp (process-unique, monotone).
    pub seq: u64,
    /// Span, instant or counter.
    pub kind: FlightEventKind,
    /// Interned event name.
    pub name: &'static str,
    /// Span id (0 for counters).
    pub id: u64,
    /// Parent span id, if the event had an enclosing span.
    pub parent: Option<u64>,
    /// Monotonic start nanos ([`crate::now_ns`] clock).
    pub start_ns: u64,
    /// Monotonic end nanos (== `start_ns` for instants/counters).
    pub end_ns: u64,
    /// Dense id of the recording thread.
    pub tid: u64,
    /// Up to two numeric fields that rode along in the slot.
    pub args: Vec<(&'static str, u64)>,
}

/// Per-ring accounting attached to a snapshot.
#[derive(Clone, Copy, Debug)]
pub struct RingStats {
    /// Dense thread id of the ring's owner.
    pub tid: u64,
    /// Events ever written to this ring.
    pub emitted: u64,
    /// Events still resident and coherently readable.
    pub recorded: u64,
    /// Events lost to overwriting: exactly `emitted - recorded` once
    /// the ring has quiesced.
    pub dropped: u64,
}

/// A point-in-time reassembly of every thread ring.
#[derive(Clone, Debug, Default)]
pub struct FlightSnapshot {
    /// All coherently-read events, time-ordered (`start_ns`, then
    /// stamp order for ties).
    pub events: Vec<FlightEvent>,
    /// Per-ring emitted/recorded/dropped accounting.
    pub rings: Vec<RingStats>,
}

// ---------------------------------------------------------------------------
// Meta-word packing.
// ---------------------------------------------------------------------------

const KIND_SHIFT: u32 = 62;
const ARGC_SHIFT: u32 = 60;
const NAME_SHIFT: u32 = 48;
const KEY0_SHIFT: u32 = 36;
const KEY1_SHIFT: u32 = 24;
const FIELD_MASK: u64 = 0xfff; // 12-bit interned-name space
const TID_MASK: u64 = 0xff_ffff; // 24-bit thread ids

/// Packs kind/argc/name/keys/tid into the slot's meta word:
/// `kind:2 | argc:2 | name:12 | key0:12 | key1:12 | tid:24`.
fn pack_meta(kind: FlightEventKind, argc: u64, name: u64, key0: u64, key1: u64, tid: u64) -> u64 {
    let k = match kind {
        FlightEventKind::Span => 0u64,
        FlightEventKind::Instant => 1,
        FlightEventKind::Counter => 2,
    };
    (k << KIND_SHIFT)
        | ((argc & 0x3) << ARGC_SHIFT)
        | ((name & FIELD_MASK) << NAME_SHIFT)
        | ((key0 & FIELD_MASK) << KEY0_SHIFT)
        | ((key1 & FIELD_MASK) << KEY1_SHIFT)
        | (tid & TID_MASK)
}

fn unpack_kind(meta: u64) -> FlightEventKind {
    match meta >> KIND_SHIFT {
        0 => FlightEventKind::Span,
        1 => FlightEventKind::Instant,
        _ => FlightEventKind::Counter,
    }
}

// ---------------------------------------------------------------------------
// Name interning: &'static str → small id, id → &'static str.
// ---------------------------------------------------------------------------

/// Global intern table. Index `i` holds the name with id `i + 1`; id 0
/// is reserved for "unknown" (table overflow past the 12-bit space).
static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

thread_local! {
    /// Per-thread intern cache keyed by the string's address — static
    /// names have stable addresses, so the global lock is touched at
    /// most once per distinct name per thread.
    static NAME_CACHE: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Interns a static name, returning its small id (0 when the table is
/// full — the reader then renders the name as `"?"`).
fn intern(name: &'static str) -> u64 {
    let key = name.as_ptr() as usize;
    NAME_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(&(_, id)) = cache.iter().find(|&&(k, _)| k == key) {
            return id;
        }
        let mut table = NAMES.lock().unwrap_or_else(PoisonError::into_inner);
        let id = match table.iter().position(|&n| n == name) {
            Some(i) => i as u64 + 1,
            None if (table.len() as u64) < FIELD_MASK => {
                table.push(name);
                table.len() as u64
            }
            None => 0,
        };
        drop(table);
        cache.push((key, id));
        id
    })
}

/// Resolves an interned id back to its name.
fn resolve(id: u64) -> &'static str {
    if id == 0 {
        return "?";
    }
    NAMES
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(id as usize - 1)
        .copied()
        .unwrap_or("?")
}

// ---------------------------------------------------------------------------
// The per-thread ring.
// ---------------------------------------------------------------------------

/// One 8-word event slot. The words are named rather than indexed so
/// the record path is plain field access — no bounds checks, no
/// indexing.
#[derive(Default)]
struct Slot {
    stamp: AtomicU64,
    meta: AtomicU64,
    id: AtomicU64,
    parent: AtomicU64,
    start: AtomicU64,
    end: AtomicU64,
    arg0: AtomicU64,
    arg1: AtomicU64,
}

/// A single thread's event ring (SPSC: the owning thread writes,
/// snapshotters read).
struct ThreadRing {
    /// Dense id of the current owner; rewritten when an exited
    /// thread's ring is adopted, so events written from then on carry
    /// the adopter's id.
    tid: u64,
    mask: u64,
    /// Total events ever written (the drop ledger's "emitted").
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl ThreadRing {
    fn new(tid: u64, slots: usize) -> Self {
        let n = slots.next_power_of_two().max(8);
        let mut v = Vec::with_capacity(n);
        v.resize_with(n, Slot::default);
        ThreadRing {
            tid,
            mask: n as u64 - 1,
            head: AtomicU64::new(0),
            slots: v.into_boxed_slice(),
        }
    }

    /// Writes one event. Owning thread only — the slot seqlock assumes
    /// a single writer.
    #[allow(clippy::too_many_arguments)]
    fn write(
        &self,
        kind: FlightEventKind,
        name_id: u64,
        keys: [u64; 2],
        argc: u64,
        id: u64,
        parent: u64,
        start: u64,
        end: u64,
        args: [u64; 2],
    ) {
        let seq = GLOBAL_SEQ.fetch_add(1, Ordering::Relaxed);
        let n = self.head.load(Ordering::Relaxed);
        if let Some(slot) = self.slots.get((n & self.mask) as usize) {
            // Seqlock write: park the slot at stamp 0, publish the
            // payload, then publish the new stamp. The release fence
            // keeps the park visible before any payload store; the
            // release store keeps the payload visible before the new
            // stamp.
            slot.stamp.store(0, Ordering::Relaxed);
            fence(Ordering::Release);
            slot.meta.store(
                pack_meta(kind, argc, name_id, keys[0], keys[1], self.tid),
                Ordering::Relaxed,
            );
            slot.id.store(id, Ordering::Relaxed);
            slot.parent.store(parent, Ordering::Relaxed);
            slot.start.store(start, Ordering::Relaxed);
            slot.end.store(end, Ordering::Relaxed);
            slot.arg0.store(args[0], Ordering::Relaxed);
            slot.arg1.store(args[1], Ordering::Relaxed);
            slot.stamp.store(seq, Ordering::Release);
            self.head.store(n + 1, Ordering::Release);
        }
    }

    /// Seqlock read of one slot; `None` when empty or mid-overwrite.
    fn read_slot(&self, slot: &Slot) -> Option<FlightEvent> {
        let s1 = slot.stamp.load(Ordering::Acquire);
        if s1 == 0 {
            return None;
        }
        let meta = slot.meta.load(Ordering::Relaxed);
        let id = slot.id.load(Ordering::Relaxed);
        let parent = slot.parent.load(Ordering::Relaxed);
        let start = slot.start.load(Ordering::Relaxed);
        let end = slot.end.load(Ordering::Relaxed);
        let a0 = slot.arg0.load(Ordering::Relaxed);
        let a1 = slot.arg1.load(Ordering::Relaxed);
        fence(Ordering::Acquire);
        let s2 = slot.stamp.load(Ordering::Relaxed);
        if s1 != s2 {
            return None;
        }
        let argc = ((meta >> ARGC_SHIFT) & 0x3) as usize;
        let mut args = Vec::with_capacity(argc);
        if argc >= 1 {
            args.push((resolve((meta >> KEY0_SHIFT) & FIELD_MASK), a0));
        }
        if argc >= 2 {
            args.push((resolve((meta >> KEY1_SHIFT) & FIELD_MASK), a1));
        }
        Some(FlightEvent {
            seq: s1,
            kind: unpack_kind(meta),
            name: resolve((meta >> NAME_SHIFT) & FIELD_MASK),
            id,
            parent: if parent == 0 { None } else { Some(parent) },
            start_ns: start,
            end_ns: end,
            tid: meta & TID_MASK,
            args,
        })
    }
}

// ---------------------------------------------------------------------------
// Global recorder state.
// ---------------------------------------------------------------------------

/// Global event sequencer: unique nonzero stamps across all rings.
static GLOBAL_SEQ: AtomicU64 = AtomicU64::new(1);

/// Master on/off switch — the record-path probe.
static RING_ON: AtomicBool = AtomicBool::new(false);

/// Slots per ring (set by [`FlightRecorder::enable`]).
static RING_SLOTS: AtomicU64 = AtomicU64::new(4096);

/// Every ring in use, plus the rings of exited threads that no later
/// thread has adopted yet (late snapshots still see their events).
static REGISTRY: Mutex<Vec<Arc<ThreadRing>>> = Mutex::new(Vec::new());

/// Dump directory, metrics source and dump bookkeeping.
static DUMP_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);
#[allow(clippy::type_complexity)]
static METRICS_SOURCE: Mutex<Option<Box<dyn Fn() -> String + Send + Sync>>> = Mutex::new(None);
static LAST_DUMP_NS: AtomicU64 = AtomicU64::new(0);
static MIN_DUMP_INTERVAL_NS: AtomicU64 = AtomicU64::new(2_000_000_000);
static DUMPS_WRITTEN: AtomicU64 = AtomicU64::new(0);
static DUMPS_SUPPRESSED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_RING: RefCell<Option<Arc<ThreadRing>>> = const { RefCell::new(None) };
}

/// `true` while the ring is recording (one relaxed load — the span
/// fast-path probe alongside [`crate::Collector::is_enabled`]).
#[inline]
pub(crate) fn ring_on() -> bool {
    RING_ON.load(Ordering::Relaxed)
}

/// Runs `f` against the calling thread's ring, claiming one on first
/// use.
fn with_ring(f: impl FnOnce(&ThreadRing)) {
    THREAD_RING.with(|cell| f(cell.borrow_mut().get_or_insert_with(claim_ring)));
}

/// A ring for the calling thread: the ring of an exited thread when
/// the registry holds one of the configured size, a freshly registered
/// one otherwise.
///
/// A thread's only handle on its ring is the `THREAD_RING` slot, which
/// its TLS destructor drops at exit; after that the registry's `Arc` is
/// the only one and [`Arc::get_mut`] succeeds. Its uniqueness check
/// acquires the count that destructor released, so every store the
/// dead thread made to the ring happens-before the adopter's first
/// write, and the exclusive borrow rules out a second adopter or a
/// live owner: each slot still has exactly one writer at a time, which
/// is all the seqlock assumes. A snapshot's temporary clones can only
/// make a dead ring look live for a moment, never the reverse.
fn claim_ring() -> Arc<ThreadRing> {
    let tid = thread_id();
    let slots = RING_SLOTS.load(Ordering::Relaxed) as usize;
    let mut registry = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    for ring in registry.iter_mut() {
        if let Some(orphan) = Arc::get_mut(ring).filter(|r| r.slots.len() == slots) {
            orphan.tid = tid;
            return Arc::clone(ring);
        }
    }
    let ring = Arc::new(ThreadRing::new(tid, slots));
    registry.push(Arc::clone(&ring));
    ring
}

/// Intern up to two numeric args into slot form.
fn pack_args(args: &[(&'static str, u64)]) -> ([u64; 2], [u64; 2], u64) {
    let mut keys = [0u64; 2];
    let mut vals = [0u64; 2];
    let argc = args.len().min(2) as u64;
    for (i, (k, v)) in args.iter().take(2).enumerate() {
        if let (Some(ks), Some(vs)) = (keys.get_mut(i), vals.get_mut(i)) {
            *ks = intern(k);
            *vs = *v;
        }
    }
    (keys, vals, argc)
}

/// Records a completed span into the calling thread's ring. No-op
/// while the recorder is off.
pub(crate) fn record_span_event(
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    start_ns: u64,
    end_ns: u64,
    args: &[(&'static str, u64)],
) {
    if !ring_on() {
        return;
    }
    let name_id = intern(name);
    let (keys, vals, argc) = pack_args(args);
    with_ring(|ring| {
        ring.write(
            FlightEventKind::Span,
            name_id,
            keys,
            argc,
            id,
            parent.unwrap_or(0),
            start_ns,
            end_ns,
            vals,
        )
    });
}

/// Records an instant event into the calling thread's ring.
pub(crate) fn record_instant_event(
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    ts_ns: u64,
    args: &[(&'static str, u64)],
) {
    if !ring_on() {
        return;
    }
    let name_id = intern(name);
    let (keys, vals, argc) = pack_args(args);
    with_ring(|ring| {
        ring.write(
            FlightEventKind::Instant,
            name_id,
            keys,
            argc,
            id,
            parent.unwrap_or(0),
            ts_ns,
            ts_ns,
            vals,
        )
    });
}

/// The always-on flight recorder: process-global facade over the
/// per-thread rings, dump triggers and forensic dump writer.
pub struct FlightRecorder;

impl FlightRecorder {
    /// Turns the recorder on with `slots_per_ring` slots per thread
    /// ring (rounded up to a power of two, min 8). Each slot is 64
    /// bytes, so the default 4096 slots cost 256 KiB per concurrently
    /// live recording thread. Idempotent; rings already created keep
    /// their size, and only rings of the current size are re-used.
    pub fn enable(slots_per_ring: usize) {
        RING_SLOTS.store(
            slots_per_ring.next_power_of_two().max(8) as u64,
            Ordering::Relaxed,
        );
        RING_ON.store(true, Ordering::SeqCst);
    }

    /// Stops recording (rings and their contents stay snapshotable).
    pub fn disable() {
        RING_ON.store(false, Ordering::SeqCst);
    }

    /// `true` while the recorder is on.
    #[inline]
    pub fn is_on() -> bool {
        ring_on()
    }

    /// Sets the directory forensic dumps are written into (created on
    /// first dump).
    pub fn set_dump_dir(dir: impl Into<PathBuf>) {
        *DUMP_DIR.lock().unwrap_or_else(PoisonError::into_inner) = Some(dir.into());
    }

    /// Minimum spacing between triggered dumps (default 2 s); a
    /// trigger storm inside the window is counted, not dumped.
    // chronus-lint: allow(dead-pub) — read by crates/daemon/tests/flight_recorder.rs
    pub fn set_min_dump_interval_ms(ms: u64) {
        MIN_DUMP_INTERVAL_NS.store(ms.saturating_mul(1_000_000), Ordering::Relaxed);
    }

    /// Registers the closure that renders the process's metrics as a
    /// JSON object for embedding in dumps (the daemon points this at
    /// its [`crate::MetricsRegistry`] snapshot).
    pub fn set_metrics_source(f: Box<dyn Fn() -> String + Send + Sync>) {
        *METRICS_SOURCE
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(f);
    }

    /// Installs a panic hook that writes a forensic dump (trigger
    /// `"panic"`) before delegating to the previous hook.
    pub fn install_panic_hook() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let _ = FlightRecorder::force_dump("panic");
            prev(info);
        }));
    }

    /// Number of dumps written so far.
    pub fn dumps_written() -> u64 {
        DUMPS_WRITTEN.load(Ordering::Relaxed)
    }

    /// Number of triggers suppressed by the rate limit.
    pub fn dumps_suppressed() -> u64 {
        DUMPS_SUPPRESSED.load(Ordering::Relaxed)
    }

    /// Reassembles every registered ring into one time-ordered snapshot
    /// with per-ring drop accounting. Safe to call concurrently with
    /// recording; slots mid-overwrite are skipped (they are counted as
    /// dropped, matching the overwrite that is busy claiming them).
    pub fn snapshot() -> FlightSnapshot {
        let rings: Vec<Arc<ThreadRing>> = REGISTRY
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let mut events = Vec::new();
        let mut stats = Vec::with_capacity(rings.len());
        for ring in &rings {
            let mut recorded = 0u64;
            for slot in ring.slots.iter() {
                if let Some(event) = ring.read_slot(slot) {
                    events.push(event);
                    recorded += 1;
                }
            }
            let emitted = ring.head.load(Ordering::Acquire);
            stats.push(RingStats {
                tid: ring.tid,
                emitted,
                recorded,
                dropped: emitted.saturating_sub(recorded),
            });
        }
        events.sort_by_key(|e| (e.start_ns, e.seq));
        FlightSnapshot {
            events,
            rings: stats,
        }
    }

    /// Every recorded event with stamp greater than `cursor`, in stamp
    /// order, plus the greatest stamp seen (pass it back as the next
    /// cursor). The live-tail primitive behind `chronusctl tail`.
    pub fn events_since(cursor: u64) -> (Vec<FlightEvent>, u64) {
        let mut events: Vec<FlightEvent> = Self::snapshot()
            .events
            .into_iter()
            .filter(|e| e.seq > cursor)
            .collect();
        events.sort_by_key(|e| e.seq);
        let max = events.last().map(|e| e.seq).unwrap_or(cursor);
        (events, max)
    }

    /// Renders the current snapshot as a Perfetto-loadable forensic
    /// dump: Chrome trace events (spans `"X"`, instants `"i"`,
    /// counters `"C"`), the trigger as a marked `flightrec.trigger`
    /// instant, and a `chronusMeta` object carrying the trigger,
    /// per-ring drop ledger and the registered metrics snapshot.
    pub fn snapshot_json(trigger: &str) -> String {
        let snap = Self::snapshot();
        let mut tl = TimelineExporter::new();
        tl.process_name("chronus flight record");
        let mut tids: Vec<u64> = snap.rings.iter().map(|r| r.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in tids {
            tl.thread_name(tid, &format!("ring-{tid}"));
        }
        for e in &snap.events {
            let mut fields: Vec<(&str, FieldValue)> = vec![("seq", FieldValue::U64(e.seq))];
            for (k, v) in &e.args {
                fields.push((k, FieldValue::U64(*v)));
            }
            match e.kind {
                FlightEventKind::Span => tl.ring_span(e, &fields),
                FlightEventKind::Instant => tl.ring_instant(e, &fields),
                FlightEventKind::Counter => tl.counter(
                    e.name,
                    e.start_ns,
                    e.args.first().map(|a| a.1).unwrap_or(0) as f64,
                ),
            }
        }
        tl.instant(
            "flightrec.trigger",
            crate::now_ns(),
            0,
            &[("reason", FieldValue::from(trigger))],
        );
        let rings_json: Vec<String> = snap
            .rings
            .iter()
            .map(|r| {
                format!(
                    "{{\"tid\":{},\"emitted\":{},\"recorded\":{},\"dropped\":{}}}",
                    r.tid, r.emitted, r.recorded, r.dropped
                )
            })
            .collect();
        let metrics = METRICS_SOURCE
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map(|f| f())
            .unwrap_or_else(|| "null".to_owned());
        let meta = format!(
            "{{\"trigger\":{},\"events\":{},\"rings\":[{}],\"metrics\":{}}}",
            json::string(trigger),
            snap.events.len(),
            rings_json.join(","),
            metrics
        );
        tl.to_json_with_meta(&meta)
    }

    /// Fires a trigger: writes a forensic dump unless one was written
    /// less than the configured interval ago (then the trigger is
    /// counted as suppressed). Returns the dump path when one was
    /// written. No-op (None) while the recorder is off or no dump
    /// directory is configured.
    pub fn trigger(reason: &str) -> Option<PathBuf> {
        if !ring_on() {
            return None;
        }
        let now = crate::now_ns();
        let last = LAST_DUMP_NS.load(Ordering::Relaxed);
        let min = MIN_DUMP_INTERVAL_NS.load(Ordering::Relaxed);
        if last != 0 && now.saturating_sub(last) < min {
            DUMPS_SUPPRESSED.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        if LAST_DUMP_NS
            .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            // Another trigger won the race inside this window.
            DUMPS_SUPPRESSED.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        Self::force_dump(reason).ok()
    }

    /// Writes a forensic dump unconditionally (operator-initiated:
    /// SIGUSR1, `chronusctl dump`, the panic hook). The dump is
    /// written to a temp file in the dump directory and renamed into
    /// place so readers never observe a partial file.
    pub fn force_dump(reason: &str) -> std::io::Result<PathBuf> {
        let dir = DUMP_DIR
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::NotFound,
                    "flight dump dir not configured",
                )
            })?;
        std::fs::create_dir_all(&dir)?;
        let n = DUMPS_WRITTEN.fetch_add(1, Ordering::Relaxed);
        let slug: String = reason
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '-'
                }
            })
            .take(40)
            .collect();
        let name = format!("flight-{n:04}-{slug}.json");
        let doc = Self::snapshot_json(reason);
        let tmp = dir.join(format!(".{name}.tmp"));
        std::fs::write(&tmp, doc.as_bytes())?;
        let path = dir.join(&name);
        std::fs::rename(&tmp, &path)?;
        LAST_DUMP_NS.store(crate::now_ns(), Ordering::Relaxed);
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::PoisonError;

    /// The recorder is process-global, so tests that flip it on or off
    /// serialize on the collector's test lock (shared with span.rs's
    /// tests) and use a per-test event-name prefix.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        crate::collector::TEST_LOCK
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
    fn my_events(snap: &FlightSnapshot, prefix: &str) -> Vec<FlightEvent> {
        snap.events
            .iter()
            .filter(|e| e.name.starts_with(prefix))
            .cloned()
            .collect()
    }

    #[test]
    fn records_and_reassembles_in_order() {
        let _l = lock();
        FlightRecorder::enable(64);
        record_span_event("ringorder.outer", 9001, None, 100, 500, &[("req", 7)]);
        record_instant_event(
            "ringorder.tick",
            9002,
            Some(9001),
            200,
            &[("at", 42), ("n", 3)],
        );
        record_span_event("ringorder.inner", 9003, Some(9001), 250, 400, &[]);
        let snap = FlightRecorder::snapshot();
        let mine = my_events(&snap, "ringorder.");
        assert_eq!(mine.len(), 3);
        // Time-ordered by start_ns.
        assert_eq!(mine[0].name, "ringorder.outer");
        assert_eq!(mine[1].name, "ringorder.tick");
        assert_eq!(mine[2].name, "ringorder.inner");
        assert_eq!(mine[0].args, vec![("req", 7)]);
        assert_eq!(mine[1].args, vec![("at", 42), ("n", 3)]);
        assert_eq!(mine[1].kind, FlightEventKind::Instant);
        assert_eq!(mine[1].parent, Some(9001));
        assert_eq!(mine[2].end_ns, 400);
        // Stamps are unique and reflect write order within a thread.
        assert!(mine[0].seq < mine[1].seq && mine[1].seq < mine[2].seq);
        FlightRecorder::disable();
    }

    /// This thread's ring accounting (it must have recorded already).
    fn my_ring() -> Option<RingStats> {
        let my_tid = thread_id();
        FlightRecorder::snapshot()
            .rings
            .into_iter()
            .find(|r| r.tid == my_tid)
    }

    #[test]
    fn overwrite_oldest_drops_are_exact() {
        let _l = lock();
        FlightRecorder::enable(64);
        // A dedicated thread gets a ring of the configured capacity —
        // fresh, or adopted from an exited thread with its ledger
        // running — so the flood is measured from its first event on.
        let stats = std::thread::spawn(|| {
            let cap = 64u64; // enable() rounded to a power of two ≥ 8
            record_span_event("ringflood.claim", 9_999, None, 0, 1, &[]);
            let before = my_ring()?;
            for i in 0..cap + 17 {
                record_span_event("ringflood.flood", 10_000 + i, None, i, i + 1, &[]);
            }
            Some((before, my_ring()?))
        })
        .join()
        .ok()
        .flatten();
        let (before, after) = stats.unwrap();
        assert_eq!(after.emitted - before.emitted, 64 + 17);
        assert_eq!(after.recorded, 64);
        assert_eq!(after.dropped, after.emitted - after.recorded);
        FlightRecorder::disable();
    }

    #[test]
    fn short_lived_threads_share_rings_instead_of_leaking_them() {
        let _l = lock();
        FlightRecorder::enable(64);
        let before = FlightRecorder::snapshot().rings.len();
        let mut last_tid = 0;
        for i in 0..1_000u64 {
            last_tid = std::thread::spawn(move || {
                record_span_event("ringadopt.short", 30_000 + i, None, i, i + 1, &[]);
                thread_id()
            })
            .join()
            .unwrap();
        }
        let snap = FlightRecorder::snapshot();
        // One thread alive at a time: at most one ring more than the
        // earlier tests left behind, not a thousand.
        assert!(
            snap.rings.len() <= before + 1,
            "{before} rings grew to {}",
            snap.rings.len()
        );
        // The last thread's event is there, under its own id, and its
        // ring names it as the owner.
        let last = my_events(&snap, "ringadopt.")
            .into_iter()
            .find(|e| e.id == 30_999)
            .expect("last thread's event");
        assert_eq!(last.tid, last_tid);
        assert!(snap.rings.iter().any(|r| r.tid == last_tid));
        FlightRecorder::disable();
    }

    #[test]
    fn snapshot_json_is_loadable_and_carries_meta() {
        let _l = lock();
        FlightRecorder::enable(64);
        record_span_event("ringdoc.doc", 11_000, None, 10, 20, &[("k", 5)]);
        let doc = FlightRecorder::snapshot_json("unit-test");
        let parsed: serde_json::Value = serde_json::from_str(&doc).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        assert!(events.len() >= 2);
        assert_eq!(parsed.get("displayTimeUnit").unwrap().as_str(), Some("ms"));
        let meta = parsed.get("chronusMeta").unwrap();
        assert_eq!(meta.get("trigger").unwrap().as_str(), Some("unit-test"));
        assert!(meta.get("rings").unwrap().as_array().is_some());
        // The trigger is present as a marked instant event.
        let has_trigger = events.iter().any(|e| {
            e.get("name").and_then(|n| n.as_str()) == Some("flightrec.trigger")
                && e.get("ph").and_then(|p| p.as_str()) == Some("i")
        });
        assert!(has_trigger);
        FlightRecorder::disable();
    }

    #[test]
    fn trigger_rate_limit_and_force_dump() {
        let _l = lock();
        FlightRecorder::enable(64);
        let dir = std::env::temp_dir().join(format!("chronus-ring-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        FlightRecorder::set_dump_dir(&dir);
        FlightRecorder::set_min_dump_interval_ms(10_000);
        record_span_event("ringdump.dumped", 12_000, None, 1, 2, &[]);
        let first = FlightRecorder::trigger("storm");
        let first = match first {
            Some(p) => p,
            // Another test may have raced the rate-limit window; force.
            None => FlightRecorder::force_dump("storm").unwrap(),
        };
        assert!(first.exists());
        let suppressed_before = FlightRecorder::dumps_suppressed();
        assert!(FlightRecorder::trigger("storm-again").is_none());
        assert_eq!(FlightRecorder::dumps_suppressed(), suppressed_before + 1);
        // force_dump bypasses the limit.
        let forced = FlightRecorder::force_dump("operator").unwrap();
        assert!(forced.exists());
        assert!(forced
            .file_name()
            .unwrap()
            .to_string_lossy()
            .contains("operator"));
        // No temp files left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
        FlightRecorder::disable();
    }

    #[test]
    fn interner_round_trips_and_caps() {
        let a = intern("ringname.name-a");
        let b = intern("ringname.name-b");
        assert_ne!(a, 0);
        assert_ne!(a, b);
        assert_eq!(intern("ringname.name-a"), a);
        assert_eq!(resolve(a), "ringname.name-a");
        assert_eq!(resolve(0), "?");
        assert_eq!(resolve(FIELD_MASK + 7), "?");
    }

    #[test]
    fn concurrent_snapshot_never_tears() {
        let _l = lock();
        FlightRecorder::enable(64);
        let stop = Arc::new(AtomicBool::new(false));
        let writer_stop = Arc::clone(&stop);
        let writer = std::thread::spawn(move || {
            let mut i = 0u64;
            while !writer_stop.load(Ordering::Relaxed) {
                // start == id and end == id + 1: a torn read shows up
                // as a violated invariant.
                record_span_event(
                    "ringtorn.torn",
                    20_000 + i,
                    None,
                    20_000 + i,
                    20_001 + i,
                    &[],
                );
                i += 1;
            }
        });
        for _ in 0..200 {
            let snap = FlightRecorder::snapshot();
            for e in my_events(&snap, "ringtorn.torn") {
                assert_eq!(e.start_ns, e.id, "torn slot leaked into a snapshot");
                assert_eq!(e.end_ns, e.id + 1, "torn slot leaked into a snapshot");
            }
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().ok();
        FlightRecorder::disable();
    }
}
