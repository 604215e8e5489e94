//! Golden-format tests over the observability encoders.
//!
//! The timeline exporter writes Chrome trace-event JSON by hand (no
//! serde in the workspace), so these tests round-trip its output
//! through the *independent* `serde_json` shim parser and assert the
//! structural invariants Perfetto relies on: a `traceEvents` array,
//! known phase codes, numeric timestamps, and — for every span that
//! names a parent — that the parent exists and contains the child's
//! interval.
//!
//! CI reuses the same checker on the artifact written by
//! `examples/trace_update.rs`: when `CHRONUS_TRACE_JSON` (and
//! optionally `CHRONUS_TRACE_PROM`) point at files, those are
//! validated instead of a freshly generated trace. Flight-record
//! dumps get the same treatment: the `flight_dump_*` test validates
//! the file `CHRONUS_FLIGHT_JSON` names (CI's SIGUSR1 dump) or a
//! freshly triggered dump, plus the ring-specific invariants —
//! time-ordered reassembly, cross-ring parent/child containment, an
//! exact drop ledger, and a marked trigger instant.

use chronus::engine::{Engine, EngineConfig};
use chronus::net::motivating_example;
use chronus::trace::{
    Collector, FlightRecorder, FlightSnapshot, MetricsRegistry, TimelineExporter,
};
use serde_json::Value;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Parent linkage policy for [`assert_well_formed_trace`].
#[derive(Clone, Copy, PartialEq)]
enum Parents {
    /// Every `parent_id` must name an exported span (collector traces
    /// export complete batches).
    Required,
    /// A `parent_id` may dangle — flight rings overwrite oldest-first,
    /// so a surviving child can outlive its dropped parent. When the
    /// parent *is* present, containment still must hold.
    MayDrop,
}

/// Parses `text` as trace-event JSON and checks every structural
/// invariant; returns `(complete_spans, instants, counters)`.
fn assert_well_formed_trace(text: &str, parents: Parents) -> (usize, usize, usize) {
    let v: Value = serde_json::from_str(text).expect("trace JSON parses");
    let events = v
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("top-level traceEvents array");
    assert_eq!(
        v.get("displayTimeUnit").and_then(Value::as_str),
        Some("ms"),
        "displayTimeUnit pins the UI scale"
    );

    // First pass: index complete spans by span_id.
    let mut spans: HashMap<u64, (f64, f64)> = HashMap::new(); // id -> (ts, ts+dur)
    for ev in events {
        if ev.get("ph").and_then(Value::as_str) == Some("X") {
            let id = ev
                .get("args")
                .and_then(|a| a.get("span_id"))
                .and_then(Value::as_u64)
                .expect("X events carry args.span_id");
            let ts = ev.get("ts").and_then(Value::as_f64).expect("numeric ts");
            let dur = ev.get("dur").and_then(Value::as_f64).expect("numeric dur");
            assert!(dur >= 0.0, "durations are non-negative");
            assert!(spans.insert(id, (ts, ts + dur)).is_none(), "unique ids");
        }
    }

    let (mut complete, mut instants, mut counters) = (0usize, 0usize, 0usize);
    for ev in events {
        let ph = ev.get("ph").and_then(Value::as_str).expect("phase code");
        assert!(ev.get("name").is_some(), "every event is named");
        match ph {
            "M" => continue, // metadata: no timestamp
            "C" => {
                counters += 1;
                assert!(
                    ev.get("args")
                        .and_then(|a| a.get("value"))
                        .and_then(Value::as_f64)
                        .is_some(),
                    "counter events carry args.value"
                );
                continue;
            }
            "X" => complete += 1,
            "i" => {
                instants += 1;
                assert_eq!(
                    ev.get("s").and_then(Value::as_str),
                    Some("t"),
                    "instants are thread-scoped"
                );
            }
            other => panic!("unexpected phase code {other:?}"),
        }
        assert!(ev.get("ts").and_then(Value::as_f64).is_some());
        assert!(ev.get("tid").and_then(Value::as_u64).is_some());
        // Parent linkage: the parent exists and contains the child
        // (tiny epsilon for the ns → µs float conversion).
        if let Some(parent) = ev
            .get("args")
            .and_then(|a| a.get("parent_id"))
            .and_then(Value::as_u64)
        {
            let found = spans.get(&parent);
            if parents == Parents::Required {
                assert!(found.is_some(), "parent_id names an exported span");
            }
            if let Some(&(pstart, pend)) = found {
                let ts = ev.get("ts").and_then(Value::as_f64).expect("numeric ts");
                let end = ts + ev.get("dur").and_then(Value::as_f64).unwrap_or(0.0);
                const EPS: f64 = 1e-3;
                assert!(
                    ts + EPS >= pstart && end <= pend + EPS,
                    "child [{ts}, {end}] escapes parent [{pstart}, {pend}]"
                );
            }
        }
    }
    (complete, instants, counters)
}

/// Checks Prometheus text-exposition line format plus histogram
/// coherence (cumulative buckets, `+Inf` == `_count`).
fn assert_well_formed_prometheus(text: &str) {
    let mut last_bucket: Option<(String, f64)> = None;
    let mut counts: HashMap<String, f64> = HashMap::new();
    let mut inf_buckets: HashMap<String, f64> = HashMap::new();
    for line in text.lines().filter(|l| !l.is_empty()) {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let (name, kind) = (parts.next(), parts.next());
            assert!(name.is_some_and(|n| n.starts_with("chronus_")), "{line}");
            assert!(
                matches!(kind, Some("counter" | "gauge" | "histogram")),
                "{line}"
            );
            continue;
        }
        let (key, value) = line.rsplit_once(' ').expect("sample line");
        let value: f64 = value.parse().unwrap_or_else(|_| panic!("number: {line}"));
        if let Some((series, le)) = key.split_once("_bucket{le=\"") {
            let le = le.strip_suffix("\"}").expect("closing le brace");
            if le == "+Inf" {
                inf_buckets.insert(series.to_string(), value);
                last_bucket = None;
            } else {
                let le: f64 = le.parse().unwrap_or_else(|_| panic!("le: {line}"));
                if let Some((prev_series, prev)) = &last_bucket {
                    if prev_series == series {
                        assert!(value >= *prev, "buckets are cumulative: {line}");
                    }
                }
                last_bucket = Some((series.to_string(), value));
                assert!(le >= 0.0);
            }
        } else if let Some(series) = key.strip_suffix("_count") {
            counts.insert(series.to_string(), value);
        } else {
            assert!(
                key.strip_suffix("_sum").is_some() || key.starts_with("chronus_"),
                "unexpected series name: {line}"
            );
        }
    }
    for (series, inf) in &inf_buckets {
        assert_eq!(
            counts.get(series),
            Some(inf),
            "{series}: +Inf bucket must equal _count"
        );
    }
    assert!(!counts.is_empty() || inf_buckets.is_empty());
}

/// Generates a trace by planning a small batch with the collector on.
/// Holds the flight lock: the collector is process-global too, and a
/// flight test's inner span closing before this drain, its outer span
/// after, would leave a `parent_id` that names no exported span.
fn generate_trace_json() -> String {
    let _l = flight_lock();
    let _guard = Collector::install();
    let instance = Arc::new(motivating_example());
    let engine = Engine::new(EngineConfig::with_workers(2));
    let plans = engine.plan_instances(vec![instance; 3]);
    assert!(plans.iter().all(|p| p.timed_schedule().is_ok()));
    drop(engine);
    let records = Collector::drain();
    assert!(!records.is_empty(), "instrumented paths produce spans");
    let mut timeline = TimelineExporter::new();
    timeline.process_name("chronus-test");
    timeline.add_spans(&records);
    timeline.counter("link 0->1 load", 10_000, 1.0);
    timeline.counter("link 0->1 load", 20_000, 0.0);
    timeline.to_json()
}

#[test]
fn trace_json_round_trips_through_serde_json() {
    // CI mode: validate the artifact the example wrote; otherwise
    // generate a fresh trace in-process.
    let (text, from_file) = match std::env::var("CHRONUS_TRACE_JSON") {
        Ok(path) => (
            std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("CHRONUS_TRACE_JSON={path}: {e}")),
            true,
        ),
        Err(_) => (generate_trace_json(), false),
    };
    let (complete, _instants, counters) = assert_well_formed_trace(&text, Parents::Required);
    assert!(complete > 0, "at least one complete span");
    if from_file {
        // The example promises link-utilization counter tracks.
        assert!(counters > 0, "example traces carry counter samples");
        for subsystem in ["engine.", "core.", "timenet.", "verify.", "emu."] {
            assert!(
                text.contains(&format!("\"name\":\"{subsystem}")),
                "trace.json must contain {subsystem}* spans"
            );
        }
    }
}

#[test]
fn prometheus_dump_parses() {
    match std::env::var("CHRONUS_TRACE_PROM") {
        Ok(path) => {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("CHRONUS_TRACE_PROM={path}: {e}"));
            assert_well_formed_prometheus(&text);
        }
        Err(_) => {
            let registry = MetricsRegistry::new();
            registry.counter("chronus_test_requests_total").add(7);
            registry.gauge("chronus_test_queue_depth").set(3);
            let h = registry.histogram("chronus_test_latency_ns");
            for v in [0u64, 1, 2, 100, 10_000] {
                h.record(v);
            }
            assert_well_formed_prometheus(&registry.to_prometheus());
        }
    }
}

#[test]
fn empty_timeline_is_still_valid_json() {
    let timeline = TimelineExporter::new();
    let v: Value = serde_json::from_str(&timeline.to_json()).expect("parses");
    assert_eq!(
        v.get("traceEvents").and_then(Value::as_array).map(Vec::len),
        Some(0)
    );
}

// ---------------------------------------------------------------------------
// Flight-record dumps.
// ---------------------------------------------------------------------------

/// The recorder is process-global; the tests that emit spans serialize
/// on this and tell their events apart by name prefix.
static FLIGHT_LOCK: Mutex<()> = Mutex::new(());

fn flight_lock() -> MutexGuard<'static, ()> {
    FLIGHT_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn ring_events(snap: &FlightSnapshot, prefix: &str) -> Vec<chronus::trace::FlightEvent> {
    snap.events
        .iter()
        .filter(|e| e.name.starts_with(prefix))
        .cloned()
        .collect()
}

/// Checks the dump-specific invariants on parsed flight JSON: the
/// trigger is named in `chronusMeta` and present as a marked instant,
/// and the per-ring drop ledger balances exactly.
fn assert_flight_dump(parsed: &Value, expect_trigger: Option<&str>) {
    let meta = parsed.get("chronusMeta").expect("dump carries chronusMeta");
    let trigger_name = meta
        .get("trigger")
        .and_then(Value::as_str)
        .expect("meta names its trigger");
    if let Some(expected) = expect_trigger {
        assert_eq!(trigger_name, expected);
    }
    for ring in meta.get("rings").unwrap().as_array().expect("ring ledger") {
        let emitted = ring.get("emitted").unwrap().as_u64().unwrap();
        let recorded = ring.get("recorded").unwrap().as_u64().unwrap();
        let dropped = ring.get("dropped").unwrap().as_u64().unwrap();
        assert_eq!(
            dropped,
            emitted - recorded,
            "ledger must balance in the dump"
        );
    }
    let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
    let marked: Vec<_> = events
        .iter()
        .filter(|e| e.get("name").and_then(Value::as_str) == Some("flightrec.trigger"))
        .collect();
    assert_eq!(marked.len(), 1, "exactly one marked trigger per dump");
    assert_eq!(marked[0].get("ph").and_then(Value::as_str), Some("i"));
    assert_eq!(
        marked[0]
            .get("args")
            .and_then(|a| a.get("reason"))
            .and_then(Value::as_str),
        Some(trigger_name),
        "the marked instant carries the meta trigger as its reason"
    );
}

/// Runs nested spans on several threads at once, then checks the
/// reassembled snapshot is globally time-ordered and every child
/// span's interval sits inside its parent's — after the merge across
/// thread rings.
#[test]
fn flight_reassembly_is_time_ordered_and_nesting_contains() {
    let _l = flight_lock();
    FlightRecorder::enable(256);
    let workers: Vec<_> = (0..4u64)
        .map(|w| {
            std::thread::spawn(move || {
                for i in 0..8u64 {
                    let outer =
                        chronus::trace::span!("gnest.outer", worker = w, iter = i).entered();
                    {
                        let _inner = chronus::trace::span!("gnest.inner", iter = i).entered();
                        std::hint::black_box(w + i);
                    }
                    drop(outer);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker panicked");
    }
    let snap = FlightRecorder::snapshot();
    let events = ring_events(&snap, "gnest.");
    assert_eq!(events.len(), 4 * 8 * 2, "every span from every ring");

    // Global time order: start_ns non-decreasing, stamp breaks ties.
    for pair in snap.events.windows(2) {
        if let [a, b] = pair {
            assert!(
                a.start_ns < b.start_ns || (a.start_ns == b.start_ns && a.seq < b.seq),
                "snapshot not time-ordered: {} then {}",
                a.start_ns,
                b.start_ns
            );
        }
    }

    // Parent/child containment survives the merge: each inner span
    // names its outer as parent and fits inside its interval.
    let inners: Vec<_> = events.iter().filter(|e| e.name == "gnest.inner").collect();
    assert_eq!(inners.len(), 32);
    for inner in inners {
        let parent_id = inner.parent.expect("inner span must link to its outer");
        let parent = events
            .iter()
            .find(|e| e.id == parent_id)
            .expect("parent span present in the same snapshot");
        assert_eq!(parent.name, "gnest.outer");
        assert_eq!(parent.tid, inner.tid, "nesting is per-thread");
        assert!(
            parent.start_ns <= inner.start_ns && inner.end_ns <= parent.end_ns,
            "child [{}, {}] escapes parent [{}, {}]",
            inner.start_ns,
            inner.end_ns,
            parent.start_ns,
            parent.end_ns
        );
    }
    FlightRecorder::disable();
}

/// Floods a new thread's ring well past capacity: the drop ledger
/// must be exact, with `recorded` equal to the ring capacity. The
/// ring may be an exited thread's, adopted with its ledger running, so
/// the flood is counted from the thread's first event on.
#[test]
fn flight_drop_ledger_is_exact_after_overflow() {
    let _l = flight_lock();
    FlightRecorder::enable(128);
    let overfill = 128u64 + 41;
    let (before, after) = std::thread::spawn(move || {
        let my_ring = || {
            let snap = FlightRecorder::snapshot();
            let my_tid = ring_events(&snap, "gflood.").last().map(|e| e.tid)?;
            snap.rings.into_iter().find(|r| r.tid == my_tid)
        };
        {
            let _s = chronus::trace::span!("gflood.claim").entered();
        }
        let before = my_ring()?;
        for i in 0..overfill {
            let _s = chronus::trace::span!("gflood.flood", i = i).entered();
        }
        Some((before, my_ring()?))
    })
    .join()
    .expect("flood thread panicked")
    .expect("flood ring found");
    assert_eq!(after.emitted - before.emitted, overfill);
    assert_eq!(after.recorded, 128, "ring holds exactly its capacity");
    assert_eq!(after.dropped, after.emitted - after.recorded);
    FlightRecorder::disable();
}

/// A forensic dump is a well-formed Perfetto trace (same checker as
/// collector traces, with dropped parents tolerated) that names its
/// trigger and balances its drop ledger. CI mode: validates the
/// SIGUSR1 dump the daemon-smoke job captured via
/// `CHRONUS_FLIGHT_JSON`; otherwise generates a dump in-process.
#[test]
fn flight_dump_validates_as_perfetto_trace() {
    let _l = flight_lock();
    let (text, expect_trigger) = match std::env::var("CHRONUS_FLIGHT_JSON") {
        Ok(path) => (
            std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("CHRONUS_FLIGHT_JSON={path}: {e}")),
            None,
        ),
        Err(_) => {
            FlightRecorder::enable(64);
            {
                let _s = chronus::trace::span!("gdump.dumped", case = 1u64).entered();
            }
            let doc = FlightRecorder::snapshot_json("golden-trigger");
            FlightRecorder::disable();
            (doc, Some("golden-trigger"))
        }
    };
    let (complete, instants, _counters) = assert_well_formed_trace(&text, Parents::MayDrop);
    assert!(instants > 0, "the trigger instant at minimum");
    let parsed: Value = serde_json::from_str(&text).expect("dump parses");
    assert_flight_dump(&parsed, expect_trigger);
    if expect_trigger.is_some() {
        // The in-process dump must carry the span recorded above.
        assert!(complete > 0);
        assert!(text.contains("\"name\":\"gdump.dumped\""));
    }
}
