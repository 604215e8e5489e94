//! Chrome trace-event export.
//!
//! [`TimelineExporter`] turns a [`FlightSnapshot`] — the spans and
//! instants the flight recorder holds — plus sampled counter tracks
//! into the Chrome trace-event JSON format: load the written file in
//! Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing` to see
//! solver, engine and emulator activity on one timeline.
//!
//! Encoding notes: the format wants timestamps and durations in
//! **microseconds**; span nanos are converted with fractional
//! precision preserved (`ts = ns / 1000.0`). Complete spans are `"X"`
//! events, instants are `"i"`, counter samples are `"C"` and
//! process/thread names are `"M"` metadata records.

use crate::json;
use crate::ring::{FlightEvent, FlightEventKind, FlightSnapshot};
use std::fmt::Write as _;
use std::io::{self, Write};

/// Builds a Chrome trace-event JSON document in one buffer. Events
/// accumulate in insertion order; viewers sort by timestamp themselves.
pub struct TimelineExporter {
    /// `{"traceEvents":[` and every event staged so far.
    json: String,
    events: usize,
    /// Scratch for one event's args, reused across events.
    args: String,
}

fn us(ns: u64) -> String {
    json::number(ns as f64 / 1000.0)
}

impl TimelineExporter {
    /// Stages every event of `snapshot`: spans become `"X"` duration
    /// events and instants thread-scoped `"i"` events, each carrying
    /// `span_id`/`parent_id`, the ring stamp `seq` and its fields as
    /// args; each ring's thread track is named `ring-<tid>`.
    pub fn from_snapshot(snapshot: &FlightSnapshot) -> Self {
        let mut timeline = TimelineExporter {
            json: String::from("{\"traceEvents\":["),
            events: 0,
            args: String::new(),
        };
        let mut tids: Vec<u64> = snapshot.rings.iter().map(|r| r.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in tids {
            timeline.metadata("thread_name", tid, &format!("ring-{tid}"));
        }
        for e in &snapshot.events {
            timeline.flight_event(e);
        }
        timeline
    }

    /// Stages one flight-recorder event (see [`Self::from_snapshot`]).
    pub(crate) fn flight_event(&mut self, e: &FlightEvent) {
        let mut args = std::mem::take(&mut self.args);
        args.clear();
        let _ = write!(args, "\"span_id\":{}", e.id);
        if let Some(parent) = e.parent {
            let _ = write!(args, ",\"parent_id\":{parent}");
        }
        let _ = write!(args, ",\"seq\":{}", e.seq);
        for (key, value) in e.args() {
            let _ = write!(args, ",{}:{}", json::string(key), value.to_json());
        }
        let dur = match e.kind {
            FlightEventKind::Span => Some(e.end_ns.saturating_sub(e.start_ns)),
            FlightEventKind::Instant => None,
        };
        self.event(e.name, e.start_ns, dur, e.tid, &args);
        self.args = args;
    }

    /// Bytes staged and not yet handed to [`Self::flush_to`].
    pub(crate) fn staged(&self) -> usize {
        self.json.len()
    }

    /// Writes what is staged to `out` and empties the buffer; the
    /// document stays open, so a long one streams out in pieces.
    pub(crate) fn flush_to(&mut self, out: &mut impl Write) -> io::Result<()> {
        out.write_all(self.json.as_bytes())?;
        self.json.clear();
        Ok(())
    }

    /// The buffer, positioned to append one more event.
    fn next(&mut self) -> &mut String {
        if self.events > 0 {
            self.json.push(',');
        }
        self.events += 1;
        &mut self.json
    }

    /// Names the (single, synthetic) process in the viewer.
    pub fn process_name(&mut self, name: &str) {
        self.metadata("process_name", 0, name);
    }

    fn metadata(&mut self, kind: &str, tid: u64, name: &str) {
        let _ = write!(
            self.next(),
            "{{\"name\":\"{kind}\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":{}}}}}",
            json::string(name)
        );
    }

    /// Stages one event on thread track `tid`: an `"X"` span lasting
    /// `dur_ns`, or a thread-scoped `"i"` instant when `dur_ns` is
    /// `None`. `args` is the encoded body of the event's args object.
    pub(crate) fn event(
        &mut self,
        name: &str,
        ts_ns: u64,
        dur_ns: Option<u64>,
        tid: u64,
        args: &str,
    ) {
        let name = json::string(name);
        let out = self.next();
        let _ = match dur_ns {
            Some(dur) => write!(
                out,
                "{{\"name\":{name},\"ph\":\"X\",\"ts\":{},\"dur\":{}",
                us(ts_ns),
                us(dur)
            ),
            None => write!(
                out,
                "{{\"name\":{name},\"ph\":\"i\",\"s\":\"t\",\"ts\":{}",
                us(ts_ns)
            ),
        };
        let _ = write!(out, ",\"pid\":1,\"tid\":{tid},\"args\":{{{args}}}}}");
    }

    /// Stages one sample of the counter track `track` — e.g. a
    /// per-link utilization series sampled from the load ledger. The
    /// viewer draws consecutive samples of the same track as a
    /// stacked area chart.
    pub fn counter(&mut self, track: &str, ts_ns: u64, value: f64) {
        let _ = write!(
            self.next(),
            "{{\"name\":{},\"ph\":\"C\",\"ts\":{},\"pid\":1,\"args\":{{\"value\":{}}}}}",
            json::string(track),
            us(ts_ns),
            json::number(value)
        );
    }

    /// Finishes the Chrome trace-event JSON document:
    /// `{"traceEvents":[…],"displayTimeUnit":"ms"}`.
    pub fn to_json(mut self) -> String {
        self.json.push_str("],\"displayTimeUnit\":\"ms\"}");
        self.json
    }

    /// Like [`TimelineExporter::to_json`] but with one extra top-level
    /// key, `"chronusMeta"`, holding `meta_json` verbatim (an encoded
    /// JSON value). Perfetto and `chrome://tracing` ignore unknown
    /// top-level keys, so the document stays loadable; the flight
    /// recorder uses this for its trigger/drop-ledger/metrics block.
    pub fn to_json_with_meta(mut self, meta_json: &str) -> String {
        self.json
            .push_str("],\"displayTimeUnit\":\"ms\",\"chronusMeta\":");
        self.json.push_str(meta_json);
        self.json.push('}');
        self.json
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FieldValue, FlightEvent, RingStats};

    fn event(id: u64, parent: Option<u64>, kind: FlightEventKind) -> FlightEvent {
        FlightEvent {
            seq: id,
            kind,
            name: "t.span",
            id,
            parent,
            start_ns: 1_500,
            end_ns: 4_500,
            tid: 2,
            args: [
                ("links", FieldValue::U64(4)),
                ("stage", FieldValue::Str("greedy")),
            ],
            argc: 2,
        }
    }

    #[test]
    fn exports_snapshots_counters_and_metadata() {
        let empty = TimelineExporter::from_snapshot(&FlightSnapshot::default());
        assert_eq!(
            empty.to_json(),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}"
        );

        let snapshot = FlightSnapshot {
            events: vec![
                event(7, Some(3), FlightEventKind::Span),
                event(8, None, FlightEventKind::Instant),
            ],
            rings: vec![RingStats {
                tid: 2,
                emitted: 2,
                recorded: 2,
                dropped: 0,
            }],
        };
        let mut exporter = TimelineExporter::from_snapshot(&snapshot);
        exporter.process_name("chronus");
        exporter.counter("link 0->1 load", 2_000, 3.0);
        assert_eq!(exporter.events, 5);

        let doc = exporter.to_json();
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.ends_with("],\"displayTimeUnit\":\"ms\"}"));
        // Complete span: µs conversion (1500 ns → 1.5 µs, 3000 ns dur
        // → 3 µs), parent linkage, the ring stamp and fields in args.
        assert!(doc.contains(
            "{\"name\":\"t.span\",\"ph\":\"X\",\"ts\":1.5,\"dur\":3,\"pid\":1,\"tid\":2,\
             \"args\":{\"span_id\":7,\"parent_id\":3,\"seq\":7,\"links\":4,\"stage\":\"greedy\"}}"
        ));
        assert!(doc.contains(
            "{\"name\":\"t.span\",\"ph\":\"i\",\"s\":\"t\",\"ts\":1.5,\"pid\":1,\"tid\":2,\
             \"args\":{\"span_id\":8,\"seq\":8,\"links\":4,\"stage\":\"greedy\"}}"
        ));
        assert!(doc.contains(
            "{\"name\":\"link 0->1 load\",\"ph\":\"C\",\"ts\":2,\"pid\":1,\"args\":{\"value\":3}}"
        ));
        assert!(doc.contains("\"name\":\"process_name\""));
        assert!(doc.contains("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,\"args\":{\"name\":\"ring-2\"}}"));
    }
}
