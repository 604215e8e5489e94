//! Chrome trace-event export.
//!
//! [`TimelineExporter`] turns collected [`SpanRecord`]s, discrete
//! emulator events and sampled counter tracks into the Chrome
//! trace-event JSON format — load the written file in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing` to see solver,
//! engine and emulator activity on one timeline.
//!
//! Encoding notes: the format wants timestamps and durations in
//! **microseconds**; span nanos are converted with fractional
//! precision preserved (`ts = ns / 1000.0`). Complete spans are `"X"`
//! events, instants are `"i"`, counter samples are `"C"` and
//! process/thread names are `"M"` metadata records.

use crate::collector::{SpanKind, SpanRecord};
use crate::fields::FieldValue;
use crate::json;
use std::io::Write as _;
use std::path::Path;

/// Builds a Chrome trace-event JSON document. Events accumulate in
/// insertion order; viewers sort by timestamp themselves.
#[derive(Default)]
pub struct TimelineExporter {
    events: Vec<String>,
}

fn us(ns: u64) -> String {
    json::number(ns as f64 / 1000.0)
}

impl TimelineExporter {
    /// An empty exporter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events staged so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events are staged.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Names the (single, synthetic) process in the viewer.
    pub fn process_name(&mut self, name: &str) {
        self.events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":{}}}}}",
            json::string(name)
        ));
    }

    /// Names a thread track (use the `thread` field of the records
    /// produced on it).
    pub fn thread_name(&mut self, tid: u64, name: &str) {
        self.events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":{}}}}}",
            json::string(name)
        ));
    }

    /// Stages every record: complete spans become `"X"` duration
    /// events carrying `span_id`/`parent_id` plus their fields as
    /// args; instants become thread-scoped `"i"` events.
    // chronus-lint: allow(dead-pub) — read by examples/trace_update.rs
    pub fn add_spans(&mut self, records: &[SpanRecord]) {
        for record in records {
            self.add_span(record);
        }
    }

    /// Stages one record (see [`TimelineExporter::add_spans`]).
    pub fn add_span(&mut self, record: &SpanRecord) {
        let mut args = format!("\"span_id\":{}", record.id);
        if let Some(parent) = record.parent {
            args.push_str(&format!(",\"parent_id\":{parent}"));
        }
        for (key, value) in &record.fields {
            args.push_str(&format!(",{}:{}", json::string(key), value.to_json()));
        }
        let name = json::string(record.name);
        let ts = us(record.start_ns);
        let tid = record.thread;
        match record.kind {
            SpanKind::Complete => {
                let dur = us(record.end_ns.saturating_sub(record.start_ns));
                self.events.push(format!(
                    "{{\"name\":{name},\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\"pid\":1,\"tid\":{tid},\"args\":{{{args}}}}}"
                ));
            }
            SpanKind::Instant => {
                self.events.push(format!(
                    "{{\"name\":{name},\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":1,\"tid\":{tid},\"args\":{{{args}}}}}"
                ));
            }
        }
    }

    /// Stages a ring-recorded span as an `"X"` duration event (same
    /// shape as [`TimelineExporter::add_span`], sourced from a
    /// [`crate::FlightEvent`]).
    pub fn ring_span(&mut self, event: &crate::FlightEvent, fields: &[(&str, FieldValue)]) {
        let mut args = format!("\"span_id\":{}", event.id);
        if let Some(parent) = event.parent {
            args.push_str(&format!(",\"parent_id\":{parent}"));
        }
        for (key, value) in fields {
            args.push_str(&format!(",{}:{}", json::string(key), value.to_json()));
        }
        let dur = us(event.end_ns.saturating_sub(event.start_ns));
        self.events.push(format!(
            "{{\"name\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{dur},\"pid\":1,\"tid\":{},\"args\":{{{args}}}}}",
            json::string(event.name),
            us(event.start_ns),
            event.tid
        ));
    }

    /// Stages a ring-recorded instant as a thread-scoped `"i"` event.
    pub fn ring_instant(&mut self, event: &crate::FlightEvent, fields: &[(&str, FieldValue)]) {
        let mut args = format!("\"span_id\":{}", event.id);
        if let Some(parent) = event.parent {
            args.push_str(&format!(",\"parent_id\":{parent}"));
        }
        for (key, value) in fields {
            args.push_str(&format!(",{}:{}", json::string(key), value.to_json()));
        }
        self.events.push(format!(
            "{{\"name\":{},\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\"tid\":{},\"args\":{{{args}}}}}",
            json::string(event.name),
            us(event.start_ns),
            event.tid
        ));
    }

    /// Stages a free-standing instant event (e.g. one discrete
    /// emulator event) on thread track `tid`.
    pub fn instant(&mut self, name: &str, ts_ns: u64, tid: u64, fields: &[(&str, FieldValue)]) {
        let mut args = String::new();
        for (key, value) in fields {
            if !args.is_empty() {
                args.push(',');
            }
            args.push_str(&format!("{}:{}", json::string(key), value.to_json()));
        }
        self.events.push(format!(
            "{{\"name\":{},\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\"tid\":{tid},\"args\":{{{args}}}}}",
            json::string(name),
            us(ts_ns)
        ));
    }

    /// Stages one sample of the counter track `track` — e.g. a
    /// per-link utilization series sampled from the load ledger. The
    /// viewer draws consecutive samples of the same track as a
    /// stacked area chart.
    pub fn counter(&mut self, track: &str, ts_ns: u64, value: f64) {
        self.events.push(format!(
            "{{\"name\":{},\"ph\":\"C\",\"ts\":{},\"pid\":1,\"args\":{{\"value\":{}}}}}",
            json::string(track),
            us(ts_ns),
            json::number(value)
        ));
    }

    /// Serializes the staged events as a Chrome trace-event JSON
    /// document: `{"traceEvents":[…],"displayTimeUnit":"ms"}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        out.push_str(&self.events.join(","));
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    /// Like [`TimelineExporter::to_json`] but with one extra top-level
    /// key, `"chronusMeta"`, holding `meta_json` verbatim (an encoded
    /// JSON value). Perfetto and `chrome://tracing` ignore unknown
    /// top-level keys, so the document stays loadable; the flight
    /// recorder uses this for its trigger/drop-ledger/metrics block.
    pub fn to_json_with_meta(&self, meta_json: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        out.push_str(&self.events.join(","));
        out.push_str("],\"displayTimeUnit\":\"ms\",\"chronusMeta\":");
        out.push_str(meta_json);
        out.push('}');
        out
    }

    /// Writes [`TimelineExporter::to_json`] to `path`.
    // chronus-lint: allow(dead-pub) — read by examples/trace_update.rs
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.to_json().as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, parent: Option<u64>, kind: SpanKind) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: "t.span",
            fields: vec![
                ("links", FieldValue::U64(4)),
                ("stage", FieldValue::from("greedy")),
            ],
            start_ns: 1_500,
            end_ns: 4_500,
            thread: 2,
            kind,
        }
    }

    #[test]
    fn exports_spans_counters_and_metadata() {
        let mut exporter = TimelineExporter::new();
        assert!(exporter.is_empty());
        exporter.process_name("chronus");
        exporter.thread_name(2, "worker-0");
        exporter.add_spans(&[record(7, Some(3), SpanKind::Complete)]);
        exporter.add_span(&record(8, None, SpanKind::Instant));
        exporter.counter("link 0->1 load", 2_000, 3.0);
        exporter.instant("emu.drop", 9_000, 5, &[("ttl", FieldValue::U64(0))]);
        assert_eq!(exporter.len(), 6);

        let doc = exporter.to_json();
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.ends_with("],\"displayTimeUnit\":\"ms\"}"));
        // Complete span: µs conversion (1500 ns → 1.5 µs, 3000 ns dur
        // → 3 µs), parent linkage and fields in args.
        assert!(doc.contains(
            "{\"name\":\"t.span\",\"ph\":\"X\",\"ts\":1.5,\"dur\":3,\"pid\":1,\"tid\":2,\
             \"args\":{\"span_id\":7,\"parent_id\":3,\"links\":4,\"stage\":\"greedy\"}}"
        ));
        assert!(doc.contains("\"ph\":\"i\",\"s\":\"t\""));
        assert!(doc.contains(
            "{\"name\":\"link 0->1 load\",\"ph\":\"C\",\"ts\":2,\"pid\":1,\"args\":{\"value\":3}}"
        ));
        assert!(doc.contains("\"name\":\"process_name\""));
        assert!(doc.contains("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,\"args\":{\"name\":\"worker-0\"}}"));
    }

    #[test]
    fn write_to_round_trips_bytes() {
        let mut exporter = TimelineExporter::new();
        exporter.counter("c", 0, 1.0);
        let dir = std::env::temp_dir().join("chronus-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("timeline.json");
        exporter.write_to(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), exporter.to_json());
        let _ = std::fs::remove_file(&path);
    }
}
