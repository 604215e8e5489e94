//! # chronus-trace — structured observability for the Chronus workspace
//!
//! Three cooperating layers, all offline and dependency-free:
//!
//! 1. **Spans** ([`span!`], [`Span`], [`Collector`]) — a thread-safe
//!    structured-tracing facade shaped after the `tracing` crate's
//!    span subset (`span!`/`info_span!` + an `entered()` guard), so
//!    the real crate can later be swapped in shim-style (see
//!    `shims/README.md` for the pattern). Spans carry a name, `key =
//!    value` fields and monotonic start/stop nanos; parent linkage
//!    comes from a per-thread span stack. Recording only happens while
//!    a [`Collector`] is installed or the flight recorder is on — the
//!    fast path with both off is two relaxed atomic loads.
//! 2. **Metrics** ([`MetricsRegistry`], [`Counter`], [`Gauge`],
//!    [`Histogram`]) — a registry of named lock-free instruments
//!    following the `chronus_<crate>_<name>` naming scheme, with
//!    Prometheus text exposition ([`MetricsRegistry::to_prometheus`])
//!    and a JSON snapshot encoder ([`MetricsRegistry::to_json`]).
//!    Registries can be process-global ([`MetricsRegistry::global`])
//!    or scoped (one per engine, one per exact gate) so per-run
//!    snapshots stay isolated under concurrency.
//! 3. **Timeline export** ([`TimelineExporter`]) — serializes
//!    collected spans, discrete events and counter tracks into Chrome
//!    trace-event JSON loadable in `chrome://tracing` or Perfetto.
//!
//! `examples/trace_update.rs` at the workspace root wires all three
//! through a full plan → verify → emulate round trip; DESIGN.md §11
//! documents the span taxonomy and metric naming scheme.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

mod collector;
mod fields;
mod json;
mod metrics;
mod ring;
mod span;
mod timeline;

pub use collector::{Collector, CollectorGuard, SpanKind, SpanRecord};
pub use fields::FieldValue;
pub use metrics::{
    Counter, Gauge, Histogram, MetricValue, MetricsRegistry, MetricsSnapshot, HISTOGRAM_BUCKETS,
};
pub use ring::{FlightEvent, FlightEventKind, FlightRecorder, FlightSnapshot, RingStats};
pub use span::{EnteredSpan, Span};

/// Monotonic nanoseconds since the first observability call in this
/// process — the shared clock of every span, instant and counter
/// sample.
pub fn now_ns() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Opens a span: `span!("engine.plan", id = 7, stage = "greedy")`.
///
/// Returns a [`Span`]; call [`Span::entered`] to push it on the
/// thread's span stack so nested spans link to it as children, and
/// drop the guard to record the stop time. Field values are only
/// evaluated while the span is recording.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {{
        #[allow(unused_mut)]
        let mut __chronus_span = $crate::Span::new($name);
        if __chronus_span.is_recording() {
            $(__chronus_span.push_field(stringify!($key), $val);)*
        }
        __chronus_span
    }};
}

/// Records a zero-duration instant event on the current span stack:
/// `instant!("emu.flowmod", switch = 3)`.
#[macro_export]
macro_rules! instant {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {{
        if $crate::Collector::is_enabled() || $crate::FlightRecorder::is_on() {
            let __chronus_fields: Vec<(&'static str, $crate::FieldValue)> =
                vec![$((stringify!($key), $crate::FieldValue::from($val))),*];
            $crate::Collector::record_instant($name, __chronus_fields);
        }
    }};
}

/// `tracing`-compatible alias for [`span!`] (INFO level collapses to
/// the single level this facade records).
#[macro_export]
macro_rules! info_span {
    ($($tt:tt)*) => { $crate::span!($($tt)*) };
}

/// `tracing`-compatible alias for [`span!`].
#[macro_export]
macro_rules! debug_span {
    ($($tt:tt)*) => { $crate::span!($($tt)*) };
}

/// `tracing`-compatible alias for [`span!`].
#[macro_export]
macro_rules! trace_span {
    ($($tt:tt)*) => { $crate::span!($($tt)*) };
}

pub use timeline::TimelineExporter;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
