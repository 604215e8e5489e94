//! # chronus-trace — structured observability for the Chronus workspace
//!
//! Three cooperating layers, all offline and dependency-free:
//!
//! 1. **Spans into the flight recorder** ([`span!`], [`instant!`],
//!    [`Span`], [`FlightRecorder`]) — a structured-tracing facade
//!    shaped after the `tracing` crate's span subset (`span!` + an
//!    `entered()` guard). Spans carry a name, up to two `key = value`
//!    fields (integers, bools or static names: what one ring slot
//!    holds) and monotonic start/stop nanos; parent linkage comes from
//!    a per-thread span stack. A finished span goes into its thread's
//!    flight-recorder ring, the one sink: the recorder is off by
//!    default, and the fast path while it is off is one relaxed atomic
//!    load. [`FlightRecorder::snapshot`] reassembles the rings for
//!    tests, dumps and `chronusctl tail`.
//! 2. **Metrics** ([`MetricsRegistry`], [`Counter`], [`Gauge`],
//!    [`Histogram`]) — a registry of named lock-free instruments
//!    following the `chronus_<crate>_<name>` naming scheme, with
//!    Prometheus text exposition ([`MetricsRegistry::to_prometheus`])
//!    and a JSON snapshot encoder ([`MetricsRegistry::to_json`]).
//!    Registries can be process-global ([`MetricsRegistry::global`])
//!    or scoped (one per engine, one per exact gate) so per-run
//!    snapshots stay isolated under concurrency.
//! 3. **Timeline export** ([`TimelineExporter`]) — serializes a
//!    [`FlightSnapshot`] plus counter tracks into Chrome trace-event
//!    JSON loadable in `chrome://tracing` or Perfetto.
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

mod fields;
mod json;
mod metrics;
mod ring;
mod span;
mod timeline;

pub use fields::FieldValue;
pub use metrics::{
    Counter, Gauge, Histogram, MetricValue, MetricsRegistry, MetricsSnapshot, HISTOGRAM_BUCKETS,
};
pub use ring::{
    FlightEvent, FlightEventKind, FlightRecorder, FlightSnapshot, RingLedger, RingStats,
};
pub use span::{Adopted, EnteredSpan, Span};

/// Monotonic nanoseconds since the first observability call in this
/// process — the shared clock of every span, instant and counter
/// sample.
pub fn now_ns() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Opens a span: `span!("engine.plan", request = 7, stage = "greedy")`.
///
/// Returns a [`Span`]; call [`Span::entered`] to push it on the
/// thread's span stack so nested spans link to it as children, and
/// drop the guard to record the stop time. Field values are only
/// evaluated while the span is recording; the ring keeps the first
/// two.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {{
        #[allow(unused_mut)]
        let mut __chronus_span = $crate::Span::new($name);
        if __chronus_span.is_recording() {
            $(__chronus_span.record(stringify!($key), $val);)*
        }
        __chronus_span
    }};
}

/// Records a zero-duration instant event on the current span stack:
/// `instant!("emu.flowmod", switch = 3)`. The fields are packed on the
/// stack; the ring keeps the first two.
#[macro_export]
macro_rules! instant {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {{
        if $crate::FlightRecorder::is_on() {
            $crate::FlightRecorder::instant(
                $name,
                &[$((stringify!($key), $crate::FieldValue::from($val))),*],
            );
        }
    }};
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
