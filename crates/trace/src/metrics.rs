//! Named metric instruments: lock-free counters, gauges and
//! log-bucketed histograms behind a [`MetricsRegistry`].
//!
//! Registration (name lookup) takes a mutex once; the returned handle
//! is an `Arc` over atomics, so the hot path — `inc`, `add`,
//! `record` — never locks. Names follow `chronus_<crate>_<name>`
//! (Prometheus-safe: `[a-zA-Z_][a-zA-Z0-9_]*`).
//!
//! Registries are values, not ambient state: the engine owns one per
//! instance (a daemon registers its own instruments on its engine's,
//! so a `chronusd` process records into exactly one), and tests that
//! assert exact counts stay deterministic under parallel execution. A
//! process-global registry ([`MetricsRegistry::global`]) exists for
//! whole-process dumps; scoped registries can [`MetricsRegistry::absorb`]
//! into it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Number of log2 buckets in every [`Histogram`]: bucket `i` holds
/// values whose bit length is `i` (so bucket 0 is exactly zero and
/// bucket `i` spans `[2^(i-1), 2^i)`), which covers the full `u64`
/// range in 64 buckets.
pub const HISTOGRAM_BUCKETS: usize = 64;

fn bucket_index(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Upper bound (inclusive) of histogram bucket `i`, used for the
/// Prometheus `le` label.
fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    /// Per-bucket span-id exemplars (0 = none): the id of the last
    /// span whose observation landed in the bucket, so a quantile
    /// spike links back to a concrete span in a flight-record dump.
    exemplars: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl HistogramInner {
    fn new() -> Self {
        HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            exemplars: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// Monotone counter handle (lock-free; clone-cheap).
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Gauge handle: a signed level that can move both ways, with a
/// `fetch_max` helper for peak tracking.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Moves the level by `d` (may be negative) and returns the new
    /// value.
    #[inline]
    pub fn add(&self, d: i64) -> i64 {
        self.0.fetch_add(d, Ordering::Relaxed) + d
    }

    /// Raises the level to at least `v` (peak tracking).
    #[inline]
    pub fn max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Log2-bucketed histogram handle, sized for nanosecond latencies.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        let inner = &self.0;
        if let Some(bucket) = inner.buckets.get(bucket_index(v)) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        inner.sum.fetch_add(v, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one observation tagged with a span id: the bucket the
    /// value lands in remembers the span as its exemplar
    /// (last-writer-wins), surfaced in JSON snapshots and flight-record
    /// dumps — not in the Prometheus text format.
    #[inline]
    pub fn record_with_exemplar(&self, v: u64, span_id: u64) {
        self.record(v);
        if span_id != 0 {
            if let Some(slot) = self.0.exemplars.get(bucket_index(v)) {
                slot.store(span_id, Ordering::Relaxed);
            }
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Approximate `q`-quantile (0.0–1.0): the inclusive upper bound
    /// of the first bucket whose cumulative count reaches `q * count`.
    /// Resolution is one log₂ bucket (at most 2× the true value),
    /// which is what `chronusctl top` renders as p50/p90/p99. Returns
    /// 0 with no observations.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, bucket) in self.0.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= rank {
                return bucket_upper_bound(i);
            }
        }
        u64::MAX
    }
}

enum Instrument {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<HistogramInner>),
}

/// Point-in-time value of one instrument, as captured by
/// [`MetricsRegistry::snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge level.
    Gauge(i64),
    /// Histogram state: per-bucket counts (truncated after the last
    /// non-empty bucket), sum and count.
    Histogram {
        /// Count per log2 bucket, trailing zero buckets dropped.
        buckets: Vec<u64>,
        /// Span-id exemplar per bucket (0 = none), same length as
        /// `buckets`.
        exemplars: Vec<u64>,
        /// Sum of all observations.
        sum: u64,
        /// Number of observations.
        count: u64,
    },
}

/// A consistent-enough copy of a registry's instruments (each value
/// is read atomically; the set is read under the registry lock).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Instrument name → value, sorted by name.
    pub metrics: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// Counter value by name (`None` when absent or not a counter).
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.metrics.get(name) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Histogram `(sum, count)` by name.
    pub fn histogram(&self, name: &str) -> Option<(u64, u64)> {
        match self.metrics.get(name) {
            Some(MetricValue::Histogram { sum, count, .. }) => Some((*sum, *count)),
            _ => None,
        }
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (`# TYPE` comments, `_bucket{le="…"}`/`_sum`/`_count` series
    /// for histograms).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let _ = writeln!(out, "{name} {v}");
                }
                MetricValue::Histogram {
                    buckets,
                    sum,
                    count,
                    ..
                } => {
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    let mut cumulative = 0u64;
                    for (i, c) in buckets.iter().enumerate() {
                        cumulative += c;
                        let le = bucket_upper_bound(i);
                        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {count}");
                    let _ = writeln!(out, "{name}_sum {sum}");
                    let _ = writeln!(out, "{name}_count {count}");
                }
            }
        }
        out
    }

    /// Encodes the snapshot as a JSON object:
    /// `{"counters":{…},"gauges":{…},"histograms":{name:{"buckets":[…],"sum":…,"count":…}}}`.
    pub fn to_json(&self) -> String {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for (name, value) in &self.metrics {
            let key = crate::json::string(name);
            match value {
                MetricValue::Counter(v) => counters.push(format!("{key}:{v}")),
                MetricValue::Gauge(v) => gauges.push(format!("{key}:{v}")),
                MetricValue::Histogram {
                    buckets,
                    exemplars,
                    sum,
                    count,
                } => {
                    let bucket_list = buckets
                        .iter()
                        .map(u64::to_string)
                        .collect::<Vec<_>>()
                        .join(",");
                    let exemplar_list = if exemplars.iter().any(|&e| e != 0) {
                        format!(
                            ",\"exemplars\":[{}]",
                            exemplars
                                .iter()
                                .map(u64::to_string)
                                .collect::<Vec<_>>()
                                .join(",")
                        )
                    } else {
                        String::new()
                    };
                    histograms.push(format!(
                        "{key}:{{\"buckets\":[{bucket_list}]{exemplar_list},\"sum\":{sum},\"count\":{count}}}"
                    ));
                }
            }
        }
        format!(
            "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}}}}",
            counters.join(","),
            gauges.join(","),
            histograms.join(",")
        )
    }
}

/// A registry of named instruments. See the module docs for the
/// locking story and the scoped-vs-global usage pattern.
pub struct MetricsRegistry {
    instruments: Mutex<BTreeMap<String, Instrument>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An empty registry (`const`, so statics work).
    pub const fn new() -> Self {
        MetricsRegistry {
            instruments: Mutex::new(BTreeMap::new()),
        }
    }

    /// The process-global registry, for whole-process dumps and
    /// long-lived instruments.
    pub fn global() -> &'static MetricsRegistry {
        static GLOBAL: MetricsRegistry = MetricsRegistry::new();
        &GLOBAL
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Instrument>> {
        self.instruments
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns (registering on first use) the counter named `name`.
    /// If `name` is already a different instrument type, the returned
    /// handle is live but detached from the registry.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.lock();
        let entry = map
            .entry(name.to_owned())
            .or_insert_with(|| Instrument::Counter(Arc::new(AtomicU64::new(0))));
        match entry {
            Instrument::Counter(c) => Counter(Arc::clone(c)),
            _ => Counter(Arc::new(AtomicU64::new(0))),
        }
    }

    /// Returns (registering on first use) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.lock();
        let entry = map
            .entry(name.to_owned())
            .or_insert_with(|| Instrument::Gauge(Arc::new(AtomicI64::new(0))));
        match entry {
            Instrument::Gauge(g) => Gauge(Arc::clone(g)),
            _ => Gauge(Arc::new(AtomicI64::new(0))),
        }
    }

    /// Returns (registering on first use) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.lock();
        let entry = map
            .entry(name.to_owned())
            .or_insert_with(|| Instrument::Histogram(Arc::new(HistogramInner::new())));
        match entry {
            Instrument::Histogram(h) => Histogram(Arc::clone(h)),
            _ => Histogram(Arc::new(HistogramInner::new())),
        }
    }

    /// Captures every instrument's current value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.lock();
        let mut metrics = BTreeMap::new();
        for (name, instrument) in map.iter() {
            let value = match instrument {
                Instrument::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
                Instrument::Gauge(g) => MetricValue::Gauge(g.load(Ordering::Relaxed)),
                Instrument::Histogram(h) => {
                    let mut buckets: Vec<u64> = h
                        .buckets
                        .iter()
                        .map(|b| b.load(Ordering::Relaxed))
                        .collect();
                    while buckets.last() == Some(&0) {
                        buckets.pop();
                    }
                    let exemplars: Vec<u64> = h
                        .exemplars
                        .iter()
                        .take(buckets.len())
                        .map(|e| e.load(Ordering::Relaxed))
                        .collect();
                    MetricValue::Histogram {
                        buckets,
                        exemplars,
                        sum: h.sum.load(Ordering::Relaxed),
                        count: h.count.load(Ordering::Relaxed),
                    }
                }
            };
            metrics.insert(name.clone(), value);
        }
        MetricsSnapshot { metrics }
    }

    /// Folds a scoped registry's snapshot into this one: counters and
    /// histogram contents add, gauges take the maximum (peak
    /// semantics). Used to roll per-engine registries up into the
    /// global one.
    pub fn absorb(&self, snapshot: &MetricsSnapshot) {
        for (name, value) in &snapshot.metrics {
            match value {
                MetricValue::Counter(v) => self.counter(name).add(*v),
                MetricValue::Gauge(v) => self.gauge(name).max(*v),
                MetricValue::Histogram {
                    buckets,
                    exemplars,
                    sum,
                    count,
                } => {
                    let h = self.histogram(name);
                    for (i, c) in buckets.iter().enumerate() {
                        if let Some(bucket) = h.0.buckets.get(i) {
                            bucket.fetch_add(*c, Ordering::Relaxed);
                        }
                    }
                    for (i, e) in exemplars.iter().enumerate() {
                        if *e != 0 {
                            if let Some(slot) = h.0.exemplars.get(i) {
                                slot.store(*e, Ordering::Relaxed);
                            }
                        }
                    }
                    h.0.sum.fetch_add(*sum, Ordering::Relaxed);
                    h.0.count.fetch_add(*count, Ordering::Relaxed);
                }
            }
        }
    }

    /// [`MetricsSnapshot::to_prometheus`] over a fresh snapshot.
    pub fn to_prometheus(&self) -> String {
        self.snapshot().to_prometheus()
    }

    /// [`MetricsSnapshot::to_json`] over a fresh snapshot.
    pub fn to_json(&self) -> String {
        self.snapshot().to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 63);
        // Every bucket's values fall at or below its upper bound.
        for i in 1..HISTOGRAM_BUCKETS {
            let lo = 1u64 << (i - 1);
            assert_eq!(bucket_index(lo), i);
            assert!(lo <= bucket_upper_bound(i));
        }
    }

    #[test]
    fn instruments_register_and_read_back() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("chronus_test_ops_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name → same underlying counter.
        reg.counter("chronus_test_ops_total").inc();
        assert_eq!(c.get(), 6);

        let g = reg.gauge("chronus_test_depth");
        g.set(3);
        assert_eq!(g.add(-1), 2);
        g.max(10);
        g.max(7);
        assert_eq!(g.get(), 10);

        let h = reg.histogram("chronus_test_latency_ns");
        for v in [0, 1, 3, 1000, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1_001_004);

        let snap = reg.snapshot();
        assert_eq!(snap.counter("chronus_test_ops_total"), Some(6));
        assert_eq!(snap.gauge("chronus_test_depth"), Some(10));
        assert_eq!(
            snap.histogram("chronus_test_latency_ns"),
            Some((1_001_004, 5))
        );
        // Wrong-type lookups answer None rather than lying.
        assert_eq!(snap.counter("chronus_test_depth"), None);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("chronus_test_total").add(2);
        reg.gauge("chronus_test_level").set(-4);
        let h = reg.histogram("chronus_test_ns");
        h.record(0);
        h.record(5);
        let text = reg.to_prometheus();
        assert!(text.contains("# TYPE chronus_test_total counter\nchronus_test_total 2\n"));
        assert!(text.contains("# TYPE chronus_test_level gauge\nchronus_test_level -4\n"));
        assert!(text.contains("# TYPE chronus_test_ns histogram\n"));
        // Cumulative buckets: v=0 lands in bucket 0 (le="0"), v=5 in
        // bucket 3 (le="7"); the +Inf bucket equals the count.
        assert!(text.contains("chronus_test_ns_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("chronus_test_ns_bucket{le=\"7\"} 2\n"));
        assert!(text.contains("chronus_test_ns_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("chronus_test_ns_sum 5\n"));
        assert!(text.contains("chronus_test_ns_count 2\n"));
    }

    #[test]
    fn absorb_adds_counters_and_merges_histograms() {
        let scoped = MetricsRegistry::new();
        scoped.counter("chronus_test_total").add(3);
        scoped.gauge("chronus_test_peak").set(9);
        scoped.histogram("chronus_test_ns").record(100);

        let root = MetricsRegistry::new();
        root.counter("chronus_test_total").add(10);
        root.gauge("chronus_test_peak").set(4);
        root.histogram("chronus_test_ns").record(50);

        root.absorb(&scoped.snapshot());
        let snap = root.snapshot();
        assert_eq!(snap.counter("chronus_test_total"), Some(13));
        assert_eq!(snap.gauge("chronus_test_peak"), Some(9));
        assert_eq!(snap.histogram("chronus_test_ns"), Some((150, 2)));
    }

    // Satellite: the concurrency torture test — N threads × M
    // increments each, across a shared counter, gauge and histogram;
    // the final snapshot must equal the arithmetic totals exactly.
    #[test]
    fn torture_n_threads_m_increments_snapshot_is_exact() {
        const THREADS: u64 = 8;
        const INCREMENTS: u64 = 10_000;
        let reg = Arc::new(MetricsRegistry::new());
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let reg = Arc::clone(&reg);
            handles.push(std::thread::spawn(move || {
                let c = reg.counter("chronus_torture_total");
                let g = reg.gauge("chronus_torture_peak");
                let h = reg.histogram("chronus_torture_ns");
                for i in 0..INCREMENTS {
                    c.inc();
                    g.max((t * INCREMENTS + i + 1) as i64);
                    h.record(i);
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("chronus_torture_total"),
            Some(THREADS * INCREMENTS)
        );
        assert_eq!(
            snap.gauge("chronus_torture_peak"),
            Some((THREADS * INCREMENTS) as i64)
        );
        let per_thread_sum = INCREMENTS * (INCREMENTS - 1) / 2;
        assert_eq!(
            snap.histogram("chronus_torture_ns"),
            Some((THREADS * per_thread_sum, THREADS * INCREMENTS))
        );
        // Bucket counts must also sum to the observation count.
        match snap.metrics.get("chronus_torture_ns") {
            Some(MetricValue::Histogram { buckets, count, .. }) => {
                assert_eq!(buckets.iter().sum::<u64>(), *count);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }
}
