//! Metric names and units, and the shapes a run is reported in: the one-line
//! JSON result the driver reads, and the result file `full` writes.

use crate::stats::quartiles;
use serde_json::{Map, Value};
use std::collections::BTreeMap;

/// End-to-end metrics, `(name, unit)`, as `BENCHMARK.json` lists them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("updates_per_s", "1/s"),
    ("arm_p50_ms", "ms"),
    ("cpu_ms_per_update", "ms"),
    ("peak_rss_mb", "MB"),
    ("timed_share", "ratio"),
    ("makespan_mean_steps", "steps"),
    ("fire_window_mean_steps", "steps"),
];

/// Per-layer metrics, `(name, unit)`, as `BENCHMARK.json` lists them.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Source A: the traced in-process pass.
    ("client.encode_us", "us"),
    ("wire.bytes_per_update", "bytes"),
    ("proto.parse_us", "us"),
    ("codec.decode_us", "us"),
    ("admission.admit_pop_us", "us"),
    ("cache.hit_us", "us"),
    ("cache.miss_us", "us"),
    ("greedy.plan_us", "us"),
    ("gate.check_us", "us"),
    ("gate.calls", "count"),
    ("gate.cells_touched", "count"),
    ("shard.plan_us", "us"),
    ("shard.shards", "count"),
    ("shard.replan_rounds", "count"),
    ("shard.joint_fallbacks", "count"),
    ("tree.check_us", "us"),
    ("certify.us", "us"),
    ("engine.plan_us", "us"),
    ("slack.us", "us"),
    ("slack.schedules_checked", "count"),
    ("slack.dilation_mean", "ratio"),
    ("journal.append_arm_us", "us"),
    ("journal.bytes_per_arm", "bytes"),
    ("journal.fsync_us", "us"),
    ("journal.replay_us_per_record", "us"),
    ("journal.compact_us_per_record", "us"),
    ("service.overhead_us", "us"),
    ("server.roundtrip_us", "us"),
    ("trace.unaccounted_share", "ratio"),
    ("trace.plan_gap_ratio", "ratio"),
    // Source B: scrape deltas over the measured phase, and /proc.
    ("scrape.queue_wait_p50_us", "us"),
    ("scrape.queue_wait_p99_us", "us"),
    ("scrape.queue_peak", "count"),
    ("scrape.plan_mean_us", "us"),
    ("scrape.slack_stage_mean_us", "us"),
    ("scrape.greedy_stage_mean_us", "us"),
    ("scrape.submit_to_settle_mean_us", "us"),
    ("engine.greedy_win_share", "ratio"),
    ("engine.sharded_win_share", "ratio"),
    ("engine.tree_win_share", "ratio"),
    ("engine.two_phase_win_share", "ratio"),
    ("engine.certs_failed", "count"),
    ("engine.slack_target_missed_share", "ratio"),
    ("engine.deadline_timeouts", "count"),
    ("cache.hit_share", "ratio"),
    ("cache.evictions", "count"),
    ("daemon.shed_queue_full", "count"),
    ("daemon.shed_rate_limited", "count"),
    ("daemon.snapshots", "count"),
    ("server.requests_per_update", "ratio"),
    ("flight.dropped", "count"),
    ("flight.dumps", "count"),
    ("service.ctx_switches_per_update", "count"),
    ("gen.late_p99_us", "us"),
    // Too unsteady on this host for a bound; see README.md.
    ("arm_p99_ms", "ms"),
    ("restart_ms", "ms"),
];

/// The outcome of one run of one workload.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Operations attempted (warm-up, measured phase and crash-phase tail).
    pub attempted: u64,
    /// Operations that failed, plus crash-phase ids that were not re-armed.
    pub failed: u64,
    /// Every check that did not hold; the run is correct when this is empty
    /// and nothing failed.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Facts about the run worth keeping beside the metrics (sample counts,
    /// the percentile actually reported, the daemon's argument list).
    pub notes: Map,
}

impl RunOutput {
    /// Keeps a fact about the run beside its metrics.
    pub fn note(&mut self, key: &str, value: impl Into<Value>) {
        self.notes.insert(key.to_string(), value.into());
    }

    /// Like [`RunOutput::note`], for a count.
    pub fn note_count(&mut self, key: &str, count: u64) {
        self.note(key, Value::from_u64_exact(count));
    }

    /// Whether every output was as it must be.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The metrics of `table` as `{name: {value, unit}}`; a metric the run
    /// did not produce is a bug in the benchmark.
    pub fn metrics_value(&self, table: &[(&str, &str)]) -> Value {
        let mut out = Map::new();
        for &(name, unit) in table {
            let value = *self
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("run produced no `{name}`"));
            assert!(value.is_finite(), "`{name}` is {value}");
            let mut entry = Map::new();
            entry.insert("value".to_string(), Value::from(value));
            entry.insert("unit".to_string(), Value::from(unit));
            out.insert(name.to_string(), Value::Object(entry));
        }
        Value::Object(out)
    }

    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self, table: &[(&str, &str)]) -> String {
        let mut obj = Map::new();
        obj.insert("correct".to_string(), Value::Bool(self.correct()));
        obj.insert(
            "attempted".to_string(),
            Value::from_u64_exact(self.attempted.max(1)),
        );
        obj.insert("failed".to_string(), Value::from_u64_exact(self.failed));
        obj.insert("metrics".to_string(), self.metrics_value(table));
        serde_json::to_string(&Value::Object(obj)).expect("a result encodes")
    }
}

/// Median and quartile spread of one metric over repeated runs.
pub fn summarize(values: &[f64]) -> (f64, f64) {
    match quartiles(values) {
        Some((q1, median, q3)) if median != 0.0 => (median, (q3 - q1) / median.abs()),
        Some((_, median, _)) => (median, 0.0),
        None => (values.first().copied().unwrap_or(0.0), 0.0),
    }
}

/// `{unit, values, median, spread}` for a result file.
pub fn series_value(unit: &str, values: &[f64]) -> Value {
    let (median, spread) = summarize(values);
    let mut obj = Map::new();
    obj.insert("unit".to_string(), Value::from(unit));
    obj.insert(
        "values".to_string(),
        Value::Array(values.iter().map(|v| Value::from(*v)).collect()),
    );
    obj.insert("median".to_string(), Value::from(median));
    obj.insert("spread".to_string(), Value::from(spread));
    Value::Object(obj)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is the contract; the tables above must say the same.
    #[test]
    fn tables_match_benchmark_json() {
        let manifest = serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = manifest
                .get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(Value::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        let workloads: Vec<&str> = manifest
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut run = RunOutput {
            attempted: 10,
            ..RunOutput::default()
        };
        for (name, _) in END_TO_END {
            run.metrics.insert(name, 1.25);
        }
        let line = serde_json::from_str(&run.result_line(END_TO_END)).unwrap();
        let keys: Vec<&String> = line.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        let metrics = line.get("metrics").and_then(Value::as_object).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics["setup_s"].get("unit").and_then(Value::as_str),
            Some("s")
        );
        run.problems.push("x".to_string());
        assert!(!run.correct());
    }

    #[test]
    fn spread_is_the_interquartile_range_over_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(summarize(&v), (5.5, 1.0));
        assert_eq!(summarize(&[4.0]), (4.0, 0.0));
    }
}
