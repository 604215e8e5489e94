//! Daemon configuration: a JSON file layer overridden by CLI flags.
//!
//! Every knob has a default, so `chronusd` starts with no arguments;
//! a `--config file.json` layer is applied first and individual
//! `--key value` flags override it (see [`DaemonConfig::apply_flag`]
//! for the accepted keys — they match the JSON field names).

use crate::admission::AdmissionConfig;
use chronus_clock::Nanos;
use chronus_engine::{EngineConfig, SlackPolicy};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Complete `chronusd` configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct DaemonConfig {
    /// Unix socket path the server listens on.
    pub socket: PathBuf,
    /// Daemon worker threads: each pops the admission queue and plans
    /// what it popped on its own thread.
    pub workers: usize,
    /// Bound on each priority class's admission queue.
    pub queue_bound: usize,
    /// Default per-tenant token-bucket refill rate (requests/second).
    pub tenant_rate: f64,
    /// Default per-tenant token-bucket burst capacity.
    pub tenant_burst: f64,
    /// Per-tenant `(rate, burst)` overrides by tenant name.
    pub tenant_overrides: BTreeMap<String, (f64, f64)>,
    /// Directory holding the write-ahead journal and snapshots.
    pub snapshot_dir: PathBuf,
    /// Interval between automatic journal compactions; `0` disables
    /// the background snapshotter (explicit `snapshot` requests and
    /// the final shutdown snapshot still run).
    pub snapshot_interval_ms: u64,
    /// True-time length of one schedule step, used to convert slack
    /// certificates (±k steps) into nanosecond budgets at restore.
    pub step_ns: Nanos,
    /// Re-arm margin handed to the recovery policy: a missed trigger
    /// is re-armed no earlier than `now + margin`.
    pub rearm_margin_ns: Nanos,
    /// Epoch anchor for the daemon's monotonic clock; `None` anchors
    /// to the wall clock at startup. Tests pin this for determinism.
    pub base_epoch_ns: Option<Nanos>,
    /// Default 64. The daemon no longer reads it (it builds no
    /// time-extended windows), and no flag or config key sets it.
    /// `benchmark/src/layers.rs` sizes its own
    /// `chronus_engine::TimeNetCache` and its warm-up from it; the field
    /// goes when that cache does.
    pub cache_windows: usize,
    /// Target shard count for the engine's sharded multi-flow
    /// pre-stage; `0` or `1` disables sharding and every request is
    /// planned jointly.
    pub engine_shards: usize,
    /// Default planning deadline for submissions that carry none.
    pub default_deadline_ms: u64,
    /// Per-tenant SLO: plans slower than this burn error budget.
    pub slo_latency_ms: u64,
    /// Per-tenant SLO availability objective in `[0, 1)`.
    pub slo_availability: f64,
    /// Short-window (5m) burn rate at or above this emits an instant
    /// and fires a forensic flight dump.
    pub slo_burn_threshold: f64,
    /// Directory forensic flight dumps are written to; empty means
    /// `snapshot_dir/flight`.
    pub flight_dir: PathBuf,
    /// Per-thread flight-ring capacity in events (power of two; the
    /// recorder rounds up).
    pub ring_slots: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            socket: PathBuf::from("/tmp/chronusd.sock"),
            workers: 2,
            queue_bound: 64,
            tenant_rate: 50.0,
            tenant_burst: 10.0,
            tenant_overrides: BTreeMap::new(),
            snapshot_dir: PathBuf::from("chronusd-state"),
            snapshot_interval_ms: 5_000,
            step_ns: 1_000_000, // 1 ms per schedule step
            rearm_margin_ns: 100_000,
            base_epoch_ns: None,
            cache_windows: 64,
            engine_shards: 0,
            default_deadline_ms: 5_000,
            slo_latency_ms: 250,
            slo_availability: 0.999,
            slo_burn_threshold: 10.0,
            flight_dir: PathBuf::new(),
            ring_slots: 4096,
        }
    }
}

impl DaemonConfig {
    /// Loads a JSON config file; unknown keys are rejected so typos
    /// fail loudly at startup instead of silently keeping defaults.
    pub fn from_file(path: &Path) -> Result<Self, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("config {}: {e}", path.display()))?;
        let v =
            serde_json::from_str(&text).map_err(|e| format!("config {}: {e}", path.display()))?;
        Self::from_value(&v)
    }

    /// Builds a config from a parsed JSON object over the defaults.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let obj = v
            .as_object()
            .ok_or_else(|| "config root must be an object".to_string())?;
        let mut cfg = DaemonConfig::default();
        for (key, val) in obj {
            if key == "tenants" {
                let tenants = val
                    .as_object()
                    .ok_or_else(|| "`tenants` must be an object".to_string())?;
                for (tenant, limits) in tenants {
                    let rate = limits
                        .get("rate")
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("tenant `{tenant}` missing numeric `rate`"))?;
                    let burst = limits
                        .get("burst")
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("tenant `{tenant}` missing numeric `burst`"))?;
                    cfg.tenant_overrides.insert(tenant.clone(), (rate, burst));
                }
                continue;
            }
            let rendered = match val {
                Value::String(s) => s.clone(),
                other => serde_json::to_string(other).map_err(|e| e.to_string())?,
            };
            cfg.apply_flag(key, &rendered)?;
        }
        Ok(cfg)
    }

    /// Applies one `--key value` override; `key` matches the JSON
    /// field names.
    pub fn apply_flag(&mut self, key: &str, value: &str) -> Result<(), String> {
        let bad = |what: &str| format!("--{key}: expected {what}, got `{value}`");
        match key {
            "socket" => self.socket = PathBuf::from(value),
            "snapshot_dir" => self.snapshot_dir = PathBuf::from(value),
            "workers" => self.workers = value.parse().map_err(|_| bad("a count"))?,
            "queue_bound" => self.queue_bound = value.parse().map_err(|_| bad("a count"))?,
            "tenant_rate" => self.tenant_rate = value.parse().map_err(|_| bad("a rate"))?,
            "tenant_burst" => self.tenant_burst = value.parse().map_err(|_| bad("a burst"))?,
            "snapshot_interval_ms" => {
                self.snapshot_interval_ms = value.parse().map_err(|_| bad("milliseconds"))?
            }
            "step_ns" => self.step_ns = value.parse().map_err(|_| bad("nanoseconds"))?,
            "rearm_margin_ns" => {
                self.rearm_margin_ns = value.parse().map_err(|_| bad("nanoseconds"))?
            }
            "base_epoch_ns" => {
                self.base_epoch_ns = Some(value.parse().map_err(|_| bad("nanoseconds"))?)
            }
            "engine_shards" => self.engine_shards = value.parse().map_err(|_| bad("a count"))?,
            "default_deadline_ms" => {
                self.default_deadline_ms = value.parse().map_err(|_| bad("milliseconds"))?
            }
            "slo_latency_ms" => {
                self.slo_latency_ms = value.parse().map_err(|_| bad("milliseconds"))?
            }
            "slo_availability" => {
                let a: f64 = value.parse().map_err(|_| bad("a fraction"))?;
                if !(0.0..1.0).contains(&a) {
                    return Err(bad("a fraction in [0, 1)"));
                }
                self.slo_availability = a;
            }
            "slo_burn_threshold" => {
                self.slo_burn_threshold = value.parse().map_err(|_| bad("a burn rate"))?
            }
            "flight_dir" => self.flight_dir = PathBuf::from(value),
            "ring_slots" => self.ring_slots = value.parse().map_err(|_| bad("a count"))?,
            other => return Err(format!("unknown config key `{other}`")),
        }
        Ok(())
    }

    /// The journal file inside [`DaemonConfig::snapshot_dir`].
    pub fn journal_path(&self) -> PathBuf {
        self.snapshot_dir.join("journal.jsonl")
    }

    /// Where forensic flight dumps land (`flight_dir`, defaulting to
    /// `snapshot_dir/flight`).
    pub fn flight_path(&self) -> PathBuf {
        if self.flight_dir.as_os_str().is_empty() {
            self.snapshot_dir.join("flight")
        } else {
            self.flight_dir.clone()
        }
    }

    /// The SLO tracker's view of this config.
    pub fn slo(&self) -> crate::slo::SloConfig {
        crate::slo::SloConfig {
            latency_ns: (self.slo_latency_ms as Nanos).saturating_mul(1_000_000),
            availability: self.slo_availability,
            burn_threshold: self.slo_burn_threshold,
        }
    }

    /// Default planning deadline as a [`Duration`].
    pub fn default_deadline(&self) -> Duration {
        Duration::from_millis(self.default_deadline_ms.max(1))
    }

    /// The admission layer's view of this config.
    pub fn admission(&self) -> AdmissionConfig {
        AdmissionConfig {
            queue_bound: self.queue_bound.max(1),
            default_rate: self.tenant_rate,
            default_burst: self.tenant_burst,
            overrides: self.tenant_overrides.clone(),
        }
    }

    /// The engine configuration the daemon boots its resident engine
    /// with: slack certification on (the journal stores the certified
    /// tolerance).
    pub fn engine(&self) -> EngineConfig {
        let cfg =
            EngineConfig::with_workers(self.workers.max(1)).with_slack(SlackPolicy::default());
        if self.engine_shards > 1 {
            cfg.with_sharding(chronus_engine::ShardingConfig {
                shards: self.engine_shards,
                ..chronus_engine::ShardingConfig::default()
            })
        } else {
            cfg
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_layer_then_flags_override() {
        let v = serde_json::from_str(
            r#"{
                "workers": 4,
                "queue_bound": 8,
                "socket": "/tmp/x.sock",
                "tenants": {"gold": {"rate": 100.0, "burst": 20.0}}
            }"#,
        )
        .unwrap();
        let mut cfg = DaemonConfig::from_value(&v).unwrap();
        assert_eq!(cfg.workers, 4);
        assert_eq!(cfg.queue_bound, 8);
        assert_eq!(cfg.socket, PathBuf::from("/tmp/x.sock"));
        assert_eq!(cfg.tenant_overrides["gold"], (100.0, 20.0));
        // Flags override the file layer.
        cfg.apply_flag("workers", "2").unwrap();
        cfg.apply_flag("base_epoch_ns", "123456789").unwrap();
        assert_eq!(cfg.workers, 2);
        assert_eq!(cfg.base_epoch_ns, Some(123_456_789));
        assert!(cfg.apply_flag("wrokers", "2").is_err(), "typos fail loudly");
        assert!(cfg.apply_flag("workers", "lots").is_err());
    }

    #[test]
    fn engine_shards_flag_opts_into_the_sharded_stage() {
        let mut cfg = DaemonConfig::default();
        assert!(cfg.engine().sharding.is_none(), "sharding off by default");
        cfg.apply_flag("engine_shards", "8").unwrap();
        let engine = cfg.engine();
        assert_eq!(engine.sharding.map(|s| s.shards), Some(8));
        // 0 and 1 both mean "plan jointly".
        cfg.apply_flag("engine_shards", "1").unwrap();
        assert!(cfg.engine().sharding.is_none());
        assert!(cfg.apply_flag("engine_shards", "many").is_err());
    }

    #[test]
    fn slo_and_flight_keys_parse_and_validate() {
        let mut cfg = DaemonConfig::default();
        cfg.apply_flag("slo_latency_ms", "100").unwrap();
        cfg.apply_flag("slo_availability", "0.99").unwrap();
        cfg.apply_flag("slo_burn_threshold", "14.4").unwrap();
        cfg.apply_flag("flight_dir", "/tmp/fl").unwrap();
        cfg.apply_flag("ring_slots", "1024").unwrap();
        assert_eq!(cfg.slo().latency_ns, 100_000_000);
        assert_eq!(cfg.slo().availability, 0.99);
        assert_eq!(cfg.flight_path(), PathBuf::from("/tmp/fl"));
        assert_eq!(cfg.ring_slots, 1024);
        assert!(cfg.apply_flag("slo_availability", "1.0").is_err());
        assert!(cfg.apply_flag("slo_availability", "-0.1").is_err());
        // Defaulted flight dir nests under the snapshot dir.
        let d = DaemonConfig::default();
        assert_eq!(d.flight_path(), d.snapshot_dir.join("flight"));
    }

    #[test]
    fn unknown_file_keys_are_rejected() {
        let v = serde_json::from_str(r#"{"wrokers": 4}"#).unwrap();
        assert!(DaemonConfig::from_value(&v)
            .unwrap_err()
            .contains("wrokers"));
    }

    #[test]
    fn cache_windows_is_no_longer_a_key() {
        // The old `chronusd` flag reaches `apply_flag` with its dashes
        // turned into underscores, as the config-file key does.
        let err = DaemonConfig::default()
            .apply_flag("cache_windows", "4")
            .unwrap_err();
        assert!(err.contains("unknown config key"), "{err}");
        let v = serde_json::from_str(r#"{"cache_windows": 4}"#).unwrap();
        let err = DaemonConfig::from_value(&v).unwrap_err();
        assert!(err.contains("unknown config key"), "{err}");
    }
}
