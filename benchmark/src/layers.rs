//! Source A of the per-layer table: a traced, single-threaded, in-process
//! replay of a workload's requests through each layer's public functions.
//!
//! The spans are recorded here, around the calls, because this change may
//! touch no file outside the benchmark; a later change can move them into
//! `chronus-trace` spans inside the program without renaming a metric.

use crate::checks::production_config;
use crate::stats::median_f64;
use crate::workloads::{submit_line, Pool, Workload, CRASH_ARMED, TENANT};
use chronus_core::greedy::{greedy_schedule_in, GreedyConfig};
use chronus_core::shard::shard_schedule_in;
use chronus_core::tree::check_feasibility;
use chronus_daemon::proto::request_from_line;
use chronus_daemon::{
    AdmissionQueues, ArmedRecord, Journal, Priority, QueuedJob, Request, UpdateState,
};
use chronus_engine::{
    planning_horizon, CacheKey, Engine, StageOutcome, TimeNetCache, UpdateRequest,
};
use chronus_net::codec::instance_from_value;
use chronus_timenet::SimWorkspace;
use chronus_trace::FlightRecorder;
use chronus_verify::{certify, VerifyConfig};
use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One timed interval: a call into a layer, or a part of one that the callee
/// reports itself (`derived`).
pub struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// In-memory span store; written out once, after the pass.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span named `name`, child of whatever span is open.
    /// Returns the result and the duration in microseconds.
    fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let index = self.enter(name, request);
        let out = f();
        (out, self.exit(index))
    }

    fn enter(&mut self, name: &'static str, request: u64) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    fn exit(&mut self, index: usize) -> f64 {
        let end_ns = self.now();
        assert_eq!(self.open.pop(), Some(index), "spans close innermost first");
        self.spans[index].end_ns = end_ns;
        (end_ns - self.spans[index].start_ns) as f64 / 1e3
    }

    /// Adds children of span `parent` whose durations the callee reported,
    /// laid end to end from the parent's start (their true offsets are not
    /// known from outside; self times only need the durations).
    fn derived(&mut self, parent: usize, parts: &[(&'static str, Duration)]) {
        let mut at = self.spans[parent].start_ns;
        for &(name, duration) in parts {
            let end = (at + duration.as_nanos() as u64).min(self.spans[parent].end_ns);
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: end,
                parent: Some(parent),
                request: self.spans[parent].request,
            });
            at = end;
        }
    }

    /// Self time per span name in microseconds: each span's duration minus
    /// the part of it its children cover, summed over the pass.
    pub fn self_times_us(&self) -> BTreeMap<&'static str, f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                covered[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let own = (span.end_ns - span.start_ns).saturating_sub(covered);
            *out.entry(span.name).or_insert(0.0) += own as f64 / 1e3;
        }
        out
    }

    /// The trace as JSON: every span, and the self-time totals.
    pub fn to_json(&self, workload: &str) -> String {
        let num = |v: u64| Value::from_u64_exact(v);
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let mut obj = Map::new();
                obj.insert("name".to_string(), Value::from(s.name));
                obj.insert("start_ns".to_string(), num(s.start_ns));
                obj.insert("end_ns".to_string(), num(s.end_ns));
                obj.insert(
                    "parent".to_string(),
                    s.parent.map_or(Value::Null, |p| num(p as u64)),
                );
                obj.insert("request".to_string(), num(s.request));
                Value::Object(obj)
            })
            .collect();
        let mut self_times = Map::new();
        for (name, us) in self.self_times_us() {
            self_times.insert(name.to_string(), Value::from(us));
        }
        let mut doc = Map::new();
        doc.insert("workload".to_string(), Value::from(workload));
        doc.insert("self_time_us".to_string(), Value::Object(self_times));
        doc.insert("spans".to_string(), Value::Array(spans));
        serde_json::to_string(&Value::Object(doc)).expect("a trace encodes")
    }
}

/// Per-request samples by metric name.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn of(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median per request; 0 when the layer never ran on this workload.
    pub fn p50(&self, name: &str) -> f64 {
        median_f64(self.of(name))
    }

    /// Mean per request; 0 when the layer never ran.
    pub fn mean(&self, name: &str) -> f64 {
        let v = self.of(name);
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    }

    /// Sum over the pass.
    pub fn sum(&self, name: &str) -> f64 {
        // An empty float sum is -0.0; adding 0.0 gives the 0 a reader expects.
        self.of(name).iter().sum::<f64>() + 0.0
    }
}

/// What the traced pass produced.
pub struct TracedPass {
    /// Per-request samples by metric.
    pub samples: Samples,
    /// The spans behind them.
    pub tracer: Tracer,
}

fn other(msg: impl std::fmt::Display) -> io::Error {
    io::Error::other(msg.to_string())
}

/// Replays `workload.traced_requests` requests of `pool` through every
/// layer, one at a time, with the flight recorder on as in `chronusd`.
/// Scratch files (two journals, a daemon state directory) go under `dir`.
pub fn traced_pass(workload: &Workload, pool: &Pool, dir: &Path) -> io::Result<TracedPass> {
    let mut config = production_config();
    config.snapshot_dir = dir.join("inproc-state");
    config.socket = dir.join("inproc-unused.sock");
    // Recording as in `chronusd`; no dump directory, so a trigger inside a
    // timed call (a refused two-phase certificate) writes no forensic dump.
    FlightRecorder::enable(config.ring_slots);

    let engine_config = config.engine();
    let engine = Engine::new(engine_config.clone());
    let mut admission = AdmissionQueues::new(config.admission());
    let cache = TimeNetCache::bounded(config.cache_windows);
    let mut ws = SimWorkspace::default();
    let mut journal = Journal::open(&dir.join("layers").join("journal.jsonl"))?;
    let daemon = chronus_daemon::Daemon::start(config.clone()).map_err(other)?;
    let greedy_config = GreedyConfig {
        verify: VerifyConfig::disabled(),
        ..GreedyConfig::default()
    };

    // The live daemon is measured after a warm-up pass; give the in-process
    // engine and daemon the same, where the pool fits their caches (a larger
    // pool misses on every request however long it runs: the cache evicts in
    // arrival order and the requests cycle).
    if pool.len() <= config.cache_windows {
        engine.plan_instances(pool.instances.clone());
        let ids: Vec<u64> = pool
            .instances
            .iter()
            .map(|i| daemon.submit(TENANT, Priority::Normal, None, Arc::clone(i)))
            .collect::<Result<_, _>>()
            .map_err(other)?;
        for id in ids {
            if daemon.watch(id, Duration::from_secs(10)).map(|st| st.state)
                == Some(UpdateState::Armed)
            {
                daemon.confirm(id).map_err(other)?;
            }
        }
    }

    let mut t = Tracer::new();
    let mut s = Samples::default();
    let mut armed_records: Vec<ArmedRecord> = Vec::new();
    let clock = Instant::now();

    for r in 0..workload.traced_requests as u64 {
        let original = &pool.instances[r as usize % pool.len()];
        let root = t.enter("request", r);

        // Wire: what the client encodes and the server parses and decodes.
        let (line, us) = t.time("client.encode", r, || submit_line(original));
        s.push("client.encode_us", us);
        s.push("wire.bytes_per_update", line.len() as f64);
        let (parsed, us) = t.time("proto.parse", r, || request_from_line(line.trim_end()));
        s.push("proto.parse_us", us);
        let Ok(Request::Submit {
            instance: value, ..
        }) = parsed
        else {
            return Err(other(format!("request {r} does not parse as a submit")));
        };
        let (decoded, us) = t.time("codec.decode", r, || instance_from_value(&value));
        s.push("codec.decode_us", us);
        let instance = Arc::new(decoded.map_err(other)?);

        // Admission: into a priority queue past the token bucket, and out.
        let job = QueuedJob {
            id: r,
            tenant: TENANT.to_string(),
            priority: Priority::Normal,
            instance: Arc::clone(&instance),
            deadline: config.default_deadline(),
            enqueued_ns: 0,
        };
        let now_ns = clock.elapsed().as_nanos() as i128;
        let (admitted, us) = t.time("admission.admit_pop", r, || {
            admission.admit(job, now_ns).map(|()| admission.pop())
        });
        s.push("admission.admit_pop_us", us);
        if !matches!(admitted, Ok(Some(_))) {
            return Err(other(format!("request {r} was not admitted: {admitted:?}")));
        }

        // Time-extended network cache: the first lookup of a window
        // materializes it, the second one finds it.
        let key = CacheKey::for_instance(&instance, planning_horizon(&instance));
        let ((_, hit), first_us) = t.time("cache.lookup", r, || {
            cache.get_or_materialize(key, &instance)
        });
        let (_, again_us) = t.time("cache.lookup", r, || {
            cache.get_or_materialize(key, &instance)
        });
        s.push(if hit { "cache.hit_us" } else { "cache.miss_us" }, first_us);
        s.push("cache.hit_us", again_us);
        let (hit_us, miss_us) = (again_us, if hit { again_us } else { first_us });

        // Planner kernels with certification off: greedy and its gate, the
        // tree search where greedy refuses, the sharded planner where there
        // is more than one flow.
        let greedy_span = t.enter("greedy.plan", r);
        let greedy = greedy_schedule_in(&instance, greedy_config, &mut ws);
        s.push("greedy.plan_us", t.exit(greedy_span));
        let mut schedule = None;
        match greedy {
            Ok(out) => {
                t.derived(
                    greedy_span,
                    &[("gate.check", Duration::from_nanos(out.gate_nanos))],
                );
                s.push("gate.check_us", out.gate_nanos as f64 / 1e3);
                s.push("gate.calls", out.simulator_calls as f64);
                s.push("gate.cells_touched", out.gate.cells_touched as f64);
                schedule = Some(out.schedule);
            }
            Err(_) => {
                let (_, us) = t.time("tree.check", r, || check_feasibility(&instance));
                s.push("tree.check_us", us);
            }
        }
        if let (Some(mut shard_config), true) = (engine_config.sharding, instance.flows.len() > 1) {
            // As the engine runs it: per-shard certificates are what the
            // optimistic rounds detect conflicts with.
            shard_config.greedy.verify = engine_config.verify;
            let (sharded, us) = t.time("shard.plan", r, || {
                shard_schedule_in(&instance, shard_config, &mut ws)
            });
            s.push("shard.plan_us", us);
            if let Ok(out) = sharded {
                s.push("shard.shards", out.stats.shards as f64);
                s.push("shard.replan_rounds", out.stats.replan_rounds as f64);
                s.push(
                    "shard.joint_fallbacks",
                    f64::from(u8::from(out.stats.fell_back_joint)),
                );
                schedule = Some(out.schedule);
            }
        }
        if let Some(schedule) = &schedule {
            let (verdict, us) = t.time("certify", r, || certify(&instance, schedule));
            s.push("certify.us", us);
            verdict.map_err(|v| other(format!("request {r}: planner schedule refused: {v}")))?;
        }

        // The engine's whole chain, as a daemon worker calls it.
        let request = UpdateRequest::new(r, Arc::clone(&instance), config.default_deadline());
        let plan_span = t.enter("engine.plan", r);
        let planned = engine.plan_one(request);
        let plan_us = t.exit(plan_span);
        s.push("engine.plan_us", plan_us);
        let stages: Vec<(&'static str, Duration)> = planned
            .attempts
            .iter()
            .filter(|a| !matches!(a.outcome, StageOutcome::Skipped(_)))
            .map(|a| (stage_name(a.stage), a.elapsed))
            .collect();
        let staged_us: f64 = stages.iter().map(|(_, d)| d.as_secs_f64() * 1e6).sum();
        let lookup_us = if planned.cache_hit { hit_us } else { miss_us };
        let slack_us = (planned.elapsed.as_secs_f64() * 1e6 - staged_us - lookup_us).max(0.0);
        let mut parts = stages;
        if planned.slack.is_some() {
            parts.push((
                "engine.stage.slack",
                Duration::from_secs_f64(slack_us / 1e6),
            ));
            s.push("slack.us", slack_us);
            s.push("slack.dilation_mean", planned.dilation as f64);
        }
        t.derived(plan_span, &parts);
        if let Some(slack) = &planned.slack {
            s.push("slack.schedules_checked", slack.schedules_checked as f64);
        }

        // Journal: the arm record a worker would write, then a tombstone
        // (a few bytes, so nearly a bare fsync).
        let mut append_us = 0.0;
        if let (Ok(schedule), Some(certificate)) = (planned.timed_schedule(), &planned.certificate)
        {
            let record = ArmedRecord {
                id: r + 1,
                tenant: TENANT.to_string(),
                priority: Priority::Normal,
                epoch_ns: now_ns,
                dilation: planned.dilation,
                instance: (*instance).clone(),
                schedule: schedule.clone(),
                certificate: certificate.clone(),
                slack: planned.slack.clone(),
                span_id: planned.span_id,
                plan_ns: planned.elapsed.as_nanos() as u64,
            };
            let before = std::fs::metadata(journal.path())?.len();
            let (appended, us) = t.time("journal.append_arm", r, || journal.append_arm(&record));
            appended?;
            append_us = us;
            s.push("journal.append_arm_us", us);
            let bytes = std::fs::metadata(journal.path())?.len() - before;
            s.push("journal.bytes_per_arm", bytes as f64);
            let (completed, us) = t.time("journal.fsync", r, || journal.append_complete(record.id));
            completed?;
            s.push("journal.fsync_us", us);
            if armed_records.len() < CRASH_ARMED {
                armed_records.push(record);
            }
        }

        // The service around them: an in-process daemon's submit → watch.
        let service_span = t.enter("daemon.submit_watch", r);
        let id = daemon
            .submit(TENANT, Priority::Normal, None, Arc::clone(&instance))
            .map_err(other)?;
        let status = daemon.watch(id, Duration::from_secs(10));
        let service_us = t.exit(service_span);
        s.push(
            "service.overhead_us",
            (service_us - plan_us - append_us).max(0.0),
        );
        s.push("service.submit_watch_us", service_us);
        match status.map(|st| st.state) {
            Some(UpdateState::Armed) => daemon.confirm(id).map_err(other)?,
            Some(UpdateState::Completed) => {}
            state => return Err(other(format!("in-process update {id} ended {state:?}"))),
        }
        t.exit(root);
    }

    journal_recovery(&mut s, &armed_records, dir)?;
    daemon.shutdown();
    Ok(TracedPass {
        samples: s,
        tracer: t,
    })
}

fn stage_name(stage: chronus_engine::Stage) -> &'static str {
    use chronus_engine::Stage;
    match stage {
        Stage::Sharded => "engine.stage.sharded",
        Stage::Greedy => "engine.stage.greedy",
        Stage::Tree => "engine.stage.tree",
        Stage::TwoPhase => "engine.stage.two_phase",
    }
}

/// Times `Journal::replay` and `Journal::compact` on a journal of
/// [`CRASH_ARMED`] live records (the pass's own arm records, repeated if
/// it armed fewer), per record, median of three.
fn journal_recovery(s: &mut Samples, records: &[ArmedRecord], dir: &Path) -> io::Result<()> {
    if records.is_empty() {
        return Ok(());
    }
    let path = dir.join("layers").join("recovery.jsonl");
    let _ = std::fs::remove_file(&path);
    let mut journal = Journal::open(&path)?;
    let live: Vec<ArmedRecord> = (0..CRASH_ARMED)
        .map(|i| ArmedRecord {
            id: i as u64 + 1,
            ..records[i % records.len()].clone()
        })
        .collect();
    for record in &live {
        journal.append_arm(record)?;
    }
    let refs: Vec<&ArmedRecord> = live.iter().collect();
    let (mut replays, mut compactions) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let started = Instant::now();
        let replay = Journal::replay(&path)?;
        replays.push(started.elapsed().as_secs_f64() * 1e6 / CRASH_ARMED as f64);
        if replay.live.len() != CRASH_ARMED {
            return Err(other("recovery journal did not replay to its records"));
        }
        let started = Instant::now();
        journal.compact(&refs)?;
        compactions.push(started.elapsed().as_secs_f64() * 1e6 / CRASH_ARMED as f64);
    }
    s.push("journal.replay_us_per_record", median_f64(&replays));
    s.push("journal.compact_us_per_record", median_f64(&compactions));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        let root = t.enter("request", 0);
        let child = t.enter("engine.plan", 0);
        std::thread::sleep(Duration::from_millis(2));
        t.exit(child);
        t.derived(child, &[("engine.stage.greedy", Duration::from_millis(1))]);
        t.exit(root);
        let own = t.self_times_us();
        let plan: f64 = (t.spans[child].end_ns - t.spans[child].start_ns) as f64 / 1e3;
        assert!((own["engine.stage.greedy"] - 1000.0).abs() < 1.0);
        assert!((own["engine.plan"] - (plan - 1000.0)).abs() < 1.0);
        assert!(
            own["request"] < plan,
            "the root keeps only what no child covers"
        );
        let json = serde_json::from_str(&t.to_json("w")).unwrap();
        assert_eq!(
            json.get("spans").and_then(Value::as_array).map(Vec::len),
            Some(3)
        );
    }

    #[test]
    fn samples_aggregate_per_request() {
        let mut s = Samples::default();
        for v in [1.0, 9.0, 2.0] {
            s.push("x", v);
        }
        assert_eq!(s.p50("x"), 2.0);
        assert_eq!(s.mean("x"), 4.0);
        assert_eq!(s.sum("x"), 12.0);
        assert_eq!(s.p50("never_ran"), 0.0);
    }
}
