//! The repository's benchmark: `chronusd`, as a child process with one fixed
//! production command line, driven over its Unix socket by four workloads.
//! See `README.md` beside this crate for what is measured and why.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! benchmark full [--seed N] [--seconds S] [--runs N] [--out FILE]
//! benchmark compare A.json B.json
//! ```
//!
//! Run from the repository root. The first form is what `BENCHMARK.json`
//! names: one workload, one JSON result as the last line of standard output.

#![forbid(unsafe_code)]

mod checks;
mod child;
mod compare;
mod layers;
mod loadgen;
mod procfs;
mod report;
mod scrape;
mod stats;
mod workloads;

use child::{Conn, Daemon};
use loadgen::{closed_loop, open_loop, PhaseStats, Stop};
use report::{RunOutput, END_TO_END, PER_LAYER};
use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use workloads::{
    build_pool, burst_plan, burst_slices, BurstPlan, Loop, Pool, Workload, BURSTS_PER_S,
    BURST_SIZE, CLIENTS, CRASH_ARMED, CRASH_CYCLES, DEFAULT_SEED, SETUP_REPEATS, WORKLOADS,
};

/// Everything a run writes lands here (ignored by git).
const OUT_DIR: &str = "benchmark/out";
/// A single-workload run that is not done by now is hung (its caller allows
/// 180 s once the build exists).
const RUN_LIMIT: Duration = Duration::from_secs(170);
/// Pings behind `server.roundtrip_us`.
const ROUNDTRIP_PINGS: usize = 2_000;

fn other(msg: impl std::fmt::Display) -> io::Error {
    io::Error::other(msg.to_string())
}

/// Builds `chronusd` from the repository's own manifest, in release mode, and
/// returns the binary's path. Compilation is no part of any metric.
fn build_chronusd() -> io::Result<PathBuf> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("crates/daemon").is_dir() {
        return Err(other(
            "run from the repository root: ./Cargo.toml and ./crates/daemon must exist",
        ));
    }
    // `cargo run` exports the target directory it was given; without one,
    // keep the daemon's build beside the harness's own, under benchmark/.
    let target_dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("benchmark/target"), PathBuf::from);
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--manifest-path",
            "Cargo.toml",
        ])
        .args(["-p", "chronus-daemon", "--bin", "chronusd"])
        .env("CARGO_TARGET_DIR", &target_dir)
        .stdout(std::process::Stdio::null())
        .status()?;
    if !status.success() {
        return Err(other(format!("building chronusd failed ({status})")));
    }
    let binary = target_dir.join("release").join("chronusd");
    if !binary.is_file() {
        return Err(other(format!("{} was not built", binary.display())));
    }
    Ok(binary)
}

/// Where a run of `w` keeps its socket, state and scratch files.
fn run_dir(w: &Workload) -> PathBuf {
    PathBuf::from(OUT_DIR).join(format!("{}-{}", w.name, std::process::id()))
}

/// A workload's inputs: a pure function of the seed, generated once per run
/// and not part of `setup_s` (how long quota-filling draws takes depends on
/// the seed, not on the program under test).
struct Inputs {
    pool: Pool,
    /// What the open loop sends when, slice by slice; empty for closed loops.
    bursts: Vec<BurstPlan>,
}

fn generate(w: &Workload, seed: u64, seconds: f64) -> Inputs {
    let pool = build_pool(w, seed);
    let bursts = match w.load {
        Loop::Open => (0..burst_slices(BURSTS_PER_S, seconds, pool.len()))
            .map(|slice| burst_plan(seed, BURSTS_PER_S, pool.len(), slice))
            .collect(),
        Loop::Closed => Vec::new(),
    };
    Inputs { pool, bursts }
}

/// What one set-up leaves behind for the measured phase.
struct SetUp {
    daemon: Daemon,
    warm_up: PhaseStats,
}

/// Set-up: start `chronusd` and wait for its first pong, then warm it with
/// one closed-loop pass over the pool (every cache window the pool can keep
/// is resident and lazy initialisation is done before anything is timed).
fn set_up(inputs: &Inputs, binary: &Path, dir: &Path) -> io::Result<SetUp> {
    let daemon = Daemon::start(binary, dir)?;
    let warm_up = closed_loop(
        daemon.socket(),
        &inputs.pool.lines,
        CLIENTS,
        Stop::Passes(1),
    )?;
    Ok(SetUp { daemon, warm_up })
}

/// One slice of the measured phase: a whole number of passes over the pool,
/// and the CPU time `chronusd` spent on them.
struct Slice {
    stats: PhaseStats,
    cpu_ms: f64,
}

/// The measured phase: the workload's loop against the live daemon, in
/// slices of `w.slice_passes` passes over the pool, for at least `seconds`.
/// Load stops between slices (the closed loop's clients finish their last
/// operations, the open loop's queue drains), so every slice is the same
/// work measured again and a run reports the median over its slices.
fn measured_phase(
    w: &Workload,
    inputs: &Inputs,
    daemon: &Daemon,
    seconds: f64,
) -> io::Result<Vec<Slice>> {
    let socket = daemon.socket();
    let lines = &inputs.pool.lines;
    let started = Instant::now();
    let mut plans = inputs.bursts.iter();
    let mut slices = Vec::new();
    loop {
        let before = procfs::sample(daemon.pid())?;
        let stats = match (w.load, plans.next()) {
            (Loop::Open, Some(plan)) => {
                open_loop(socket, lines, &plan.due_ns, &plan.order, BURST_SIZE)?
            }
            (Loop::Closed, _) if started.elapsed().as_secs_f64() < seconds => {
                closed_loop(socket, lines, CLIENTS, Stop::Passes(w.slice_passes))?
            }
            _ => return Ok(slices),
        };
        let cpu_ms = procfs::sample(daemon.pid())?.cpu_ms - before.cpu_ms;
        slices.push(Slice { stats, cpu_ms });
    }
}

/// Everything the slices did, as one phase.
fn whole_phase(slices: Vec<Slice>) -> PhaseStats {
    let mut total = PhaseStats::default();
    for slice in slices {
        total.merge(slice.stats);
    }
    total
}

/// Median over the slices of what `of` reads from one.
fn slice_median(slices: &[Slice], of: impl Fn(&Slice) -> f64) -> f64 {
    stats::median_f64(&slices.iter().map(of).collect::<Vec<_>>())
}

fn note_failures(out: &mut RunOutput, what: &str, phase: &PhaseStats) {
    out.attempted += phase.ops;
    out.failed += phase.failed;
    for why in &phase.failures {
        out.problems.push(format!("{what}: {why}"));
    }
}

/// Median and tail latency of a phase in milliseconds, and the tail quantile
/// the sample supports (p99 from 1 000 samples on).
fn latency_ms(phase: &PhaseStats) -> (f64, f64, f64) {
    let mut sorted = phase.latencies_ns.clone();
    sorted.sort_unstable();
    let tail = stats::tail_quantile(sorted.len(), 0.99);
    let ms = |q| stats::quantile_sorted(&sorted, q) as f64 / 1e6;
    (ms(0.5), ms(tail), tail)
}

/// The crash phase: leaves [`CRASH_ARMED`] armed updates unconfirmed, kills
/// and restarts the daemon over them, and audits what survived. Returns the
/// median SIGKILL → first pong time in milliseconds.
fn crash_and_audit(out: &mut RunOutput, pool: &Pool, daemon: &mut Daemon) -> io::Result<f64> {
    let tail = closed_loop(
        daemon.socket(),
        &pool.lines,
        CLIENTS,
        Stop::Armed(CRASH_ARMED as u64),
    )?;
    note_failures(out, "crash-phase tail", &tail);
    let crash = checks::crash_phase(daemon, &tail.unconfirmed)?;
    out.failed += crash.not_rearmed;
    out.problems.extend(crash.problems);
    out.note_count("restart_samples", crash.restart_ms.len() as u64);
    Ok(stats::median_f64(&crash.restart_ms))
}

/// One run with tracing off: every end-to-end metric, the crash phase and
/// the quality pass.
fn run_end_to_end(w: &Workload, seed: u64, seconds: f64, binary: &Path) -> io::Result<RunOutput> {
    let dir = run_dir(w);
    let mut out = RunOutput::default();

    let inputs = generate(w, seed, seconds);
    let mut set_ups = Vec::with_capacity(SETUP_REPEATS);
    let mut kept: Option<SetUp> = None;
    for _ in 0..SETUP_REPEATS {
        // The previous repeat's daemon goes first: they share socket and state.
        drop(kept.take());
        let started = Instant::now();
        kept = Some(set_up(&inputs, binary, &dir)?);
        set_ups.push(started.elapsed().as_secs_f64());
    }
    let mut s = kept.expect("SETUP_REPEATS is at least one");
    out.metrics.insert("setup_s", stats::median_f64(&set_ups));
    note_failures(&mut out, "warm-up", &s.warm_up);

    let slices = measured_phase(w, &inputs, &s.daemon, seconds)?;
    let after = procfs::sample(s.daemon.pid())?;
    out.metrics.insert(
        "arm_p50_ms",
        slice_median(&slices, |slice| latency_ms(&slice.stats).0),
    );
    out.metrics.insert(
        "updates_per_s",
        slice_median(&slices, |slice| {
            (slice.stats.armed + slice.stats.fallback) as f64 / slice.stats.wall.as_secs_f64()
        }),
    );
    out.metrics.insert(
        "cpu_ms_per_update",
        slice_median(&slices, |slice| {
            slice.cpu_ms / slice.stats.ops.max(1) as f64
        }),
    );
    out.note_count("slices", slices.len() as u64);
    let phase = whole_phase(slices);
    note_failures(&mut out, "measured phase", &phase);
    let settled = (phase.armed + phase.fallback) as f64;
    out.metrics
        .insert("peak_rss_mb", after.peak_rss_kb as f64 / 1024.0);
    out.metrics
        .insert("timed_share", phase.armed as f64 / settled.max(1.0));

    let restart_ms = crash_and_audit(&mut out, &inputs.pool, &mut s.daemon)?;
    out.note("restart_ms", restart_ms);
    let args = s.daemon.args();
    s.daemon.drain()?;

    // Quality pass, and the cross-check between what the daemon reported per
    // operation and what its engine configuration does to the same pool.
    let quality = checks::quality_pass(&inputs.pool);
    out.problems.extend(quality.problems);
    let passes = phase.ops / inputs.pool.len() as u64;
    if phase.failed == 0 && phase.fallback != passes * quality.fallbacks {
        out.problems.push(format!(
            "daemon settled {} of {} operations by fallback, the in-process engine {} x {passes} passes",
            phase.fallback, phase.ops, quality.fallbacks
        ));
    }
    out.metrics
        .insert("makespan_mean_steps", quality.makespan_mean_steps);
    out.metrics
        .insert("fire_window_mean_steps", quality.fire_window_mean_steps);
    out.note("slack_mean_steps", quality.slack_mean_steps);

    out.note_count("operations", phase.ops);
    out.note_count("pool", inputs.pool.len() as u64);
    out.note_count("arm_latency_samples", phase.latencies_ns.len() as u64);
    out.note_count("setup_samples", SETUP_REPEATS as u64);
    out.note("fallback_share", phase.fallback as f64 / settled.max(1.0));
    out.note(
        "failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.note(
        "chronusd_args",
        Value::Array(args.iter().map(|a| Value::from(a.as_str())).collect()),
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}

/// Median round trip of `ping` on one connection to the idle daemon.
fn roundtrip_us(socket: &Path) -> io::Result<f64> {
    let mut conn = Conn::connect(socket)?;
    let mut samples = Vec::with_capacity(ROUNDTRIP_PINGS);
    for _ in 0..ROUNDTRIP_PINGS {
        let started = Instant::now();
        conn.call_ok("{\"cmd\":\"ping\"}\n")?;
        samples.push(started.elapsed().as_secs_f64() * 1e6);
    }
    Ok(stats::median_f64(&samples))
}

fn scrape_now(socket: &Path) -> io::Result<scrape::Scrape> {
    let reply = Conn::connect(socket)?.call_ok("{\"cmd\":\"metrics\"}\n")?;
    let text = reply.get("text").and_then(Value::as_str);
    Ok(scrape::parse(
        text.ok_or_else(|| other("metrics reply without text"))?,
    ))
}

/// Source B: what the daemon's own counters and histograms say happened
/// between the two scrapes, over `ops` operations.
fn scrape_metrics(m: &mut BTreeMap<&'static str, f64>, d: &scrape::Delta, ops: f64) {
    for (name, family) in [
        ("scrape.plan_mean_us", "chronus_daemon_plan_ns"),
        (
            "scrape.slack_stage_mean_us",
            "chronus_engine_slack_stage_ns",
        ),
        (
            "scrape.greedy_stage_mean_us",
            "chronus_engine_greedy_stage_ns",
        ),
        (
            "scrape.submit_to_settle_mean_us",
            "chronus_daemon_submit_to_settle_ns",
        ),
    ] {
        m.insert(name, d.hist_mean(family) / 1e3);
    }
    for (name, q) in [
        ("scrape.queue_wait_p50_us", 0.5),
        ("scrape.queue_wait_p99_us", 0.99),
    ] {
        m.insert(
            name,
            d.hist_quantile("chronus_daemon_queue_wait_ns", q) / 1e3,
        );
    }
    m.insert("scrape.queue_peak", d.gauge("chronus_daemon_queue_peak"));
    for (name, counter) in [
        ("engine.certs_failed", "chronus_engine_certs_failed_total"),
        (
            "engine.deadline_timeouts",
            "chronus_engine_deadline_timeouts_total",
        ),
        ("cache.evictions", "chronus_daemon_cache_evictions"),
        (
            "daemon.shed_queue_full",
            "chronus_daemon_shed_queue_full_total",
        ),
        (
            "daemon.shed_rate_limited",
            "chronus_daemon_shed_rate_limited_total",
        ),
        ("daemon.snapshots", "chronus_daemon_snapshots_total"),
        ("flight.dropped", "chronus_daemon_flight_dropped"),
        ("flight.dumps", "chronus_daemon_flight_dumps"),
    ] {
        m.insert(name, d.counter(counter));
    }
    let planned = d
        .counter("chronus_engine_requests_completed_total")
        .max(1.0);
    for (name, stage) in [
        ("engine.greedy_win_share", "greedy"),
        ("engine.sharded_win_share", "sharded"),
        ("engine.tree_win_share", "tree"),
        ("engine.two_phase_win_share", "two_phase"),
    ] {
        m.insert(
            name,
            d.counter(&format!("chronus_engine_{stage}_wins_total")) / planned,
        );
    }
    m.insert(
        "engine.slack_target_missed_share",
        d.counter("chronus_engine_slack_target_missed_total")
            / d.counter("chronus_engine_slack_certified_total").max(1.0),
    );
    let hits = d.counter("chronus_daemon_cache_hits");
    let lookups = hits + d.counter("chronus_daemon_cache_misses");
    m.insert("cache.hit_share", hits / lookups.max(1.0));
    // The closing `metrics` request itself is not the workload's.
    m.insert(
        "server.requests_per_update",
        (d.counter("chronus_daemon_requests_total") - 1.0).max(0.0) / ops,
    );
}

/// One run with tracing on: every per-layer metric. Source B comes from a
/// measured phase half as long as an untraced run's, bracketed by scrapes;
/// then the crash phase; source A from the in-process pass that follows.
fn run_traced(w: &Workload, seed: u64, seconds: f64, binary: &Path) -> io::Result<RunOutput> {
    let dir = run_dir(w);
    let mut out = RunOutput::default();
    let m = &mut out.metrics;

    let inputs = generate(w, seed, seconds / 2.0);
    let mut s = set_up(&inputs, binary, &dir)?;
    let socket = s.daemon.socket();
    let (scrape_before, proc_before) = (scrape_now(socket)?, procfs::sample(s.daemon.pid())?);
    let phase = whole_phase(measured_phase(w, &inputs, &s.daemon, seconds / 2.0)?);
    let (scrape_after, proc_after) = (scrape_now(socket)?, procfs::sample(s.daemon.pid())?);
    let roundtrip = roundtrip_us(socket)?;
    let ops = phase.ops.max(1) as f64;

    let d = scrape::Delta {
        before: &scrape_before,
        after: &scrape_after,
    };
    scrape_metrics(m, &d, ops);
    m.insert(
        "service.ctx_switches_per_update",
        proc_after
            .ctx_switches
            .saturating_sub(proc_before.ctx_switches) as f64
            / ops,
    );
    let mut late = phase.late_ns.clone();
    late.sort_unstable();
    m.insert(
        "gen.late_p99_us",
        stats::quantile_sorted(&late, stats::tail_quantile(late.len(), 0.99)) as f64 / 1e3,
    );
    m.insert("server.roundtrip_us", roundtrip);
    let (plan_mean_us, queue_wait_p50_us) =
        (m["scrape.plan_mean_us"], m["scrape.queue_wait_p50_us"]);
    note_failures(&mut out, "warm-up", &s.warm_up);
    note_failures(&mut out, "measured phase", &phase);
    let restart_ms = crash_and_audit(&mut out, &inputs.pool, &mut s.daemon)?;
    out.metrics.insert("restart_ms", restart_ms);
    s.daemon.drain()?;

    // Source A.
    let pass = layers::traced_pass(w, &inputs.pool, &dir)?;
    let a = &pass.samples;
    let m = &mut out.metrics;
    for name in [
        "client.encode_us",
        "proto.parse_us",
        "codec.decode_us",
        "admission.admit_pop_us",
        "cache.hit_us",
        "cache.miss_us",
        "greedy.plan_us",
        "gate.check_us",
        "shard.plan_us",
        "tree.check_us",
        "certify.us",
        "engine.plan_us",
        "slack.us",
        "journal.append_arm_us",
        "journal.fsync_us",
        "journal.replay_us_per_record",
        "journal.compact_us_per_record",
        "service.overhead_us",
    ] {
        m.insert(name, a.p50(name));
    }
    for name in [
        "wire.bytes_per_update",
        "gate.calls",
        "gate.cells_touched",
        "shard.shards",
        "shard.replan_rounds",
        "slack.schedules_checked",
        "slack.dilation_mean",
        "journal.bytes_per_arm",
    ] {
        m.insert(name, a.mean(name));
    }
    m.insert("shard.joint_fallbacks", a.sum("shard.joint_fallbacks"));
    m.insert(
        "trace.plan_gap_ratio",
        plan_mean_us / a.mean("engine.plan_us").max(f64::MIN_POSITIVE),
    );
    // The steps an operation's latency waits for: two round trips (submit,
    // watch), the server parsing and decoding the submit line, the wait in
    // the admission queue under this workload's load, and the uncontended
    // service from submit to settled (admission, worker hand-off, the engine,
    // the journal append, the status table).
    let (arm_p50_ms, arm_p99_ms, tail) = latency_ms(&phase);
    let arm_p50_us = arm_p50_ms * 1e3;
    m.insert("arm_p99_ms", arm_p99_ms);
    let blocking_us = 2.0 * roundtrip
        + a.p50("proto.parse_us")
        + a.p50("codec.decode_us")
        + queue_wait_p50_us
        + a.p50("service.submit_watch_us");
    m.insert(
        "trace.unaccounted_share",
        (arm_p50_us - blocking_us) / arm_p50_us.max(f64::MIN_POSITIVE),
    );

    std::fs::create_dir_all(OUT_DIR)?;
    let trace_path = PathBuf::from(OUT_DIR).join(format!("trace-{}.json", w.name));
    std::fs::write(&trace_path, pass.tracer.to_json(w.name))?;
    out.note_count("operations", phase.ops);
    out.note("arm_p50_us", arm_p50_us);
    out.note("arm_tail_quantile", tail);
    out.note_count("arm_latency_samples", phase.latencies_ns.len() as u64);
    out.note("blocking_path_us", blocking_us);
    out.note_count("traced_requests", w.traced_requests as u64);
    out.note("trace_file", trace_path.display().to_string());
    let mut self_times = Map::new();
    for (name, us) in pass.tracer.self_times_us() {
        self_times.insert(name.to_string(), Value::from(us));
    }
    out.note("self_time_us", Value::Object(self_times));
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}

/// Command-line flags as `--key value` pairs after any subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        for pair in args.chunks(2) {
            match pair {
                [key, value] if key.starts_with("--") => {
                    pairs.push((key[2..].to_string(), value.clone()));
                }
                _ => return Err(format!("expected `--flag value` pairs, got {pair:?}")),
            }
        }
        Ok(Flags(pairs))
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.0.iter().rev().find(|(k, _)| k == key) {
            Some((_, v)) => v.parse().map_err(|_| format!("--{key}: cannot read `{v}`")),
            None => Ok(default),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(k, _)| !allowed.contains(&k.as_str())) {
            Some((k, _)) => Err(format!("unknown flag --{k}")),
            None => Ok(()),
        }
    }
}

fn run_seconds_default() -> f64 {
    std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|text| serde_json::from_str(&text).ok())
        .and_then(|v| v.get("run_seconds").and_then(Value::as_f64))
        .unwrap_or(20.0)
}

/// The driver's form: one workload, one result line.
fn main_single(flags: &Flags) -> Result<ExitCode, String> {
    flags.only(&["workload", "seed", "seconds", "trace"])?;
    let name: String = flags.get("workload", String::new())?;
    let w = workloads::workload(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = flags.get("seed", DEFAULT_SEED)?;
    let seconds = flags.get("seconds", run_seconds_default())?;
    let traced = match flags.get("trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, not {other}")),
    };
    let binary = build_chronusd().map_err(|e| e.to_string())?;
    child::arm_watchdog(RUN_LIMIT);
    let (out, table) = if traced {
        (run_traced(&w, seed, seconds, &binary), PER_LAYER)
    } else {
        (run_end_to_end(&w, seed, seconds, &binary), END_TO_END)
    };
    let out = out.map_err(|e| format!("{name}: {e}"))?;
    print_metrics(&w, &out, table);
    println!("{}", out.result_line(table));
    Ok(ExitCode::SUCCESS)
}

fn print_metrics(w: &Workload, out: &RunOutput, table: &[(&str, &str)]) {
    for &(name, unit) in table {
        println!(
            "{:<18} {name:<34} {:>16.4} {unit}",
            w.name, out.metrics[name]
        );
    }
    for problem in &out.problems {
        eprintln!("{}: PROBLEM: {problem}", w.name);
    }
}

fn why_of(manifest: &Value, workload: &str) -> String {
    manifest
        .get("workloads")
        .and_then(Value::as_array)
        .and_then(|ws| {
            ws.iter()
                .find(|w| w.get("name").and_then(Value::as_str) == Some(workload))
        })
        .and_then(|w| w.get("why").and_then(Value::as_str))
        .unwrap_or("")
        .to_string()
}

/// `full`: every workload, `--runs` untraced runs each (run `i` uses seed
/// `--seed + i`) and one traced run, printed metric by metric and written to
/// one result file that `compare` reads.
fn main_full(flags: &Flags) -> Result<ExitCode, String> {
    flags.only(&["seed", "seconds", "runs", "out"])?;
    let seed = flags.get("seed", DEFAULT_SEED)?;
    let seconds = flags.get("seconds", run_seconds_default())?;
    let runs = flags.get("runs", 1usize)?.max(1);
    let out_path: String = flags.get("out", format!("{OUT_DIR}/result.json"))?;
    let manifest = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|t| serde_json::from_str(&t).map_err(|e| format!("BENCHMARK.json: {e}")))?;
    let binary = build_chronusd().map_err(|e| e.to_string())?;

    let mut all_correct = true;
    let mut by_workload = Map::new();
    for w in &WORKLOADS {
        let mut doc = Map::new();
        let mut series: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        let (mut attempted, mut failed, mut problems) = (Vec::new(), Vec::new(), Vec::new());
        let mut correct = true;
        for run in 0..runs as u64 {
            let out = run_end_to_end(w, seed + run, seconds, &binary)
                .map_err(|e| format!("{}: {e}", w.name))?;
            print_metrics(w, &out, END_TO_END);
            for (values, (name, _)) in series.iter_mut().zip(END_TO_END) {
                values.push(out.metrics[name]);
            }
            attempted.push(Value::from_u64_exact(out.attempted));
            failed.push(Value::from_u64_exact(out.failed));
            correct &= out.correct();
            problems.extend(out.problems.iter().map(|p| Value::from(p.as_str())));
            doc.insert("notes".to_string(), Value::Object(out.notes));
        }
        let traced =
            run_traced(w, seed, seconds, &binary).map_err(|e| format!("{}: {e}", w.name))?;
        print_metrics(w, &traced, PER_LAYER);
        correct &= traced.correct();
        problems.extend(traced.problems.iter().map(|p| Value::from(p.as_str())));
        all_correct &= correct;

        let mut end_to_end = Map::new();
        for (values, (name, unit)) in series.iter().zip(END_TO_END) {
            end_to_end.insert(name.to_string(), report::series_value(unit, values));
        }
        doc.insert("why".to_string(), Value::from(why_of(&manifest, w.name)));
        doc.insert("correct".to_string(), Value::Bool(correct));
        doc.insert("attempted".to_string(), Value::Array(attempted));
        doc.insert("failed".to_string(), Value::Array(failed));
        doc.insert("problems".to_string(), Value::Array(problems));
        doc.insert("end_to_end".to_string(), Value::Object(end_to_end));
        doc.insert("per_layer".to_string(), traced.metrics_value(PER_LAYER));
        doc.insert("traced_notes".to_string(), Value::Object(traced.notes));
        by_workload.insert(w.name.to_string(), Value::Object(doc));
    }

    let n = |v: usize| Value::from_u64_exact(v as u64);
    let mut constants = Map::new();
    constants.insert("clients".to_string(), n(CLIENTS));
    constants.insert("burst_size".to_string(), n(BURST_SIZE));
    constants.insert("bursts_per_s".to_string(), Value::from(BURSTS_PER_S));
    constants.insert("crash_armed".to_string(), n(CRASH_ARMED));
    constants.insert("crash_cycles_min".to_string(), n(CRASH_CYCLES));
    constants.insert("setup_repeats".to_string(), n(SETUP_REPEATS));
    let mut host = Map::new();
    std::fs::create_dir_all(OUT_DIR).map_err(|e| e.to_string())?;
    for (key, value) in procfs::host_fingerprint(Path::new(OUT_DIR)) {
        host.insert(key.to_string(), Value::from(value));
    }
    let mut doc = Map::new();
    doc.insert("seed".to_string(), Value::from_u64_exact(seed));
    doc.insert("runs".to_string(), n(runs));
    doc.insert("seconds".to_string(), Value::from(seconds));
    doc.insert("host".to_string(), Value::Object(host));
    doc.insert("constants".to_string(), Value::Object(constants));
    doc.insert("workloads".to_string(), Value::Object(by_workload));
    let text = serde_json::to_string_pretty(&Value::Object(doc)).map_err(|e| e.to_string())?;
    std::fs::write(&out_path, text + "\n").map_err(|e| format!("{out_path}: {e}"))?;
    println!("wrote {out_path}");
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("at least one workload's outputs were not correct");
        ExitCode::FAILURE
    })
}

fn main_compare(files: &[String]) -> Result<ExitCode, String> {
    let [a, b] = files else {
        return Err("usage: benchmark compare A.json B.json".to_string());
    };
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, regressed, unresolved) =
        compare::compare(&load("BENCHMARK.json")?, &load(a)?, &load(b)?)?;
    print!("{table}");
    println!("{regressed} regressed, {unresolved} unresolved");
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => main_compare(&args[1..]),
        Some("full") => Flags::parse(&args[1..]).and_then(|f| main_full(&f)),
        _ => Flags::parse(&args).and_then(|f| main_single(&f)),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
