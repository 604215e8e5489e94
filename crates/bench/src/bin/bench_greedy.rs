//! Greedy kernel benchmark, machine readable.
//!
//! Runs `greedy_schedule` (flat scan + incremental exact gate — the
//! one planner path) on fig10-scale single-flow instances and records,
//! per size:
//!
//! - `ns_per_op`: whole-run wall clock, fastest rep;
//! - `gate_ns_per_op`: the part of that rep spent inside the exact
//!   gate (simulator construction plus every check), measured by the
//!   gate itself;
//! - `simulator_calls`, `cells_touched`, `ledger_applies`, `makespan`:
//!   deterministic work counts and the schedule quality, which
//!   `bench_check` pins exactly against the committed file;
//! - `arena_bytes`: the simulation arena's high-water mark.
//!
//! Certification is off: this is a kernel bench. Wall-clock numbers
//! here are informational — end-to-end regressions are gated by
//! `benchmark/`, which runs the production configuration.
//!
//! One more row, `slack/12`, times the slack stage's kernel: the
//! k = 1 hypercube of a fixed 12-entry schedule, walked in full —
//! `schedules_checked` (4 096, pinned by `bench_check`) and
//! `ns_per_point`, the whole `slack_certificate` call over its points.
//!
//! Writes `BENCH_greedy.json`; CI runs this as a smoke job.

#![forbid(unsafe_code)]

use chronus_bench::fig10::scale_instance;
use chronus_core::greedy::{greedy_schedule_in, GreedyConfig, GreedyOutcome};
use chronus_net::{reversal_instance, UpdateInstance};
use chronus_timenet::SimWorkspace;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Reps of `run` until a 400 ms budget or 2000 reps, whichever first
/// (always at least one), after one untimed warm-up rep that eats
/// workspace arena growth and cold caches. Reports the fastest rep —
/// the minimum discards scheduler preemptions and cache-eviction
/// spikes — and that rep's outcome.
fn fastest<T>(mut run: impl FnMut() -> (Duration, T)) -> (Duration, T) {
    let (_, mut best_out) = run(); // warm-up: time discarded
    let mut best = Duration::MAX;
    let mut total = Duration::ZERO;
    let mut reps = 0u32;
    while reps == 0 || (total < Duration::from_millis(400) && reps < 2000) {
        let (dt, out) = run();
        total += dt;
        reps += 1;
        if dt < best {
            best = dt;
            best_out = out;
        }
    }
    (best, best_out)
}

fn time_greedy(inst: &UpdateInstance) -> (Duration, GreedyOutcome) {
    let cfg = GreedyConfig {
        verify: chronus_verify::VerifyConfig::disabled(),
        ..GreedyConfig::default()
    };
    let mut ws = SimWorkspace::default();
    fastest(|| {
        let t0 = Instant::now();
        let out = greedy_schedule_in(inst, cfg, &mut ws);
        let dt = t0.elapsed();
        match out {
            Ok(out) => (dt, out),
            Err(e) => panic!("greedy failed on a bench instance: {e}"),
        }
    })
}

/// The slack-cube row: greedy's plan for the 13-switch reversal has 12
/// entries and, stretched ×2, certifies every corner of the k = 1 cube
/// (k = 2 would be over budget), so one call walks exactly 4 096
/// points. Returns the fastest call and its `schedules_checked`.
fn time_slack_cube() -> (Duration, usize) {
    let inst = reversal_instance(13, 2, 1);
    let (_, plan) = time_greedy(&inst);
    let schedule = plan.schedule.dilated(2);
    fastest(|| {
        let t0 = Instant::now();
        let out = chronus_verify::slack_certificate(&inst, &schedule);
        let dt = t0.elapsed();
        match out {
            Ok((_, slack)) => (dt, slack.schedules_checked),
            Err(v) => panic!("the slack bench schedule does not certify: {v}"),
        }
    })
}

fn main() {
    // 2048 is the acceptance-scale point: a fig10-scale instance where
    // the gate dominates a full simulation's cost.
    let sizes: &[usize] = &[8, 64, 512, 2048];
    let mut json = String::from("{");

    for (i, &n) in sizes.iter().enumerate() {
        // A handful of seeds: the random-walk generator occasionally
        // fails to produce a route at small n.
        let inst = (0..8)
            .find_map(|s| scale_instance(n, 20170605 + 977 + s))
            .unwrap_or_else(|| panic!("no fig10-scale instance at n={n}"));
        let (dt, out) = time_greedy(&inst);
        let ns = dt.as_nanos();
        println!(
            "greedy/{n}: {ns} ns/op ({} ns in gate), {} simulator calls, \
             {} cells touched, {} ledger applies, arena ~{} B, makespan {}",
            out.gate_nanos,
            out.simulator_calls,
            out.gate.cells_touched,
            out.gate.ledger_applies,
            out.arena_bytes,
            out.makespan
        );
        let _ = write!(
            json,
            "{}\n  \"greedy/{n}\": {{\"ns_per_op\": {ns}, \"gate_ns_per_op\": {}, \
             \"simulator_calls\": {}, \"cells_touched\": {}, \"ledger_applies\": {}, \
             \"arena_bytes\": {}, \"makespan\": {}}}",
            if i == 0 { "" } else { "," },
            out.gate_nanos,
            out.simulator_calls,
            out.gate.cells_touched,
            out.gate.ledger_applies,
            out.arena_bytes,
            out.makespan
        );
    }
    let (dt, points) = time_slack_cube();
    let ns_per_point = dt.as_nanos() / points.max(1) as u128;
    println!("slack/12: {points} schedules checked, {ns_per_point} ns/point");
    let _ = write!(
        json,
        ",\n  \"slack/12\": {{\"schedules_checked\": {points}, \"ns_per_point\": {ns_per_point}}}"
    );
    json.push_str("\n}\n");

    let path = "BENCH_greedy.json";
    std::fs::write(path, &json).expect("write BENCH_greedy.json");
    println!("(json: {path})");
}
