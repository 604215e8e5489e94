//! CI gate over the committed bench JSONs: turns the bench-smoke job
//! from "print the numbers" into an assertion.
//!
//! Usage: `bench_check <baseline.json> <fresh.json>`
//!
//! Over `BENCH_greedy.json`, exit code 1 on any failure: at every
//! size, the fresh run's `makespan` and its deterministic work counts
//! (`simulator_calls`, `cells_touched`, `ledger_applies`) must equal
//! the committed baseline's exactly. Timing numbers drift with
//! hardware; schedule *quality* and the amount of work the planner
//! does for it must not — a change in either means the greedy
//! scheduler's behaviour changed, which a perf-smoke job must not let
//! slide through silently. `ns_per_op` / `gate_ns_per_op` deltas are
//! printed for the CI log but never gated: wall-clock regressions are
//! gated end to end by `benchmark/`. The `slack/12` row pins
//! `schedules_checked` the same way (a full 12-entry cube is 4 096
//! points) and prints `ns_per_point`.
//!
//! A second mode, `bench_check --multiflow <baseline.json> <fresh.json>`,
//! gates `BENCH_multiflow.json` (sharded vs joint planning):
//!
//! 1. **Sharded speedup floor** — the fresh `summary/2048x128` cell's
//!    `speedup` must be ≥ 2.0. That is the cell the sharded planner
//!    exists for (fabric-scale topology, K = 128 flows); the committed
//!    run records ~2.9×, so the floor is well clear of noise while
//!    still catching the planner losing its edge. Smaller cells are
//!    printed for the log but never gated — at K = 8 the partition
//!    overhead legitimately loses to a trivial joint run.
//! 2. **Clean-rate pin** — `sharded_clean` and `joint_clean` must
//!    equal the committed baseline at *every* cell. Timing drifts;
//!    the fraction of runs that end with a sealed, `check`-clean
//!    certificate must not.
//!
//! The JSON is the bench's own flat hand-written format, so parsing is
//! a hand-rolled field scan — no serde in the workspace.

#![forbid(unsafe_code)]

use std::process::ExitCode;

/// All sizes `bench_greedy` emits.
const ALL_SIZES: &[usize] = &[8, 64, 512, 2048];

/// The `BENCH_greedy.json` fields that must match the baseline exactly.
const PINNED_FIELDS: &[&str] = &[
    "makespan",
    "simulator_calls",
    "cells_touched",
    "ledger_applies",
];

/// Every cell `bench_multiflow` emits, as `{n}x{K}` key suffixes.
const MULTIFLOW_CELLS: &[&str] = &[
    "512x8", "512x32", "512x128", "2048x8", "2048x32", "2048x128",
];

/// The one gated multiflow cell and its sharded-speedup floor. The
/// committed run records ~2.9× here; 2.0 catches a real regression
/// without flaking on scheduler noise.
const MULTIFLOW_GATE: (&str, f64) = ("2048x128", 2.0);

/// Extracts `field` from the flat JSON object that follows `"key":`.
/// Returns `None` when the key or field is missing — the caller
/// decides whether that is fatal (fresh file) or tolerable (an older
/// committed baseline without the field).
fn lookup(json: &str, key: &str, field: &str) -> Option<f64> {
    let start = json.find(&format!("\"{key}\""))?;
    let obj = &json[start..];
    let open = obj.find('{')?;
    let close = obj[open..].find('}')? + open;
    let body = &obj[open..=close];
    let fstart = body.find(&format!("\"{field}\""))?;
    let after = &body[fstart..];
    let colon = after.find(':')?;
    let tail = after[colon + 1..].trim_start();
    let end = tail
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

fn read(path: &str) -> Option<String> {
    match std::fs::read_to_string(path) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("bench_check: cannot read {path}: {e}");
            None
        }
    }
}

/// Requires `key.field` to be present in both JSON texts and equal;
/// reports the result and returns the number of failures (0 or 1).
fn pin(baseline: &str, fresh: &str, key: &str, field: &str) -> u32 {
    match (lookup(baseline, key, field), lookup(fresh, key, field)) {
        (Some(b), Some(f)) if b == f => {
            println!("ok: {key} {field} {f} unchanged");
            return 0;
        }
        (Some(b), Some(f)) => eprintln!("FAIL: {key} {field} changed: baseline {b}, fresh {f}"),
        (None, _) => eprintln!("FAIL: {key} {field} missing from the baseline file"),
        (_, None) => eprintln!("FAIL: {key} {field} missing from the fresh file"),
    }
    1
}

/// `--multiflow` mode: gates `BENCH_multiflow.json` (see module docs).
fn check_multiflow(baseline_path: &str, fresh_path: &str) -> ExitCode {
    let (Some(baseline), Some(fresh)) = (read(baseline_path), read(fresh_path)) else {
        return ExitCode::FAILURE;
    };

    let mut failures = 0u32;

    let (gate_cell, floor) = MULTIFLOW_GATE;
    let gate_key = format!("summary/{gate_cell}");
    match lookup(&fresh, &gate_key, "speedup") {
        Some(s) if s >= floor => println!("ok: {gate_key} speedup {s:.2} >= {floor:.2}"),
        Some(s) => {
            eprintln!("FAIL: {gate_key} speedup {s:.2} < {floor:.2} — sharded planner regressed");
            failures += 1;
        }
        None => {
            eprintln!("FAIL: {gate_key} speedup missing from {fresh_path}");
            failures += 1;
        }
    }

    for &cell in MULTIFLOW_CELLS {
        let key = format!("summary/{cell}");
        for field in ["sharded_clean", "joint_clean"] {
            failures += pin(&baseline, &fresh, &key, field);
        }
        // Ungated speedups: CI-log information (hardware-dependent,
        // and small cells legitimately sit below 1.0).
        if cell != gate_cell {
            match lookup(&fresh, &key, "speedup") {
                Some(s) => println!("info: {key} speedup {s:.2} (ungated)"),
                None => println!("info: {key} speedup not recorded in {fresh_path}"),
            }
        }
    }

    if failures > 0 {
        eprintln!("bench_check: {failures} assertion(s) failed");
        ExitCode::FAILURE
    } else {
        println!("bench_check: all multiflow gates passed");
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let (baseline_path, fresh_path) = match args.as_slice() {
        [_, flag, b, f] if flag == "--multiflow" => return check_multiflow(b, f),
        [_, b, f] => (b, f),
        _ => {
            eprintln!(
                "usage: bench_check <baseline.json> <fresh.json>\n\
                 \u{20}      bench_check --multiflow <baseline.json> <fresh.json>"
            );
            return ExitCode::FAILURE;
        }
    };
    let (Some(baseline), Some(fresh)) = (read(baseline_path), read(fresh_path)) else {
        return ExitCode::FAILURE;
    };

    let mut failures = 0u32;

    for &n in ALL_SIZES {
        let key = format!("greedy/{n}");
        for &field in PINNED_FIELDS {
            failures += pin(&baseline, &fresh, &key, field);
        }
        // Informational only — wall clock drifts with hardware.
        for field in ["ns_per_op", "gate_ns_per_op"] {
            match (lookup(&baseline, &key, field), lookup(&fresh, &key, field)) {
                (Some(b), Some(f)) if b > 0.0 => println!(
                    "info: {key} {field} {f:.0} (baseline {b:.0}, {:+.1}%)",
                    (f - b) / b * 100.0
                ),
                (_, Some(f)) => println!("info: {key} {field} {f:.0} (no baseline value)"),
                (_, None) => println!("info: {key} {field} not recorded in {fresh_path}"),
            }
        }
    }

    failures += pin(&baseline, &fresh, "slack/12", "schedules_checked");
    if let Some(ns) = lookup(&fresh, "slack/12", "ns_per_point") {
        println!("info: slack/12 ns_per_point {ns:.0}");
    }

    if failures > 0 {
        eprintln!("bench_check: {failures} assertion(s) failed");
        ExitCode::FAILURE
    } else {
        println!("bench_check: all gates passed");
        ExitCode::SUCCESS
    }
}
