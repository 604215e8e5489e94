//! CI gate over the committed bench JSONs.
//!
//! Usage: `bench_check [<baseline.json>] <fresh.json>`
//!
//! Every gate is one `(key, field, rule)` row of [`GATES`]. A row is in
//! scope when either file has a key of its family (the text before `/`),
//! so one table gates all three bench files; any failure exits 1:
//!
//! - `BENCH_greedy.json`: at every size, `makespan` and the deterministic
//!   work counts (`simulator_calls`, `cells_touched`, `ledger_applies`)
//!   equal the baseline's, as does `slack/12`'s `schedules_checked`.
//!   Timing drifts with hardware; schedule quality and the planner's
//!   work must not.
//! - `BENCH_multiflow.json`: `summary/2048x128`, the fabric-scale cell
//!   the sharded planner exists for, keeps `speedup` >= 2.0 (~2.9x
//!   committed; at K = 8 sharding legitimately loses), and both arms'
//!   clean rates equal the baseline's at every cell.
//! - `BENCH_flightrec.json`: the recorder's overhead on an n=512 greedy
//!   run stays under 3 %; no baseline needed.
//!
//! [`INFO`] fields are printed, never gated: `benchmark/` gates wall
//! clock end to end. The JSON is the benches' own flat format, read by a
//! hand-rolled field scan (no serde in the workspace).

#![forbid(unsafe_code)]

use std::process::ExitCode;

/// What a gated field must satisfy.
#[derive(Clone, Copy)]
enum Rule {
    /// Equal to the baseline file's value.
    Pin,
    /// At least this value.
    AtLeast(f64),
    /// Strictly below this value.
    Below(f64),
}

use Rule::{AtLeast, Below, Pin};

/// Every gate: `(key, field, rule)`.
const GATES: &[(&str, &str, Rule)] = &[
    ("greedy/8", "makespan", Pin),
    ("greedy/8", "simulator_calls", Pin),
    ("greedy/8", "cells_touched", Pin),
    ("greedy/8", "ledger_applies", Pin),
    ("greedy/64", "makespan", Pin),
    ("greedy/64", "simulator_calls", Pin),
    ("greedy/64", "cells_touched", Pin),
    ("greedy/64", "ledger_applies", Pin),
    ("greedy/512", "makespan", Pin),
    ("greedy/512", "simulator_calls", Pin),
    ("greedy/512", "cells_touched", Pin),
    ("greedy/512", "ledger_applies", Pin),
    ("greedy/2048", "makespan", Pin),
    ("greedy/2048", "simulator_calls", Pin),
    ("greedy/2048", "cells_touched", Pin),
    ("greedy/2048", "ledger_applies", Pin),
    ("slack/12", "schedules_checked", Pin),
    ("summary/2048x128", "speedup", AtLeast(2.0)),
    ("summary/512x8", "sharded_clean", Pin),
    ("summary/512x8", "joint_clean", Pin),
    ("summary/512x32", "sharded_clean", Pin),
    ("summary/512x32", "joint_clean", Pin),
    ("summary/512x128", "sharded_clean", Pin),
    ("summary/512x128", "joint_clean", Pin),
    ("summary/2048x8", "sharded_clean", Pin),
    ("summary/2048x8", "joint_clean", Pin),
    ("summary/2048x32", "sharded_clean", Pin),
    ("summary/2048x32", "joint_clean", Pin),
    ("summary/2048x128", "sharded_clean", Pin),
    ("summary/2048x128", "joint_clean", Pin),
    ("flightrec/512", "overhead_pct", Below(3.0)),
];

/// Ungated fields printed for the log, with the change against the
/// baseline when there is one.
const INFO: &[(&str, &str)] = &[
    ("greedy/8", "ns_per_op"),
    ("greedy/8", "gate_ns_per_op"),
    ("greedy/64", "ns_per_op"),
    ("greedy/64", "gate_ns_per_op"),
    ("greedy/512", "ns_per_op"),
    ("greedy/512", "gate_ns_per_op"),
    ("greedy/2048", "ns_per_op"),
    ("greedy/2048", "gate_ns_per_op"),
    ("slack/12", "ns_per_point"),
    ("summary/512x8", "speedup"),
    ("summary/512x32", "speedup"),
    ("summary/512x128", "speedup"),
    ("summary/2048x8", "speedup"),
    ("summary/2048x32", "speedup"),
];

/// Extracts `field` from the flat JSON object that follows `"key":`.
/// Returns `None` when the key or field is missing.
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
    std::fs::read_to_string(path)
        .map_err(|e| eprintln!("bench_check: cannot read {path}: {e}"))
        .ok()
}

/// Checks one row; reports the result and returns the number of
/// failures (0 or 1).
fn check(baseline: Option<&str>, fresh: &str, (key, field, rule): (&str, &str, Rule)) -> u32 {
    let Some(f) = lookup(fresh, key, field) else {
        eprintln!("FAIL: {key} {field} missing from the fresh file");
        return 1;
    };
    match rule {
        Pin => match baseline.map(|b| lookup(b, key, field)) {
            Some(Some(b)) if b == f => {
                println!("ok: {key} {field} {f} unchanged");
                return 0;
            }
            Some(Some(b)) => eprintln!("FAIL: {key} {field} changed: baseline {b}, fresh {f}"),
            Some(None) => eprintln!("FAIL: {key} {field} missing from the baseline file"),
            None => eprintln!("FAIL: {key} {field} is pinned, but no baseline file was given"),
        },
        AtLeast(x) if f >= x => {
            println!("ok: {key} {field} {f:.2} >= {x:.2}");
            return 0;
        }
        AtLeast(x) => eprintln!("FAIL: {key} {field} {f:.2} < {x:.2}"),
        Below(x) if f < x => {
            println!("ok: {key} {field} {f:.2} < {x:.2}");
            return 0;
        }
        Below(x) => eprintln!("FAIL: {key} {field} {f:.2} >= {x:.2}"),
    }
    1
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (baseline, fresh) = match args.as_slice() {
        [fresh] => (None, read(fresh)),
        [baseline, fresh] => match read(baseline) {
            Some(b) => (Some(b), read(fresh)),
            None => return ExitCode::FAILURE,
        },
        _ => {
            eprintln!("usage: bench_check [<baseline.json>] <fresh.json>");
            return ExitCode::FAILURE;
        }
    };
    let Some(fresh) = fresh else {
        return ExitCode::FAILURE;
    };
    let in_scope = |key: &&str| {
        let family = format!("\"{}/", key.split('/').next().unwrap_or(key));
        fresh.contains(&family) || baseline.as_ref().is_some_and(|b| b.contains(&family))
    };

    let gates: Vec<_> = GATES.iter().filter(|(key, ..)| in_scope(key)).collect();
    if gates.is_empty() {
        eprintln!("bench_check: no gated key in the fresh file");
        return ExitCode::FAILURE;
    }
    let failures: u32 = gates
        .iter()
        .map(|&&row| check(baseline.as_deref(), &fresh, row))
        .sum();
    for &(key, field) in INFO.iter().filter(|(key, _)| in_scope(key)) {
        let Some(f) = lookup(&fresh, key, field) else {
            continue;
        };
        match baseline.as_deref().and_then(|b| lookup(b, key, field)) {
            Some(b) if b > 0.0 => println!(
                "info: {key} {field} {f} (baseline {b}, {:+.1}%)",
                (f - b) / b * 100.0
            ),
            _ => println!("info: {key} {field} {f} (ungated)"),
        }
    }

    if failures > 0 {
        eprintln!("bench_check: {failures} assertion(s) failed");
        ExitCode::FAILURE
    } else {
        println!("bench_check: all gates passed");
        ExitCode::SUCCESS
    }
}
