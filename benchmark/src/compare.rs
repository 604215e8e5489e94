//! `benchmark compare A.json B.json`: applies each end-to-end metric's bound
//! and direction from `BENCHMARK.json` to two result files written by
//! `benchmark full`, one row per (metric, workload).

use serde_json::Value;
use std::fmt::Write as _;

/// How one (metric, workload) pair compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread of either file exceeds the bound, so the
    /// medians cannot be told apart at that resolution.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The set-up time is a few short repeats per run; as in the builder's
/// acceptance rule its spread is reported but never makes a row unresolved.
const SPREAD_EXEMPT: &str = "setup_s";

/// Judges one pair of medians. `worse` is the share of A's median by which B
/// is worse (negative when B is better).
pub fn judge(a: f64, b: f64, spread: f64, lower_is_better: bool, bound: f64) -> (Verdict, f64) {
    let worse = if a == 0.0 {
        0.0
    } else if lower_is_better {
        (b - a) / a.abs()
    } else {
        (a - b) / a.abs()
    };
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, worse)
}

fn num(v: Option<&Value>) -> Option<f64> {
    v.and_then(Value::as_f64)
}

/// Compares result documents `a` and `b` under `manifest`
/// (`BENCHMARK.json`). Returns the table and the number of regressed and
/// unresolved rows.
pub fn compare(manifest: &Value, a: &Value, b: &Value) -> Result<(String, usize, usize), String> {
    let list = |key: &str| {
        manifest
            .get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))
    };
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<22} {:<18} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "metric", "workload", "A median", "B median", "worse", "spread", "bound"
    );
    let (mut regressed, mut unresolved) = (0, 0);
    for workload in list("workloads")? {
        let w = workload.get("name").and_then(Value::as_str).unwrap_or("?");
        let side = |doc: &'_ Value| doc.get("workloads").and_then(|ws| ws.get(w)).cloned();
        let (Some(wa), Some(wb)) = (side(a), side(b)) else {
            return Err(format!("workload `{w}` is missing from a result file"));
        };
        for (label, doc) in [("A", &wa), ("B", &wb)] {
            if doc.get("correct") != Some(&Value::Bool(true)) {
                let _ = writeln!(
                    table,
                    "{:<22} {w:<18} file {label} is not correct: regressed",
                    "correct"
                );
                regressed += 1;
            }
        }
        for metric in list("end_to_end")? {
            let field = |k: &str| metric.get(k).and_then(Value::as_str).unwrap_or("?");
            let (name, better) = (field("name"), field("better"));
            let bound = num(metric.get("bound")).ok_or_else(|| format!("`{name}` has no bound"))?;
            let series = |doc: &Value, k: &str| num(doc.get("end_to_end")?.get(name)?.get(k));
            let (Some(ma), Some(mb)) = (series(&wa, "median"), series(&wb, "median")) else {
                return Err(format!("`{name}` on `{w}` is missing from a result file"));
            };
            let spread = series(&wa, "spread")
                .unwrap_or(0.0)
                .max(series(&wb, "spread").unwrap_or(0.0));
            let judged_spread = if name == SPREAD_EXEMPT { 0.0 } else { spread };
            let (verdict, worse) = judge(ma, mb, judged_spread, better == "lower", bound);
            match verdict {
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Ok => {}
            }
            let _ = writeln!(
                table,
                "{name:<22} {w:<18} {ma:>14.4} {mb:>14.4} {:>7.2}% {:>7.2}% {:>5.0}%  {}",
                worse * 100.0,
                spread * 100.0,
                bound * 100.0,
                verdict.as_str()
            );
        }
    }
    Ok((table, regressed, unresolved))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        // Lower is better: 6 % slower is inside a 10 % bound, 12 % is not.
        assert_eq!(judge(100.0, 106.0, 0.01, true, 0.10).0, Verdict::Ok);
        assert_eq!(judge(100.0, 112.0, 0.01, true, 0.10).0, Verdict::Regressed);
        // Higher is better: a drop is what counts as worse.
        assert_eq!(judge(100.0, 88.0, 0.01, false, 0.10).0, Verdict::Regressed);
        assert_eq!(judge(100.0, 130.0, 0.01, false, 0.10).0, Verdict::Ok);
        // Too noisy to tell.
        assert_eq!(judge(100.0, 100.0, 0.2, true, 0.10).0, Verdict::Unresolved);
        let (_, worse) = judge(50.0, 55.0, 0.0, true, 0.25);
        assert!((worse - 0.1).abs() < 1e-12);
    }

    #[test]
    fn compares_two_result_documents() {
        let manifest = serde_json::from_str(
            r#"{"workloads":[{"name":"w","why":"x"}],
                "end_to_end":[{"name":"lat","unit":"ms","better":"lower","bound":0.1},
                              {"name":"rate","unit":"1/s","better":"higher","bound":0.1}]}"#,
        )
        .unwrap();
        let doc = |lat: f64, rate: f64, spread: f64| {
            serde_json::from_str(&format!(
                r#"{{"workloads":{{"w":{{"correct":true,"end_to_end":{{
                    "lat":{{"median":{lat},"spread":{spread}}},
                    "rate":{{"median":{rate},"spread":0.0}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let (_, regressed, unresolved) =
            compare(&manifest, &doc(10.0, 100.0, 0.0), &doc(10.5, 99.0, 0.0)).unwrap();
        assert_eq!((regressed, unresolved), (0, 0));
        let (table, regressed, unresolved) =
            compare(&manifest, &doc(10.0, 100.0, 0.3), &doc(10.5, 80.0, 0.0)).unwrap();
        assert_eq!((regressed, unresolved), (1, 1), "{table}");
        assert!(compare(&manifest, &doc(1.0, 1.0, 0.0), &Value::Null).is_err());
    }
}
