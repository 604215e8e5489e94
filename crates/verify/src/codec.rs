//! JSON codec for certificates, slack certificates and violations.
//!
//! The daemon's write-ahead journal persists each armed update's
//! proof material — the [`Certificate`] and, when present, the
//! [`SlackCertificate`] — next to the schedule, so a restarted
//! controller can re-check consistency *from the stored artifacts*
//! before re-arming anything. These encoders are hand-built on the
//! `serde_json` value model (no derives in the workspace) with the
//! round-trip invariant `decode(encode(x)) == x`, pinned by proptests
//! in `tests/codec_props.rs`.
//!
//! `Capacity`/`TimeStep` values may exceed the shim's exact-`f64`
//! integer range and go through `Value::{from_u64_exact,
//! from_i64_exact}`; decoding accepts either the number or the
//! decimal-string form.

use crate::certificate::{BoundaryOrder, BoundaryWitness, IntervalLoad, LinkBound, Violation};
use crate::{Certificate, SlackCertificate};
use chronus_net::{FlowId, SwitchId};
use chronus_timenet::{schedule_from_value, schedule_to_value};
use serde_json::{Map, Value};
use std::fmt;

/// A structural error while decoding a certificate document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CertCodecError(String);

impl CertCodecError {
    fn new(msg: impl Into<String>) -> Self {
        CertCodecError(msg.into())
    }
}

impl fmt::Display for CertCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "certificate codec error: {}", self.0)
    }
}

impl std::error::Error for CertCodecError {}

type R<T> = Result<T, CertCodecError>;

fn member<'v>(v: &'v Value, key: &str) -> R<&'v Value> {
    v.get(key)
        .ok_or_else(|| CertCodecError::new(format!("missing field `{key}`")))
}

fn field_u64(v: &Value, key: &str) -> R<u64> {
    member(v, key)?
        .as_u64_exact()
        .ok_or_else(|| CertCodecError::new(format!("field `{key}` is not a u64")))
}

fn field_i64(v: &Value, key: &str) -> R<i64> {
    member(v, key)?
        .as_i64_exact()
        .ok_or_else(|| CertCodecError::new(format!("field `{key}` is not an i64")))
}

fn field_usize(v: &Value, key: &str) -> R<usize> {
    usize::try_from(field_u64(v, key)?)
        .map_err(|_| CertCodecError::new(format!("field `{key}` exceeds usize")))
}

fn field_array<'v>(v: &'v Value, key: &str) -> R<&'v Vec<Value>> {
    member(v, key)?
        .as_array()
        .ok_or_else(|| CertCodecError::new(format!("field `{key}` is not an array")))
}

fn switch_id(v: &Value, what: &str) -> R<SwitchId> {
    v.as_u64_exact()
        .and_then(|raw| u32::try_from(raw).ok())
        .map(SwitchId)
        .ok_or_else(|| CertCodecError::new(format!("{what} is not a switch id")))
}

fn switch_vec(v: &Value, what: &str) -> R<Vec<SwitchId>> {
    v.as_array()
        .ok_or_else(|| CertCodecError::new(format!("{what} is not an array")))?
        .iter()
        .map(|s| switch_id(s, what))
        .collect()
}

fn switch_vec_value(switches: &[SwitchId]) -> Value {
    Value::Array(
        switches
            .iter()
            .map(|s| Value::Number(f64::from(s.0)))
            .collect(),
    )
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    let mut m = Map::new();
    for (k, v) in entries {
        m.insert(k.to_string(), v);
    }
    Value::Object(m)
}

/// Encodes a consistency certificate; inverse of
/// [`certificate_from_value`].
pub fn certificate_to_value(cert: &Certificate) -> Value {
    let link_bounds = cert
        .link_bounds
        .iter()
        .map(|b| {
            let segments = b
                .segments
                .iter()
                .map(|s| {
                    Value::Array(vec![
                        Value::from_i64_exact(s.start),
                        Value::from_i64_exact(s.end),
                        Value::from_u64_exact(s.load),
                    ])
                })
                .collect();
            obj(vec![
                ("src", Value::Number(f64::from(b.src.0))),
                ("dst", Value::Number(f64::from(b.dst.0))),
                ("capacity", Value::from_u64_exact(b.capacity)),
                ("peak", Value::from_u64_exact(b.peak)),
                ("segments", Value::Array(segments)),
            ])
        })
        .collect();
    let boundaries = cert
        .boundaries
        .iter()
        .map(|w| {
            let (tag, switches) = match &w.order {
                BoundaryOrder::Acyclic(s) => ("acyclic", s),
                BoundaryOrder::Cyclic(s) => ("cyclic", s),
            };
            obj(vec![
                ("time", Value::from_i64_exact(w.time)),
                (tag, switch_vec_value(switches)),
            ])
        })
        .collect();
    obj(vec![
        ("makespan", Value::from_i64_exact(cert.makespan)),
        ("link_bounds", Value::Array(link_bounds)),
        ("boundaries", Value::Array(boundaries)),
        (
            "segments_traced",
            Value::from_u64_exact(cert.segments_traced as u64),
        ),
        (
            "cohorts_covered",
            Value::from_u64_exact(cert.cohorts_covered),
        ),
    ])
}

/// Decodes a certificate written by [`certificate_to_value`].
pub fn certificate_from_value(v: &Value) -> R<Certificate> {
    let link_bounds = field_array(v, "link_bounds")?
        .iter()
        .map(|b| {
            let segments = field_array(b, "segments")?
                .iter()
                .map(|s| {
                    let triple = s.as_array().filter(|a| a.len() == 3).ok_or_else(|| {
                        CertCodecError::new("segment is not a [start, end, load] triple")
                    })?;
                    let at = |i: usize| {
                        triple
                            .get(i)
                            .ok_or_else(|| CertCodecError::new("segment too short"))
                    };
                    Ok(IntervalLoad {
                        start: at(0)?
                            .as_i64_exact()
                            .ok_or_else(|| CertCodecError::new("segment start not an i64"))?,
                        end: at(1)?
                            .as_i64_exact()
                            .ok_or_else(|| CertCodecError::new("segment end not an i64"))?,
                        load: at(2)?
                            .as_u64_exact()
                            .ok_or_else(|| CertCodecError::new("segment load not a u64"))?,
                    })
                })
                .collect::<R<Vec<_>>>()?;
            Ok(LinkBound {
                src: switch_id(member(b, "src")?, "link src")?,
                dst: switch_id(member(b, "dst")?, "link dst")?,
                capacity: field_u64(b, "capacity")?,
                peak: field_u64(b, "peak")?,
                segments,
            })
        })
        .collect::<R<Vec<_>>>()?;
    let boundaries = field_array(v, "boundaries")?
        .iter()
        .map(|w| {
            let order = if let Some(s) = w.get("acyclic") {
                BoundaryOrder::Acyclic(switch_vec(s, "`acyclic`")?)
            } else if let Some(s) = w.get("cyclic") {
                BoundaryOrder::Cyclic(switch_vec(s, "`cyclic`")?)
            } else {
                return Err(CertCodecError::new(
                    "boundary witness carries neither `acyclic` nor `cyclic`",
                ));
            };
            Ok(BoundaryWitness {
                time: field_i64(w, "time")?,
                order,
            })
        })
        .collect::<R<Vec<_>>>()?;
    Ok(Certificate {
        makespan: field_i64(v, "makespan")?,
        link_bounds,
        boundaries,
        segments_traced: field_usize(v, "segments_traced")?,
        cohorts_covered: field_u64(v, "cohorts_covered")?,
    })
}

fn emitted_to_value(emitted: (i64, i64)) -> Value {
    Value::Array(vec![
        Value::from_i64_exact(emitted.0),
        Value::from_i64_exact(emitted.1),
    ])
}

fn emitted_from_value(v: &Value, what: &str) -> R<(i64, i64)> {
    let pair = v
        .as_array()
        .filter(|a| a.len() == 2)
        .ok_or_else(|| CertCodecError::new(format!("{what} is not a [start, end] pair")))?;
    let at = |i: usize| {
        pair.get(i)
            .and_then(Value::as_i64_exact)
            .ok_or_else(|| CertCodecError::new(format!("{what} bound is not an i64")))
    };
    Ok((at(0)?, at(1)?))
}

/// Encodes a violation as a `{"kind": ...}`-tagged object; inverse of
/// [`violation_from_value`].
pub fn violation_to_value(violation: &Violation) -> Value {
    match violation {
        Violation::Congestion {
            src,
            dst,
            start,
            end,
            peak,
            capacity,
            flows,
        } => obj(vec![
            ("kind", Value::String("congestion".into())),
            ("src", Value::Number(f64::from(src.0))),
            ("dst", Value::Number(f64::from(dst.0))),
            ("start", Value::from_i64_exact(*start)),
            ("end", Value::from_i64_exact(*end)),
            ("peak", Value::from_u64_exact(*peak)),
            ("capacity", Value::from_u64_exact(*capacity)),
            (
                "flows",
                Value::Array(
                    flows
                        .iter()
                        .map(|f| Value::Number(f64::from(f.0)))
                        .collect(),
                ),
            ),
        ]),
        Violation::ForwardingLoop {
            flow,
            switch,
            emitted,
            time,
        } => obj(vec![
            ("kind", Value::String("forwarding_loop".into())),
            ("flow", Value::Number(f64::from(flow.0))),
            ("switch", Value::Number(f64::from(switch.0))),
            ("emitted", emitted_to_value(*emitted)),
            ("time", Value::from_i64_exact(*time)),
        ]),
        Violation::Blackhole {
            flow,
            switch,
            emitted,
            time,
        } => obj(vec![
            ("kind", Value::String("blackhole".into())),
            ("flow", Value::Number(f64::from(flow.0))),
            ("switch", Value::Number(f64::from(switch.0))),
            ("emitted", emitted_to_value(*emitted)),
            ("time", Value::from_i64_exact(*time)),
        ]),
        Violation::Undelivered { flow, emitted } => obj(vec![
            ("kind", Value::String("undelivered".into())),
            ("flow", Value::Number(f64::from(flow.0))),
            ("emitted", emitted_to_value(*emitted)),
        ]),
    }
}

fn flow_id(v: &Value, what: &str) -> R<FlowId> {
    v.as_u64_exact()
        .and_then(|raw| u32::try_from(raw).ok())
        .map(FlowId)
        .ok_or_else(|| CertCodecError::new(format!("{what} is not a flow id")))
}

/// Decodes a violation written by [`violation_to_value`].
pub fn violation_from_value(v: &Value) -> R<Violation> {
    let kind = member(v, "kind")?
        .as_str()
        .ok_or_else(|| CertCodecError::new("`kind` is not a string"))?;
    match kind {
        "congestion" => Ok(Violation::Congestion {
            src: switch_id(member(v, "src")?, "src")?,
            dst: switch_id(member(v, "dst")?, "dst")?,
            start: field_i64(v, "start")?,
            end: field_i64(v, "end")?,
            peak: field_u64(v, "peak")?,
            capacity: field_u64(v, "capacity")?,
            flows: field_array(v, "flows")?
                .iter()
                .map(|f| flow_id(f, "flow"))
                .collect::<R<Vec<_>>>()?,
        }),
        "forwarding_loop" => Ok(Violation::ForwardingLoop {
            flow: flow_id(member(v, "flow")?, "flow")?,
            switch: switch_id(member(v, "switch")?, "switch")?,
            emitted: emitted_from_value(member(v, "emitted")?, "`emitted`")?,
            time: field_i64(v, "time")?,
        }),
        "blackhole" => Ok(Violation::Blackhole {
            flow: flow_id(member(v, "flow")?, "flow")?,
            switch: switch_id(member(v, "switch")?, "switch")?,
            emitted: emitted_from_value(member(v, "emitted")?, "`emitted`")?,
            time: field_i64(v, "time")?,
        }),
        "undelivered" => Ok(Violation::Undelivered {
            flow: flow_id(member(v, "flow")?, "flow")?,
            emitted: emitted_from_value(member(v, "emitted")?, "`emitted`")?,
        }),
        other => Err(CertCodecError::new(format!(
            "unknown violation kind `{other}`"
        ))),
    }
}

/// Encodes a slack certificate (including the blocking counterexample
/// when the search recorded one); inverse of [`slack_from_value`].
pub fn slack_to_value(slack: &SlackCertificate) -> Value {
    let counterexample = match &slack.counterexample {
        None => Value::Null,
        Some((schedule, violation)) => obj(vec![
            ("schedule", schedule_to_value(schedule)),
            ("violation", violation_to_value(violation)),
        ]),
    };
    obj(vec![
        ("slack_steps", Value::from_i64_exact(slack.slack_steps)),
        (
            "schedules_checked",
            Value::from_u64_exact(slack.schedules_checked as u64),
        ),
        ("budget_exhausted", Value::Bool(slack.budget_exhausted)),
        ("counterexample", counterexample),
    ])
}

/// Decodes a slack certificate written by [`slack_to_value`]. Unknown
/// keys are ignored: journals from daemons that still wrote a
/// per-switch tolerance array replay unchanged.
pub fn slack_from_value(v: &Value) -> R<SlackCertificate> {
    let counterexample = match member(v, "counterexample")? {
        Value::Null => None,
        ce => {
            let schedule = schedule_from_value(member(ce, "schedule")?)
                .map_err(|e| CertCodecError::new(e.to_string()))?;
            let violation = violation_from_value(member(ce, "violation")?)?;
            Some((schedule, violation))
        }
    };
    Ok(SlackCertificate {
        slack_steps: field_i64(v, "slack_steps")?,
        schedules_checked: field_usize(v, "schedules_checked")?,
        budget_exhausted: member(v, "budget_exhausted")?
            .as_bool()
            .ok_or_else(|| CertCodecError::new("`budget_exhausted` is not a bool"))?,
        counterexample,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify;
    use chronus_net::motivating_example;
    use chronus_timenet::Schedule;

    /// Exhaustively searches small per-switch time assignments for a
    /// schedule the certifier vouches for (the motivating example has
    /// consistent timed orders; which one is the planner's business,
    /// not this codec test's).
    fn certified_fixture() -> (chronus_net::UpdateInstance, Schedule, Certificate) {
        let inst = motivating_example();
        let entries: Vec<_> = Schedule::all_at_zero(&inst).iter().collect();
        let n = entries.len();
        let mut assignment = vec![0i64; n];
        loop {
            let mut schedule = Schedule::all_at_zero(&inst);
            for (k, (f, s, _)) in entries.iter().enumerate() {
                schedule.set(*f, *s, assignment[k]);
            }
            if let Ok(cert) = certify(&inst, &schedule) {
                return (inst, schedule, cert);
            }
            let mut k = 0;
            loop {
                assignment[k] += 1;
                if assignment[k] <= n as i64 {
                    break;
                }
                assignment[k] = 0;
                k += 1;
                assert!(k < n, "no certified schedule in the search box");
            }
        }
    }

    /// A real certificate from the certifier round-trips, and the
    /// decoded copy still passes `Certificate::check`.
    #[test]
    fn real_certificate_round_trips_and_still_checks() {
        let (inst, _schedule, cert) = certified_fixture();
        let text = serde_json::to_string(&certificate_to_value(&cert)).unwrap();
        let back = certificate_from_value(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, cert);
        assert_eq!(back.check(&inst), Ok(()));
    }

    #[test]
    fn tampered_documents_fail_structurally_or_semantically() {
        let (inst, _schedule, cert) = certified_fixture();
        let v = certificate_to_value(&cert);
        // Structural damage: drop a required field.
        let mut m = v.as_object().unwrap().clone();
        m.remove("makespan");
        assert!(certificate_from_value(&Value::Object(m)).is_err());
        // Semantic damage survives decode but fails the checker.
        let mut damaged = certificate_from_value(&v).unwrap();
        if let Some(b) = damaged.link_bounds.first_mut() {
            b.capacity += 1;
            assert!(damaged.check(&inst).is_err());
        }
    }

    /// A slack object exactly as the daemon journaled it while the
    /// certificate still carried per-switch tolerances: the extra key
    /// is ignored, everything else decodes.
    #[test]
    fn legacy_slack_objects_with_a_per_switch_array_still_decode() {
        let legacy = r#"{"budget_exhausted":false,"counterexample":{"schedule":{"entries":[[0,0,1],[0,1,1],[0,2,1],[0,3,3]]},"violation":{"emitted":[-1,-1],"flow":0,"kind":"forwarding_loop","switch":1,"time":2}},"per_switch":[[0,2],[1,1],[2,2],[3,3]],"schedules_checked":21,"slack_steps":1}"#;
        let slack = slack_from_value(&serde_json::from_str(legacy).unwrap()).unwrap();
        assert_eq!(slack.slack_steps, 1);
        assert_eq!(slack.schedules_checked, 21);
        assert!(!slack.budget_exhausted);
        let (schedule, violation) = slack.counterexample.as_ref().expect("counterexample");
        assert_eq!(schedule.len(), 4);
        assert!(matches!(violation, Violation::ForwardingLoop { .. }));
        // Re-encoding drops the key and nothing else.
        let text = serde_json::to_string(&slack_to_value(&slack)).unwrap();
        assert_eq!(
            text,
            legacy.replace(r#""per_switch":[[0,2],[1,1],[2,2],[3,3]],"#, "")
        );
    }
}
