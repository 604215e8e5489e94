//! The `chronusd` IPC protocol: one JSON object per line, both ways.
//!
//! Requests carry a `"cmd"` discriminator; responses always carry
//! `"ok"` (and, for refusals, `"error"` plus `"shed": true` when the
//! refusal is an admission shed rather than a malformed request).
//! The protocol is deliberately line-oriented so `chronusctl`, shell
//! scripts and tests can speak it with nothing but a socket.

use crate::admission::{Priority, Shed};
use serde_json::{Map, Value};

/// A parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe; answered `{"ok":true,"pong":true}`.
    Ping,
    /// Submit one update instance for planning.
    Submit {
        /// Submitting tenant (rate-limit key); defaults to `default`.
        tenant: String,
        /// Priority class; defaults to `normal`.
        priority: Priority,
        /// Optional planning deadline override, in milliseconds.
        deadline_ms: Option<u64>,
        /// The encoded update instance
        /// (see `chronus_net::codec::instance_from_value`).
        instance: Value,
    },
    /// Status of one update (`id`) or counts of all of them (`None`).
    Status {
        /// The update to describe, or `None` for the aggregate view.
        id: Option<u64>,
    },
    /// Block until update `id` settles (or `timeout_ms` elapses).
    Watch {
        /// The update to wait on.
        id: u64,
        /// Give up after this many milliseconds (default 10 000).
        timeout_ms: u64,
    },
    /// Confirm an armed update as executed: journals the completion
    /// tombstone and frees its journal slot.
    Confirm {
        /// The armed update being confirmed.
        id: u64,
    },
    /// Gracefully drain the daemon and exit.
    Drain,
    /// Force a journal compaction now.
    Snapshot,
    /// Prometheus text exposition of daemon + engine metrics.
    Metrics,
    /// Live operational overview: queue depths, token buckets,
    /// plan-latency quantiles, SLO burns, recorder stats.
    Top,
    /// Stream flight-ring events back to the client as they happen.
    Tail {
        /// Only events whose name starts with this prefix are sent
        /// (server-side, so the wire carries what the client wants).
        filter: Option<String>,
        /// Stop after this many events (0 = unbounded in follow mode,
        /// one batch otherwise).
        max_events: u64,
        /// Keep the connection open and poll for new events.
        follow: bool,
    },
    /// Write a forensic flight dump now; answers with its path.
    Dump,
}

/// Parses one request line.
pub fn request_from_line(line: &str) -> Result<Request, String> {
    let mut v: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
    let cmd = v
        .get("cmd")
        .and_then(Value::as_str)
        .ok_or_else(|| "request missing string `cmd`".to_string())?;
    match cmd {
        "ping" => Ok(Request::Ping),
        "submit" => {
            let tenant = v
                .get("tenant")
                .and_then(Value::as_str)
                .unwrap_or("default")
                .to_string();
            let priority = match v.get("priority").and_then(Value::as_str) {
                Some(p) => Priority::parse(p)?,
                None => Priority::Normal,
            };
            let deadline_ms = v.get("deadline_ms").and_then(Value::as_u64_exact);
            // Moved out of the parsed document, not cloned: the instance
            // is all but the whole line.
            let instance = match &mut v {
                Value::Object(fields) => fields.remove("instance"),
                _ => None,
            }
            .ok_or_else(|| "submit missing `instance`".to_string())?;
            Ok(Request::Submit {
                tenant,
                priority,
                deadline_ms,
                instance,
            })
        }
        "status" => Ok(Request::Status {
            id: v.get("id").and_then(Value::as_u64_exact),
        }),
        "watch" => Ok(Request::Watch {
            id: v
                .get("id")
                .and_then(Value::as_u64_exact)
                .ok_or_else(|| "watch missing `id`".to_string())?,
            timeout_ms: v
                .get("timeout_ms")
                .and_then(Value::as_u64_exact)
                .unwrap_or(10_000),
        }),
        "confirm" => Ok(Request::Confirm {
            id: v
                .get("id")
                .and_then(Value::as_u64_exact)
                .ok_or_else(|| "confirm missing `id`".to_string())?,
        }),
        "drain" => Ok(Request::Drain),
        "snapshot" => Ok(Request::Snapshot),
        "metrics" => Ok(Request::Metrics),
        "top" => Ok(Request::Top),
        "tail" => Ok(Request::Tail {
            filter: v
                .get("filter")
                .and_then(Value::as_str)
                .map(|s| s.to_string()),
            max_events: v
                .get("max_events")
                .and_then(Value::as_u64_exact)
                .unwrap_or(0),
            follow: v.get("follow").and_then(Value::as_bool).unwrap_or(false),
        }),
        "dump" => Ok(Request::Dump),
        other => Err(format!("unknown cmd `{other}`")),
    }
}

/// `{"ok":true, ...fields}`.
pub fn ok_response(fields: Vec<(&str, Value)>) -> Value {
    let mut obj = Map::new();
    obj.insert("ok".to_string(), Value::Bool(true));
    for (k, val) in fields {
        obj.insert(k.to_string(), val);
    }
    Value::Object(obj)
}

/// `{"ok":false,"error":msg}` (+ `"shed":true` for admission sheds).
pub fn err_response(msg: &str, shed: bool) -> Value {
    let mut obj = Map::new();
    obj.insert("ok".to_string(), Value::Bool(false));
    obj.insert("error".to_string(), Value::from(msg));
    if shed {
        obj.insert("shed".to_string(), Value::Bool(true));
    }
    Value::Object(obj)
}

/// The wire shape of an admission refusal: [`err_response`] with the
/// shed marker, plus a machine-readable `retry_after_s` field for
/// rate-limit sheds carrying the token bucket's hint verbatim (the
/// human-readable `error` text rounds it to milliseconds).
pub fn shed_response(shed: &Shed) -> Value {
    let mut obj = Map::new();
    obj.insert("ok".to_string(), Value::Bool(false));
    obj.insert("error".to_string(), Value::from(shed.to_string().as_str()));
    obj.insert("shed".to_string(), Value::Bool(true));
    if let Shed::RateLimited { retry_after_s, .. } = shed {
        obj.insert("retry_after_s".to_string(), Value::from(*retry_after_s));
    }
    Value::Object(obj)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_command() {
        assert_eq!(request_from_line(r#"{"cmd":"ping"}"#), Ok(Request::Ping));
        assert_eq!(request_from_line(r#"{"cmd":"drain"}"#), Ok(Request::Drain));
        assert_eq!(
            request_from_line(r#"{"cmd":"status"}"#),
            Ok(Request::Status { id: None })
        );
        assert_eq!(
            request_from_line(r#"{"cmd":"status","id":7}"#),
            Ok(Request::Status { id: Some(7) })
        );
        assert_eq!(
            request_from_line(r#"{"cmd":"watch","id":3}"#),
            Ok(Request::Watch {
                id: 3,
                timeout_ms: 10_000
            })
        );
        assert_eq!(request_from_line(r#"{"cmd":"top"}"#), Ok(Request::Top));
        assert_eq!(request_from_line(r#"{"cmd":"dump"}"#), Ok(Request::Dump));
        assert_eq!(
            request_from_line(r#"{"cmd":"tail"}"#),
            Ok(Request::Tail {
                filter: None,
                max_events: 0,
                follow: false
            })
        );
        assert_eq!(
            request_from_line(
                r#"{"cmd":"tail","filter":"engine.plan","max_events":5,"follow":true}"#
            ),
            Ok(Request::Tail {
                filter: Some("engine.plan".to_string()),
                max_events: 5,
                follow: true
            })
        );
        match request_from_line(r#"{"cmd":"submit","priority":"high","instance":{}}"#) {
            Ok(Request::Submit {
                tenant, priority, ..
            }) => {
                assert_eq!(tenant, "default");
                assert_eq!(priority, Priority::High);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn submit_takes_the_instance_wherever_it_sits_in_the_line() {
        let instance =
            serde_json::from_str(r#"{"flows":[{"id":0}],"network":{"links":[[0,1,1,1]]}}"#)
                .expect("instance json");
        let expect = Ok(Request::Submit {
            tenant: "t".to_string(),
            priority: Priority::Low,
            deadline_ms: Some(250),
            instance: instance.clone(),
        });
        let tail = r#""tenant":"t","priority":"low","deadline_ms":250"#;
        let before = format!(r#"{{"instance":{instance},"cmd":"submit",{tail}}}"#);
        let after = format!(r#"{{"cmd":"submit",{tail},"instance":{instance}}}"#);
        assert_eq!(request_from_line(&before), expect);
        assert_eq!(request_from_line(&after), expect);
        assert_eq!(
            request_from_line(&format!(r#"{{"cmd":"submit",{tail}}}"#)),
            Err("submit missing `instance`".to_string())
        );
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(request_from_line("not json").is_err());
        assert!(request_from_line(r#"{"cmd":"warp"}"#).is_err());
        assert!(request_from_line(r#"{"cmd":"submit"}"#).is_err());
        assert!(request_from_line(r#"{"cmd":"watch"}"#).is_err());
        assert!(
            request_from_line(r#"{"cmd":"submit","priority":"urgent","instance":{}}"#).is_err()
        );
    }

    #[test]
    fn response_shapes() {
        let ok = ok_response(vec![("id", Value::from_u64_exact(9))]);
        assert_eq!(ok.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(ok.get("id").and_then(Value::as_u64_exact), Some(9));
        let err = err_response("queue full", true);
        assert_eq!(err.get("ok"), Some(&Value::Bool(false)));
        assert_eq!(err.get("shed"), Some(&Value::Bool(true)));
    }

    #[test]
    fn rate_limit_sheds_carry_the_retry_hint_verbatim() {
        let shed = Shed::RateLimited {
            tenant: "acme".to_string(),
            retry_after_s: 0.123456789,
        };
        let v = shed_response(&shed);
        assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
        assert_eq!(v.get("shed"), Some(&Value::Bool(true)));
        assert_eq!(
            v.get("retry_after_s").and_then(Value::as_f64),
            Some(0.123456789)
        );
        let text = v.get("error").and_then(Value::as_str).unwrap();
        assert!(text.contains("retry after 0.123s"), "{text}");
        // Non-rate-limit sheds omit the hint.
        let full = shed_response(&Shed::Draining);
        assert!(full.get("retry_after_s").is_none());
        assert_eq!(full.get("shed"), Some(&Value::Bool(true)));
    }
}
