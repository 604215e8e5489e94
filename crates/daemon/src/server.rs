//! The Unix-socket IPC front end: one thread per connection, one JSON
//! object per line in each direction (see [`crate::proto`]).

use crate::proto::{self, Request};
use crate::service::{Daemon, ShutdownReport};
use chronus_net::codec::instance_from_value;
use chronus_trace::{FlightEvent, FlightEventKind, FlightRecorder};
use serde_json::{Map, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Most flight events one tail poll will put on the wire; anything
/// beyond is shed (and counted) so a slow client cannot make the
/// server buffer without bound.
const TAIL_BATCH: usize = 512;
/// Poll cadence for `tail --follow`.
const TAIL_POLL: Duration = Duration::from_millis(50);
/// Longest request line, newline included, a connection may send. Any
/// local client can open the socket, so the bound is what keeps bytes
/// without a newline from growing the connection's buffer until the
/// daemon is killed. 16 MiB is two orders of magnitude above the
/// largest line in the tree (a 130 KB fat-tree submit).
pub const MAX_REQUEST_LINE: usize = 16 << 20;

/// Serves `daemon` on its configured Unix socket until a client sends
/// `drain`, then gracefully shuts the daemon down and returns the
/// shutdown report. A stale socket file is replaced.
pub fn run_server(daemon: Daemon) -> std::io::Result<ShutdownReport> {
    let socket_path = daemon.config().socket.clone();
    let _ = std::fs::remove_file(&socket_path);
    if let Some(dir) = socket_path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let listener = UnixListener::bind(&socket_path)?;
    let daemon = Arc::new(daemon);
    let stop = Arc::new(AtomicBool::new(false));

    for connection in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let stream = match connection {
            Ok(s) => s,
            Err(_) => continue,
        };
        let daemon = Arc::clone(&daemon);
        let stop = Arc::clone(&stop);
        let socket_path = socket_path.clone();
        let _ = std::thread::Builder::new()
            .name("chronusd-conn".to_string())
            .spawn(move || {
                daemon.metrics().connections.inc();
                let _ = serve_connection(&daemon, stream, &stop, || {
                    // Drain: wake the accept loop with a throwaway
                    // connection so it observes the stop flag.
                    let _ = UnixStream::connect(&socket_path);
                });
            });
    }
    drop(listener);
    let _ = std::fs::remove_file(&socket_path);
    let report = daemon.shutdown();
    Ok(report)
}

/// Handles one connection's request lines until EOF or `drain`.
fn serve_connection(
    daemon: &Daemon,
    stream: UnixStream,
    stop: &AtomicBool,
    wake_accept: impl Fn(),
) -> std::io::Result<()> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    // One buffer for the connection's lifetime: submit lines run to
    // ~100 KB and a client sends many.
    let mut line = String::new();
    loop {
        line.clear();
        let read = (&mut reader)
            .take(MAX_REQUEST_LINE as u64 + 1)
            .read_line(&mut line)?;
        if read == 0 {
            break;
        }
        if read > MAX_REQUEST_LINE {
            // The rest of the line is unread and unbounded: answer and
            // hang up rather than resynchronize on a newline that may
            // never come.
            daemon.metrics().proto_errors.inc();
            return send(
                &mut writer,
                &proto::err_response("request line too long", false),
            );
        }
        if line.trim().is_empty() {
            continue;
        }
        daemon.metrics().requests.inc();
        let (response, drain) = match proto::request_from_line(&line) {
            Ok(Request::Tail {
                filter,
                max_events,
                follow,
            }) => {
                // Tail is the one verb that streams: it owns the
                // connection until it finishes, then the line loop
                // resumes for the next request.
                serve_tail(daemon, &mut writer, stop, filter, max_events, follow)?;
                continue;
            }
            Ok(request) => {
                let drain = request == Request::Drain;
                (dispatch(daemon, request), drain)
            }
            Err(e) => {
                daemon.metrics().proto_errors.inc();
                (proto::err_response(&e, false), false)
            }
        };
        send(&mut writer, &response)?;
        if drain {
            stop.store(true, Ordering::Release);
            wake_accept();
            break;
        }
    }
    Ok(())
}

/// Writes one response line and flushes it.
fn send(writer: &mut UnixStream, response: &Value) -> std::io::Result<()> {
    let text = serde_json::to_string(response)
        .unwrap_or_else(|_| r#"{"ok":false,"error":"encode failed"}"#.to_string());
    writeln!(writer, "{text}")?;
    writer.flush()
}

/// Executes one request against the daemon.
fn dispatch(daemon: &Daemon, request: Request) -> Value {
    match request {
        Request::Ping => proto::ok_response(vec![("pong", Value::Bool(true))]),
        Request::Submit {
            tenant,
            priority,
            deadline_ms,
            instance,
        } => {
            let decoded = match instance_from_value(&instance) {
                Ok(inst) => inst,
                Err(e) => {
                    daemon.metrics().failed.inc();
                    return proto::err_response(&format!("bad instance: {e}"), false);
                }
            };
            let deadline = deadline_ms.map(Duration::from_millis);
            match daemon.submit(&tenant, priority, deadline, Arc::new(decoded)) {
                Ok(id) => proto::ok_response(vec![("id", Value::from_u64_exact(id))]),
                Err(shed) => proto::shed_response(&shed),
            }
        }
        Request::Status { id: Some(id) } => match daemon.status(id) {
            Some(status) => proto::ok_response(vec![("status", status.to_value())]),
            None => proto::err_response(&format!("unknown update {id}"), false),
        },
        Request::Status { id: None } => {
            let counts = daemon.status_counts();
            let mut obj = serde_json::Map::new();
            for (state, count) in counts {
                obj.insert(state.to_string(), Value::from_u64_exact(count));
            }
            proto::ok_response(vec![
                ("counts", Value::Object(obj)),
                (
                    "queue_len",
                    Value::from_u64_exact(daemon.queue_len() as u64),
                ),
                (
                    "armed_len",
                    Value::from_u64_exact(daemon.armed_len() as u64),
                ),
            ])
        }
        Request::Watch { id, timeout_ms } => {
            match daemon.watch(id, Duration::from_millis(timeout_ms)) {
                Some(status) => {
                    let settled = status.state.is_settled();
                    proto::ok_response(vec![
                        ("status", status.to_value()),
                        ("settled", Value::Bool(settled)),
                    ])
                }
                None => proto::err_response(&format!("unknown update {id}"), false),
            }
        }
        Request::Confirm { id } => match daemon.confirm(id) {
            Ok(()) => proto::ok_response(vec![("id", Value::from_u64_exact(id))]),
            Err(e) => proto::err_response(&e, false),
        },
        Request::Drain => proto::ok_response(vec![("draining", Value::Bool(true))]),
        Request::Snapshot => match daemon.snapshot() {
            Ok(live) => proto::ok_response(vec![("live", Value::from_u64_exact(live as u64))]),
            Err(e) => proto::err_response(&format!("snapshot failed: {e}"), false),
        },
        Request::Metrics => proto::ok_response(vec![("text", Value::from(daemon.metrics_text()))]),
        Request::Top => proto::ok_response(vec![("top", daemon.top())]),
        Request::Dump => match daemon.dump() {
            Ok(path) => proto::ok_response(vec![("path", Value::from(path.display().to_string()))]),
            Err(e) => proto::err_response(&format!("dump failed: {e}"), false),
        },
        Request::Tail { .. } => {
            // Handled by the streaming path in `serve_connection`;
            // reaching here means a non-connection caller (tests)
            // dispatched it directly.
            proto::err_response("tail is only available over a connection", false)
        }
    }
}

/// Encodes one flight event as a wire line.
fn tail_event_value(e: &FlightEvent) -> Value {
    let mut obj = Map::new();
    obj.insert("seq".to_string(), Value::from_u64_exact(e.seq));
    obj.insert(
        "kind".to_string(),
        Value::from(match e.kind {
            FlightEventKind::Span => "span",
            FlightEventKind::Instant => "instant",
            FlightEventKind::Counter => "counter",
        }),
    );
    obj.insert("name".to_string(), Value::from(e.name));
    obj.insert("id".to_string(), Value::from_u64_exact(e.id));
    obj.insert("start_ns".to_string(), Value::from_u64_exact(e.start_ns));
    obj.insert("end_ns".to_string(), Value::from_u64_exact(e.end_ns));
    obj.insert("tid".to_string(), Value::from_u64_exact(e.tid));
    if let Some(parent) = e.parent {
        obj.insert("parent".to_string(), Value::from_u64_exact(parent));
    }
    let mut args = Map::new();
    for (k, v) in &e.args {
        args.insert(k.to_string(), Value::from_u64_exact(*v));
    }
    obj.insert("args".to_string(), Value::Object(args));
    Value::Object(obj)
}

/// Streams flight-ring events to one client: a `streaming` header,
/// then one event per line (server-side name filtering), then a
/// `done` line. Each poll ships at most [`TAIL_BATCH`] events — the
/// overflow is shed and counted rather than buffered for a slow
/// client. In follow mode the ring is re-polled until the client
/// hangs up, `max_events` is reached, or the daemon drains.
fn serve_tail(
    daemon: &Daemon,
    writer: &mut UnixStream,
    stop: &AtomicBool,
    filter: Option<String>,
    max_events: u64,
    follow: bool,
) -> std::io::Result<()> {
    let header = proto::ok_response(vec![
        ("streaming", Value::Bool(true)),
        ("recording", Value::Bool(FlightRecorder::is_on())),
    ]);
    send(writer, &header)?;

    // One-shot tail answers with the ring's recent history; follow
    // starts at the present and streams what happens next.
    let mut cursor = if follow {
        FlightRecorder::events_since(0).1
    } else {
        0
    };
    let mut sent = 0u64;
    loop {
        let (events, next) = FlightRecorder::events_since(cursor);
        cursor = next;
        let mut shipped_this_poll = 0usize;
        for event in &events {
            if let Some(f) = &filter {
                if !event.name.starts_with(f.as_str()) {
                    continue;
                }
            }
            if shipped_this_poll >= TAIL_BATCH {
                daemon.metrics().tail_shed.inc();
                continue;
            }
            writeln!(
                writer,
                "{}",
                serde_json::to_string(&tail_event_value(event)).unwrap_or_default()
            )?;
            shipped_this_poll += 1;
            sent += 1;
            if max_events > 0 && sent >= max_events {
                break;
            }
        }
        writer.flush()?;
        let reached_max = max_events > 0 && sent >= max_events;
        if !follow || reached_max || stop.load(Ordering::Acquire) {
            break;
        }
        std::thread::sleep(TAIL_POLL);
    }
    let footer = proto::ok_response(vec![
        ("done", Value::Bool(true)),
        ("sent", Value::from_u64_exact(sent)),
    ]);
    send(writer, &footer)
}
