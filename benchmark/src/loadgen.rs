//! The load generator: closed and open loops over the daemon's socket.
//!
//! One *operation* is `submit` → `watch` until settled → `confirm` if armed.
//! Its latency runs from the moment the submit line is written (closed loop)
//! or was due to be written (open loop) to the moment the settled `watch`
//! reply is parsed.

use crate::child::Conn;
use serde_json::Value;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How a settled operation ended.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    /// A certified timed schedule is armed and journaled under this id.
    Armed(u64),
    /// Settled without arming: the two-phase fallback or an uncertified plan.
    Fallback,
    /// Shed, refused, failed, or armed without `certified:true`.
    Failed(String),
}

/// What one phase of load did.
#[derive(Debug, Default)]
pub struct PhaseStats {
    /// Operations attempted.
    pub ops: u64,
    /// Operations that armed a certified timed schedule.
    pub armed: u64,
    /// Operations settled by two-phase/uncertified plans instead.
    pub fallback: u64,
    /// Operations that failed, with the first few reasons.
    pub failed: u64,
    /// Why the first failures failed.
    pub failures: Vec<String>,
    /// Latency of every operation that settled, in nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Ids armed and deliberately left unconfirmed.
    pub unconfirmed: Vec<u64>,
    /// Open loop: how late each burst was sent, in nanoseconds.
    pub late_ns: Vec<u64>,
    /// Wall time of the phase.
    pub wall: Duration,
}

impl PhaseStats {
    fn record(&mut self, outcome: Outcome, latency: Duration, keep_armed: bool) {
        self.ops += 1;
        match outcome {
            Outcome::Armed(id) => {
                self.armed += 1;
                self.latencies_ns.push(latency.as_nanos() as u64);
                if keep_armed {
                    self.unconfirmed.push(id);
                }
            }
            Outcome::Fallback => {
                self.fallback += 1;
                self.latencies_ns.push(latency.as_nanos() as u64);
            }
            Outcome::Failed(why) => {
                self.failed += 1;
                if self.failures.len() < 5 {
                    self.failures.push(why);
                }
            }
        }
    }

    /// Adds what `other` did to this phase. Wall times add up too: right for
    /// phases that ran one after the other, while clients that ran side by
    /// side have no wall time of their own.
    pub fn merge(&mut self, other: PhaseStats) {
        self.wall += other.wall;
        self.ops += other.ops;
        self.armed += other.armed;
        self.fallback += other.fallback;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(5);
        self.latencies_ns.extend(other.latencies_ns);
        self.unconfirmed.extend(other.unconfirmed);
        self.late_ns.extend(other.late_ns);
    }
}

fn id_of(reply: &Value) -> Result<u64, String> {
    if reply.get("ok") != Some(&Value::Bool(true)) {
        let kind = if reply.get("shed") == Some(&Value::Bool(true)) {
            "shed"
        } else {
            "refused"
        };
        let why = reply.get("error").and_then(Value::as_str).unwrap_or("?");
        return Err(format!("submit {kind}: {why}"));
    }
    reply
        .get("id")
        .and_then(Value::as_u64_exact)
        .ok_or_else(|| "submit reply without id".to_string())
}

/// Waits for update `id` to settle and classifies the result.
fn watch(conn: &mut Conn, id: u64) -> io::Result<Outcome> {
    let reply = conn.call(&format!(
        "{{\"cmd\":\"watch\",\"id\":{id},\"timeout_ms\":10000}}\n"
    ))?;
    if reply.get("settled") == Some(&Value::Bool(false)) {
        // Not a failed operation but a stuck daemon: every later request
        // would wait its ten seconds too, so the run ends here.
        return Err(io::Error::other(format!(
            "update {id} did not settle within 10 s"
        )));
    }
    let status = reply.get("status");
    let field = |key: &str| status.and_then(|s| s.get(key));
    let state = field("state").and_then(Value::as_str).unwrap_or("?");
    Ok(match state {
        "armed" if field("certified") == Some(&Value::Bool(true)) => Outcome::Armed(id),
        "armed" => Outcome::Failed(format!("update {id} armed without certified:true")),
        "completed" => Outcome::Fallback,
        other => Outcome::Failed(format!(
            "update {id} ended `{other}`: {}",
            field("detail").and_then(Value::as_str).unwrap_or("?")
        )),
    })
}

fn confirm(conn: &mut Conn, id: u64) -> io::Result<()> {
    conn.call_ok(&format!("{{\"cmd\":\"confirm\",\"id\":{id}}}\n"))
        .map(drop)
}

/// One closed-loop operation; returns how it ended and its latency.
fn operation(conn: &mut Conn, line: &str, confirm_armed: bool) -> io::Result<(Outcome, Duration)> {
    conn.send(line)?;
    let written = Instant::now();
    let id = match id_of(&conn.recv()?) {
        Ok(id) => id,
        Err(why) => return Ok((Outcome::Failed(why), written.elapsed())),
    };
    let outcome = watch(conn, id)?;
    let latency = written.elapsed();
    if confirm_armed {
        if let Outcome::Armed(id) = outcome {
            confirm(conn, id)?;
        }
    }
    Ok((outcome, latency))
}

/// Most requests the open loop leaves unsettled at once: below the
/// production command line's `--queue-bound 64`, so that no clump of bursts
/// can be shed.
const MAX_OUTSTANDING: u64 = 56;

/// When a closed loop stops.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// After exactly this many passes over the lines: a whole number, so that
    /// every instance is requested equally often and shares over operations
    /// equal shares over the pool.
    Passes(u64),
    /// When this many updates are armed; they are left unconfirmed.
    Armed(u64),
}

/// Which operation a client runs next.
struct Dispenser {
    next: u64,
    limit: u64,
}

/// Runs `clients` connections in a closed loop over `lines` until `stop`.
pub fn closed_loop(
    socket: &Path,
    lines: &[String],
    clients: usize,
    stop: Stop,
) -> io::Result<PhaseStats> {
    let len = lines.len() as u64;
    let keep_armed = matches!(stop, Stop::Armed(_));
    let dispenser = Mutex::new(Dispenser {
        next: 0,
        limit: match stop {
            Stop::Passes(n) => n * len,
            Stop::Armed(n) => n,
        },
    });
    let started = Instant::now();
    let draw = || -> Option<u64> {
        let mut d = dispenser
            .lock()
            .expect("no client panics holding the dispenser");
        (d.next < d.limit).then(|| {
            d.next += 1;
            d.next - 1
        })
    };
    let client = || -> io::Result<PhaseStats> {
        let mut conn = Conn::connect(socket)?;
        let mut stats = PhaseStats::default();
        while let Some(i) = draw() {
            let (outcome, latency) = operation(&mut conn, &lines[(i % len) as usize], !keep_armed)?;
            if keep_armed && !matches!(outcome, Outcome::Armed(_)) {
                // Not armed: one more operation is needed to reach the count
                // (up to a point: a daemon that arms nothing ends the phase).
                let mut d = dispenser.lock().expect("dispenser");
                if let Stop::Armed(wanted) = stop {
                    d.limit = (d.limit + 1).min(8 * wanted);
                }
            }
            stats.record(outcome, latency, keep_armed);
        }
        Ok(stats)
    };
    let mut total = PhaseStats::default();
    std::thread::scope(|scope| -> io::Result<()> {
        let handles: Vec<_> = (0..clients).map(|_| scope.spawn(client)).collect();
        for handle in handles {
            total.merge(handle.join().expect("client thread panicked")?);
        }
        Ok(())
    })?;
    total.wall = started.elapsed();
    Ok(total)
}

/// Runs the open loop: one thread sends each burst of `burst` pipelined
/// `submit`s (`lines[order[..]]`, in order) when it is due (nanoseconds after
/// the start, ascending), a second one watches and confirms the ids in
/// order. Latency is timed from the burst's due time, so a stall is charged
/// to every request it delays.
///
/// Ids settle in the order two concurrent workers finish them, which within
/// a burst may differ from id order by one plan: a latency is never
/// under-reported, and over-reported by at most that one plan.
///
/// A burst is held back while sending it would leave more than
/// [`MAX_OUTSTANDING`] requests unsettled: bursts that pile up behind a slow
/// plan and overran the daemon's admission queue would be shed, which this
/// benchmark counts as failed. The hold shows where a stall should, in the
/// latencies (timed from the due time) and in `gen.late_p99_us`.
pub fn open_loop(
    socket: &Path,
    lines: &[String],
    due_ns: &[u64],
    order: &[usize],
    burst: usize,
) -> io::Result<PhaseStats> {
    let (tx, rx) = mpsc::channel::<(Result<u64, String>, Instant)>();
    let started = Instant::now();
    let settled = AtomicU64::new(0);
    let settled = &settled;
    let sender = move || -> io::Result<Vec<u64>> {
        let mut conn = Conn::connect(socket)?;
        let mut late = Vec::with_capacity(due_ns.len());
        let mut sent = 0u64;
        for (&due, requests) in due_ns.iter().zip(order.chunks(burst)) {
            let due_at = started + Duration::from_nanos(due);
            std::thread::sleep(due_at.saturating_duration_since(Instant::now()));
            while (sent + requests.len() as u64).saturating_sub(settled.load(Ordering::Relaxed))
                > MAX_OUTSTANDING
            {
                std::thread::sleep(Duration::from_micros(100));
            }
            sent += requests.len() as u64;
            late.push(due_at.elapsed().as_nanos() as u64);
            for &request in requests {
                conn.send(&lines[request])?;
            }
            for _ in requests {
                if tx.send((id_of(&conn.recv()?), due_at)).is_err() {
                    // The watcher stopped on an error of its own, which is
                    // the one that gets reported.
                    return Ok(late);
                }
            }
        }
        Ok(late)
    };
    let watch_all = move || -> io::Result<PhaseStats> {
        let mut conn = Conn::connect(socket)?;
        let mut stats = PhaseStats::default();
        for (submitted, due_at) in rx {
            let outcome = match submitted {
                Ok(id) => watch(&mut conn, id)?,
                Err(why) => Outcome::Failed(why),
            };
            let latency = due_at.elapsed();
            if let Outcome::Armed(id) = outcome {
                confirm(&mut conn, id)?;
            }
            stats.record(outcome, latency, false);
            settled.fetch_add(1, Ordering::Relaxed);
        }
        Ok(stats)
    };
    let watcher = move || {
        let result = watch_all();
        // Error or not, nothing is left for the sender to wait on.
        settled.store(u64::MAX, Ordering::Relaxed);
        result
    };
    let mut stats = std::thread::scope(|scope| -> io::Result<PhaseStats> {
        let sender = scope.spawn(sender);
        let watcher = scope.spawn(watcher);
        let late = sender.join().expect("sender thread panicked");
        let mut stats = watcher.join().expect("watcher thread panicked")?;
        stats.late_ns = late?;
        Ok(stats)
    })?;
    stats.wall = started.elapsed();
    Ok(stats)
}
