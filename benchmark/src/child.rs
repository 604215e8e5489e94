//! The `chronusd` child process and the line-JSON connection to it.

use serde_json::Value;
use std::fs::{self, File};
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// Daemon-clock epoch every start is anchored to. Fixed, so that a restarted
/// daemon's clock begins again below every journaled arm epoch and the
/// restore pass finds each armed trigger still ahead of it (re-arm, not
/// rollback).
pub const BASE_EPOCH_NS: u64 = 1_000_000_000_000;

/// How long a start may take before the run is abandoned.
const START_TIMEOUT: Duration = Duration::from_secs(60);
/// A reply that takes longer than this means the daemon hangs (the `watch`
/// verb itself gives up after 10 s).
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Process id of the live child, 0 when there is none; read by the watchdog.
static CHILD_PID: AtomicU32 = AtomicU32::new(0);

/// Ends the whole run after `limit`: a run that hangs (a plan that does not
/// return, in the child or in an in-process pass) must still stop what it
/// started and exit, without a result, before its caller gives up on it.
pub fn arm_watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("benchmark: still running after {limit:?}; killing chronusd and giving up");
        let pid = CHILD_PID.load(Ordering::SeqCst);
        if pid != 0 {
            let _ = Command::new("kill")
                .args(["-KILL", &pid.to_string()])
                .status();
        }
        std::process::exit(3);
    });
}

fn other(msg: String) -> io::Error {
    io::Error::other(msg)
}

/// The production command line: what the issue fixes, plus where this run
/// keeps the socket and the journal. Everything else is the daemon's
/// default: certification, slack, journal fsync, 5 s snapshotter and flight
/// recorder all on.
pub fn command_line(socket: &Path, state_dir: &Path) -> Vec<String> {
    let mut args: Vec<String> = [
        ("--workers", "2"),
        ("--engine-shards", "8"),
        ("--queue-bound", "64"),
        ("--tenant-rate", "100000"),
        ("--tenant-burst", "100000"),
    ]
    .iter()
    .flat_map(|(k, v)| [k.to_string(), v.to_string()])
    .collect();
    args.extend(["--base-epoch-ns".to_string(), BASE_EPOCH_NS.to_string()]);
    args.extend(["--socket".to_string(), socket.display().to_string()]);
    args.extend([
        "--snapshot-dir".to_string(),
        state_dir.display().to_string(),
    ]);
    args
}

/// One blocking line-JSON connection.
pub struct Conn {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
    line: String,
}

impl Conn {
    /// Connects to the daemon's socket.
    pub fn connect(socket: &Path) -> io::Result<Conn> {
        let stream = UnixStream::connect(socket)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            line: String::new(),
        })
    }

    /// Writes one request line (`line` ends in a newline).
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())
    }

    /// Reads and parses one response line.
    pub fn recv(&mut self) -> io::Result<Value> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(other("daemon closed the connection".to_string()));
        }
        serde_json::from_str(&self.line).map_err(|e| other(format!("bad reply: {e}")))
    }

    /// One request, one response.
    pub fn call(&mut self, line: &str) -> io::Result<Value> {
        self.send(line)?;
        self.recv()
    }

    /// A call whose refusal is an error.
    pub fn call_ok(&mut self, line: &str) -> io::Result<Value> {
        let reply = self.call(line)?;
        if reply.get("ok") == Some(&Value::Bool(true)) {
            Ok(reply)
        } else {
            Err(other(format!(
                "daemon refused `{}`: {reply:?}",
                line.trim_end()
            )))
        }
    }
}

/// A running `chronusd` child. Dropping it kills the process and waits for
/// it, so no run leaves a daemon behind, however it ends.
pub struct Daemon {
    binary: PathBuf,
    socket: PathBuf,
    state_dir: PathBuf,
    child: Child,
    starts: usize,
}

impl Daemon {
    /// Starts `binary` on a fresh state directory under `dir` and waits for
    /// its first pong.
    pub fn start(binary: &Path, dir: &Path) -> io::Result<Daemon> {
        let state_dir = dir.join("state");
        if state_dir.exists() {
            fs::remove_dir_all(&state_dir)?;
        }
        fs::create_dir_all(&state_dir)?;
        let socket = dir.join("d.sock");
        let child = spawn(binary, &socket, &state_dir, 0)?;
        let mut daemon = Daemon {
            binary: binary.to_path_buf(),
            socket,
            state_dir,
            child,
            starts: 1,
        };
        daemon.wait_for_pong()?;
        Ok(daemon)
    }

    /// The socket clients connect to.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Where the daemon keeps its journal.
    pub fn journal_path(&self) -> PathBuf {
        self.state_dir.join("journal.jsonl")
    }

    /// The exact argument list the child was started with.
    pub fn args(&self) -> Vec<String> {
        command_line(&self.socket, &self.state_dir)
    }

    /// Polls `ping` every 200 µs until the daemon answers (a 1 ms poll would
    /// quantize a 9 ms restart by a tenth).
    fn wait_for_pong(&mut self) -> io::Result<()> {
        let started = Instant::now();
        loop {
            if let Ok(mut conn) = Conn::connect(&self.socket) {
                if conn.call_ok("{\"cmd\":\"ping\"}\n").is_ok() {
                    return Ok(());
                }
            }
            if let Some(status) = self.child.try_wait()? {
                return Err(other(format!(
                    "chronusd exited ({status}): {}",
                    self.last_log()
                )));
            }
            if started.elapsed() > START_TIMEOUT {
                return Err(other(format!(
                    "chronusd did not answer a ping within {START_TIMEOUT:?}: {}",
                    self.last_log()
                )));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// SIGKILLs the daemon, starts it again with the same flags on the same
    /// state directory, and returns the time from the kill to the first pong.
    pub fn kill_and_restart(&mut self) -> io::Result<Duration> {
        let killed = Instant::now();
        self.child.kill()?;
        self.child.wait()?;
        self.child = spawn(&self.binary, &self.socket, &self.state_dir, self.starts)?;
        self.starts += 1;
        self.wait_for_pong()?;
        Ok(killed.elapsed())
    }

    fn last_log(&self) -> String {
        fs::read_to_string(log_path(&self.state_dir, self.starts - 1)).unwrap_or_default()
    }

    /// The `restored N armed update(s): …` line the latest start printed.
    pub fn restore_line(&self) -> Option<String> {
        self.last_log()
            .lines()
            .find(|l| l.contains("restored"))
            .map(str::to_string)
    }

    /// Asks the daemon to drain and waits for it to exit.
    pub fn drain(mut self) -> io::Result<()> {
        Conn::connect(&self.socket)?.call_ok("{\"cmd\":\"drain\"}\n")?;
        let started = Instant::now();
        while self.child.try_wait()?.is_none() {
            if started.elapsed() > START_TIMEOUT {
                return Err(other("chronusd did not exit after drain".to_string()));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Already-exited children make both calls fail harmlessly.
        CHILD_PID.store(0, Ordering::SeqCst);
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn log_path(state_dir: &Path, start: usize) -> PathBuf {
    state_dir.join(format!("chronusd.{start}.log"))
}

fn spawn(binary: &Path, socket: &Path, state_dir: &Path, start: usize) -> io::Result<Child> {
    let log = File::create(log_path(state_dir, start))?;
    let child = Command::new(binary)
        .args(command_line(socket, state_dir))
        .stdin(Stdio::null())
        .stdout(log.try_clone()?)
        .stderr(log)
        .spawn()
        .map_err(|e| other(format!("spawn {}: {e}", binary.display())))?;
    CHILD_PID.store(child.id(), Ordering::SeqCst);
    Ok(child)
}
