//! `chronusctl`'s client half of the IPC protocol: a blocking
//! line-JSON call helper over a Unix stream, plus typed convenience
//! wrappers for every command.

use crate::admission::Priority;
use chronus_net::codec::write_instance;
use chronus_net::UpdateInstance;
use serde_json::{Map, Value};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;

/// A connected control client. Each [`CtlClient::call`] writes one
/// request line and blocks for one response line; the connection is
/// reusable across calls.
pub struct CtlClient {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

fn io_err(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

impl CtlClient {
    /// Connects to a `chronusd` socket.
    pub fn connect(socket: &Path) -> std::io::Result<Self> {
        let stream = UnixStream::connect(socket)?;
        let writer = stream.try_clone()?;
        Ok(CtlClient {
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request object and returns the response object.
    pub fn call(&mut self, request: &Value) -> std::io::Result<Value> {
        let line = serde_json::to_string(request).map_err(|e| io_err(e.to_string()))?;
        self.call_line(&line)
    }

    /// Sends one encoded request line (no newline) and returns the
    /// response object.
    fn call_line(&mut self, line: &str) -> std::io::Result<Value> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(io_err("daemon closed the connection".to_string()));
        }
        serde_json::from_str(&response).map_err(|e| io_err(e.to_string()))
    }

    fn cmd(name: &str) -> Map {
        let mut obj = Map::new();
        obj.insert("cmd".to_string(), Value::from(name));
        obj
    }

    /// Checks whether a response succeeded, extracting the error.
    fn expect_ok(response: Value) -> std::io::Result<Value> {
        if response.get("ok") == Some(&Value::Bool(true)) {
            Ok(response)
        } else {
            let msg = response
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or("daemon refused the request")
                .to_string();
            Err(io_err(msg))
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> std::io::Result<()> {
        Self::expect_ok(self.call(&Value::Object(Self::cmd("ping")))?).map(|_| ())
    }

    /// Submits an instance; returns the assigned update id, or the
    /// daemon's refusal (sheds surface as errors here — inspect the
    /// raw response via [`CtlClient::call`] to tell sheds apart).
    pub fn submit(
        &mut self,
        tenant: &str,
        priority: Priority,
        deadline_ms: Option<u64>,
        instance: &UpdateInstance,
    ) -> std::io::Result<u64> {
        // Written in one pass, members in sorted order as `call` writes
        // a map: the instance is all but the whole line.
        let mut line = String::from("{\"cmd\":\"submit\"");
        if let Some(ms) = deadline_ms {
            line.push_str(",\"deadline_ms\":");
            serde_json::push_u64_exact(ms, &mut line);
        }
        line.push_str(",\"instance\":");
        write_instance(instance, &mut line);
        line.push_str(",\"priority\":");
        serde_json::escape(priority.as_str(), &mut line);
        line.push_str(",\"tenant\":");
        serde_json::escape(tenant, &mut line);
        line.push('}');
        let response = Self::expect_ok(self.call_line(&line)?)?;
        response
            .get("id")
            .and_then(Value::as_u64_exact)
            .ok_or_else(|| io_err("submit response missing id".to_string()))
    }

    /// Status of one update.
    pub fn status(&mut self, id: u64) -> std::io::Result<Value> {
        let mut obj = Self::cmd("status");
        obj.insert("id".to_string(), Value::from_u64_exact(id));
        let response = Self::expect_ok(self.call(&Value::Object(obj))?)?;
        response
            .get("status")
            .cloned()
            .ok_or_else(|| io_err("status response missing status".to_string()))
    }

    /// Aggregate status counts.
    pub fn status_all(&mut self) -> std::io::Result<Value> {
        Self::expect_ok(self.call(&Value::Object(Self::cmd("status")))?)
    }

    /// Blocks until update `id` settles (or the daemon-side timeout
    /// elapses); returns the last observed status object.
    pub fn watch(&mut self, id: u64, timeout_ms: u64) -> std::io::Result<Value> {
        let mut obj = Self::cmd("watch");
        obj.insert("id".to_string(), Value::from_u64_exact(id));
        obj.insert("timeout_ms".to_string(), Value::from_u64_exact(timeout_ms));
        let response = Self::expect_ok(self.call(&Value::Object(obj))?)?;
        response
            .get("status")
            .cloned()
            .ok_or_else(|| io_err("watch response missing status".to_string()))
    }

    /// Confirms an armed update as executed.
    pub fn confirm(&mut self, id: u64) -> std::io::Result<()> {
        let mut obj = Self::cmd("confirm");
        obj.insert("id".to_string(), Value::from_u64_exact(id));
        Self::expect_ok(self.call(&Value::Object(obj))?).map(|_| ())
    }

    /// Asks the daemon to drain and exit.
    pub fn drain(&mut self) -> std::io::Result<()> {
        Self::expect_ok(self.call(&Value::Object(Self::cmd("drain")))?).map(|_| ())
    }

    /// Forces a journal compaction; returns the live record count.
    pub fn snapshot(&mut self) -> std::io::Result<u64> {
        let response = Self::expect_ok(self.call(&Value::Object(Self::cmd("snapshot")))?)?;
        response
            .get("live")
            .and_then(Value::as_u64_exact)
            .ok_or_else(|| io_err("snapshot response missing live".to_string()))
    }

    /// The daemon's Prometheus text exposition.
    pub fn metrics_text(&mut self) -> std::io::Result<String> {
        let response = Self::expect_ok(self.call(&Value::Object(Self::cmd("metrics")))?)?;
        response
            .get("text")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| io_err("metrics response missing text".to_string()))
    }

    /// The live operational overview (`chronusctl top`).
    pub fn top(&mut self) -> std::io::Result<Value> {
        let response = Self::expect_ok(self.call(&Value::Object(Self::cmd("top")))?)?;
        response
            .get("top")
            .cloned()
            .ok_or_else(|| io_err("top response missing top".to_string()))
    }

    /// Asks the daemon to write a forensic flight dump; returns its
    /// path.
    pub fn dump(&mut self) -> std::io::Result<String> {
        let response = Self::expect_ok(self.call(&Value::Object(Self::cmd("dump")))?)?;
        response
            .get("path")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| io_err("dump response missing path".to_string()))
    }

    /// Streams flight events from the daemon, invoking `on_event` per
    /// event line until the stream's `done` footer (or EOF). Returns
    /// the number of events received. The connection stays usable for
    /// further calls afterwards.
    pub fn tail(
        &mut self,
        filter: Option<&str>,
        max_events: u64,
        follow: bool,
        mut on_event: impl FnMut(&Value),
    ) -> std::io::Result<u64> {
        let mut obj = Self::cmd("tail");
        if let Some(f) = filter {
            obj.insert("filter".to_string(), Value::from(f));
        }
        if max_events > 0 {
            obj.insert("max_events".to_string(), Value::from_u64_exact(max_events));
        }
        if follow {
            obj.insert("follow".to_string(), Value::Bool(true));
        }
        let header = self.call(&Value::Object(obj))?;
        Self::expect_ok(header.clone())?;
        if header.get("streaming") != Some(&Value::Bool(true)) {
            return Err(io_err("tail response is not a stream".to_string()));
        }
        let mut received = 0u64;
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io_err("daemon closed the tail stream".to_string()));
            }
            let v: Value = serde_json::from_str(&line).map_err(|e| io_err(e.to_string()))?;
            if v.get("done") == Some(&Value::Bool(true)) {
                return Ok(received);
            }
            received += 1;
            on_event(&v);
        }
    }
}
