//! Write-ahead journal of armed schedules.
//!
//! Before `chronusd` acknowledges an armed update, it appends one
//! line-delimited JSON record carrying everything restore needs: the
//! instance, the timed schedule, the consistency [`Certificate`], the
//! optional slack certificate and the arm epoch. Settling an update
//! appends a tombstone (`complete`/`rollback`) rather than rewriting
//! the file, so a crash between any two lines loses nothing; replay
//! folds the log into the set of still-live records. Compaction
//! rewrites the live set into a temp file and renames it into place.

use crate::admission::Priority;
use crate::proto::read_members;
use chronus_clock::Nanos;
use chronus_net::codec::{read_instance, write_instance};
use chronus_net::UpdateInstance;
use chronus_timenet::{schedule_from_value, schedule_to_value, Schedule};
use chronus_verify::{
    certificate_from_value, certificate_to_value, slack_from_value, slack_to_value, Certificate,
    SlackCertificate,
};
use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Everything needed to re-arm (or roll back) one certified update
/// after a restart.
#[derive(Clone, Debug)]
pub struct ArmedRecord {
    /// Daemon-assigned update id.
    pub id: u64,
    /// Submitting tenant.
    pub tenant: String,
    /// Priority class it was admitted under.
    pub priority: Priority,
    /// Daemon-clock epoch (ns) the schedule's step 0 was armed at.
    pub epoch_ns: Nanos,
    /// Dilation factor the slack stage applied (1 = undilated).
    pub dilation: i64,
    /// The update instance the certificate certifies.
    pub instance: UpdateInstance,
    /// The armed timed schedule.
    pub schedule: Schedule,
    /// The consistency certificate issued at plan time.
    pub certificate: Certificate,
    /// The certified timing tolerance, when the slack stage ran.
    pub slack: Option<SlackCertificate>,
    /// The `engine.plan` trace-span id the plan was produced under
    /// (0 when tracing was off at plan time). Restore uses it to tag
    /// SLO histogram exemplars and forensic dumps with the exact
    /// planning span of a rolled-back update.
    pub span_id: u64,
    /// Planning wall-clock nanoseconds, persisted so a post-restart
    /// rollback can still account the update's latency to its tenant.
    pub plan_ns: u64,
}

impl ArmedRecord {
    /// Appends the record's journal line: its members in sorted order,
    /// as a [`Value`] object writes them, the instance written straight
    /// from the model and the small members through their codecs.
    fn write(&self, out: &mut String) {
        out.push_str("{\"certificate\":");
        serde_json::push_value(&certificate_to_value(&self.certificate), out);
        out.push_str(",\"dilation\":");
        serde_json::push_value(&Value::from_i64_exact(self.dilation), out);
        out.push_str(",\"epoch_ns\":");
        serde_json::push_value(&Value::from_i128_exact(self.epoch_ns), out);
        out.push_str(",\"id\":");
        serde_json::push_u64_exact(self.id, out);
        out.push_str(",\"instance\":");
        write_instance(&self.instance, out);
        out.push_str(",\"op\":\"arm\",\"plan_ns\":");
        serde_json::push_u64_exact(self.plan_ns, out);
        out.push_str(",\"priority\":");
        serde_json::escape(self.priority.as_str(), out);
        out.push_str(",\"schedule\":");
        serde_json::push_value(&schedule_to_value(&self.schedule), out);
        out.push_str(",\"slack\":");
        match &self.slack {
            Some(s) => serde_json::push_value(&slack_to_value(s), out),
            None => out.push_str("null"),
        }
        out.push_str(",\"span_id\":");
        serde_json::push_u64_exact(self.span_id, out);
        out.push_str(",\"tenant\":");
        serde_json::escape(&self.tenant, out);
        out.push('}');
    }

    /// The record of an `arm` line: its members but the instance, and
    /// the instance already decoded.
    fn from_members(v: &Map, instance: UpdateInstance) -> Result<Self, String> {
        let get = |key: &str| {
            v.get(key)
                .ok_or_else(|| format!("arm record missing `{key}`"))
        };
        let id = get("id")?
            .as_u64_exact()
            .ok_or_else(|| "arm record `id` not a u64".to_string())?;
        let tenant = get("tenant")?
            .as_str()
            .ok_or_else(|| "arm record `tenant` not a string".to_string())?
            .to_string();
        let priority = Priority::parse(
            get("priority")?
                .as_str()
                .ok_or_else(|| "arm record `priority` not a string".to_string())?,
        )?;
        let epoch_ns = get("epoch_ns")?
            .as_i128_exact()
            .ok_or_else(|| "arm record `epoch_ns` not an integer".to_string())?;
        let dilation = get("dilation")?
            .as_i64_exact()
            .ok_or_else(|| "arm record `dilation` not an i64".to_string())?;
        let schedule = schedule_from_value(get("schedule")?).map_err(|e| e.to_string())?;
        let certificate = certificate_from_value(get("certificate")?).map_err(|e| e.to_string())?;
        let slack = match get("slack")? {
            Value::Null => None,
            other => Some(slack_from_value(other).map_err(|e| e.to_string())?),
        };
        // Optional (absent in journals written before the flight
        // recorder existed): default to "no span recorded".
        let span_id = v.get("span_id").and_then(Value::as_u64_exact).unwrap_or(0);
        let plan_ns = v.get("plan_ns").and_then(Value::as_u64_exact).unwrap_or(0);
        Ok(ArmedRecord {
            id,
            tenant,
            priority,
            epoch_ns,
            dilation,
            instance,
            schedule,
            certificate,
            slack,
            span_id,
            plan_ns,
        })
    }
}

/// One journal line, read.
enum Entry {
    Arm(Box<ArmedRecord>),
    /// A `complete` or `rollback` tombstone for this id.
    Settle(u64),
}

impl Entry {
    /// Reads one line: the `instance` member with the typed codec, the
    /// rest as small [`Value`]s.
    fn read(line: &str) -> Result<Self, String> {
        let (v, instance) = read_members(line, read_instance).map_err(|e| e.to_string())?;
        let op = v
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| "record missing `op`".to_string())?;
        match op {
            "arm" => {
                let instance = instance
                    .ok_or_else(|| "arm record missing `instance`".to_string())?
                    .map_err(|e| e.to_string())?;
                ArmedRecord::from_members(&v, instance).map(|r| Entry::Arm(Box::new(r)))
            }
            "complete" | "rollback" => v
                .get("id")
                .and_then(Value::as_u64_exact)
                .map(Entry::Settle)
                .ok_or_else(|| "tombstone missing `id`".to_string()),
            other => Err(format!("unknown op `{other}`")),
        }
    }
}

/// Result of replaying a journal file.
#[derive(Debug, Default)]
pub struct Replay {
    /// Records armed but never settled — the restart's work list,
    /// in arm order.
    pub live: Vec<ArmedRecord>,
    /// Lines that failed to parse (e.g. a crash mid-append truncated
    /// the last line). Replay continues past them.
    pub corrupt_lines: u64,
    /// Highest update id seen anywhere in the log, settled or not;
    /// the restarted daemon allocates ids above it.
    pub max_id: u64,
}

/// Append-only journal handle. All appends flush and `fsync` before
/// returning, so an acknowledged arm survives a process crash, power
/// loss or host crash on the very next instruction.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    writer: BufWriter<File>,
}

/// Fsyncs the directory holding `path`, making a just-renamed file
/// durable against power loss (no-op on non-Unix targets, where
/// directories cannot be opened for syncing).
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            File::open(dir)?.sync_all()?;
        }
    }
    Ok(())
}

fn tombstone(op: &str, id: u64) -> Value {
    let mut obj = Map::new();
    obj.insert("op".to_string(), Value::from(op));
    obj.insert("id".to_string(), Value::from_u64_exact(id));
    Value::Object(obj)
}

impl Journal {
    /// Opens (creating directories and the file as needed) the journal
    /// at `path` for appending.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                fs::create_dir_all(dir)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Journal {
            path: path.to_path_buf(),
            writer: BufWriter::new(file),
        })
    }

    /// The file this journal appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn encode(v: &Value) -> std::io::Result<String> {
        serde_json::to_string(v)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Encodes an arm record as the journal line [`Journal::append_line`]
    /// takes. Needs no journal: callers encode before they take the
    /// locks the append must happen under.
    pub fn encode_arm(record: &ArmedRecord) -> std::io::Result<String> {
        let mut line = String::new();
        record.write(&mut line);
        Ok(line)
    }

    /// Appends one encoded record (no trailing newline) and makes it
    /// durable.
    pub fn append_line(&mut self, line: &str) -> std::io::Result<()> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        // Push past the OS page cache: an acknowledged record must
        // survive power loss, not just a process crash.
        self.writer.get_ref().sync_data()
    }

    /// Appends an arm record. Must complete before the arm is
    /// acknowledged to the submitter.
    pub fn append_arm(&mut self, record: &ArmedRecord) -> std::io::Result<()> {
        self.append_line(&Self::encode_arm(record)?)
    }

    /// Appends a completion tombstone for `id`.
    pub fn append_complete(&mut self, id: u64) -> std::io::Result<()> {
        self.append_line(&Self::encode(&tombstone("complete", id))?)
    }

    /// Appends a rollback tombstone for `id`.
    pub fn append_rollback(&mut self, id: u64) -> std::io::Result<()> {
        self.append_line(&Self::encode(&tombstone("rollback", id))?)
    }

    /// Replays the journal at `path`. A missing file is an empty
    /// replay; unparsable lines are counted, not fatal.
    pub fn replay(path: &Path) -> std::io::Result<Replay> {
        let text = match fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Replay::default()),
            Err(e) => return Err(e),
        };
        let mut live: BTreeMap<u64, ArmedRecord> = BTreeMap::new();
        let mut order: Vec<u64> = Vec::new();
        let mut replay = Replay::default();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            match Entry::read(line) {
                Ok(Entry::Arm(record)) => {
                    let id = record.id;
                    replay.max_id = replay.max_id.max(id);
                    if live.insert(id, *record).is_none() {
                        order.push(id);
                    }
                }
                Ok(Entry::Settle(id)) => {
                    replay.max_id = replay.max_id.max(id);
                    live.remove(&id);
                    order.retain(|x| *x != id);
                }
                Err(_) => replay.corrupt_lines += 1,
            }
        }
        replay.live = order
            .into_iter()
            .filter_map(|id| live.remove(&id))
            .collect();
        Ok(replay)
    }

    /// Compacts the journal: writes `live` to a temp file and renames
    /// it over the log, then reopens this handle on the new file.
    pub fn compact(&mut self, live: &[&ArmedRecord]) -> std::io::Result<()> {
        let tmp = self.path.with_extension("jsonl.tmp");
        {
            let mut w = BufWriter::new(File::create(&tmp)?);
            for record in live {
                writeln!(w, "{}", Self::encode_arm(record)?)?;
            }
            w.flush()?;
            // The temp file's contents must be durable before the
            // rename publishes it as the journal.
            w.get_ref().sync_all()?;
        }
        self.writer.flush()?;
        fs::rename(&tmp, &self.path)?;
        // Persist the rename itself: without the directory fsync a
        // power loss can roll back to the old (or no) journal file.
        sync_parent_dir(&self.path)?;
        let file = OpenOptions::new().append(true).open(&self.path)?;
        self.writer = BufWriter::new(file);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronus_net::motivating_example;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("chronus-journal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir.join("journal.jsonl")
    }

    fn armed(id: u64) -> ArmedRecord {
        use chronus_engine::{Engine, EngineConfig};
        use std::sync::Arc;
        let instance = motivating_example();
        let engine = Engine::new(EngineConfig::with_workers(1));
        let planned = engine
            .plan_instances(vec![Arc::new(instance.clone())])
            .pop()
            .expect("one plan for one instance");
        let schedule = planned.timed_schedule().expect("timed winner").clone();
        let certificate = planned.certificate.expect("certified by default");
        ArmedRecord {
            id,
            tenant: "t".to_string(),
            priority: Priority::Normal,
            epoch_ns: 1_700_000_000_000_000_000 + id as Nanos,
            dilation: 1,
            instance,
            schedule,
            certificate,
            slack: None,
            span_id: 7700 + id,
            plan_ns: 1_000 * id,
        }
    }

    #[test]
    fn replay_folds_arms_and_tombstones() {
        let path = scratch("fold");
        let mut j = Journal::open(&path).unwrap();
        for id in 1..=4 {
            j.append_arm(&armed(id)).unwrap();
        }
        j.append_complete(2).unwrap();
        j.append_rollback(4).unwrap();
        let replay = Journal::replay(&path).unwrap();
        let live: Vec<u64> = replay.live.iter().map(|r| r.id).collect();
        assert_eq!(live, vec![1, 3]);
        assert_eq!(replay.corrupt_lines, 0);
        assert_eq!(replay.max_id, 4);
        // Restored records carry checkable certificates.
        for record in &replay.live {
            assert_eq!(record.certificate.check(&record.instance), Ok(()));
        }
    }

    #[test]
    fn truncated_trailing_line_is_counted_not_fatal() {
        let path = scratch("trunc");
        let mut j = Journal::open(&path).unwrap();
        j.append_arm(&armed(1)).unwrap();
        j.append_arm(&armed(2)).unwrap();
        drop(j);
        // Simulate a crash mid-append: chop the last line in half.
        let text = fs::read_to_string(&path).unwrap();
        let keep = text.len() - 40;
        fs::write(&path, &text.as_bytes()[..keep]).unwrap();
        let replay = Journal::replay(&path).unwrap();
        assert_eq!(replay.live.len(), 1);
        assert_eq!(replay.live.first().map(|r| r.id), Some(1));
        assert_eq!(replay.corrupt_lines, 1);
    }

    #[test]
    fn compaction_preserves_the_live_set() {
        let path = scratch("compact");
        let mut j = Journal::open(&path).unwrap();
        for id in 1..=3 {
            j.append_arm(&armed(id)).unwrap();
        }
        j.append_complete(1).unwrap();
        let replay = Journal::replay(&path).unwrap();
        let live: Vec<&ArmedRecord> = replay.live.iter().collect();
        j.compact(&live).unwrap();
        // The compacted file holds exactly the live records and the
        // handle keeps appending to it.
        let lines = fs::read_to_string(&path).unwrap().lines().count();
        assert_eq!(lines, 2);
        j.append_rollback(3).unwrap();
        let again = Journal::replay(&path).unwrap();
        assert_eq!(again.live.iter().map(|r| r.id).collect::<Vec<_>>(), [2]);
        assert_eq!(again.corrupt_lines, 0);
    }

    #[test]
    fn journals_without_span_fields_still_parse() {
        // Journals written before the flight recorder existed carry no
        // span_id/plan_ns; replay must default them, not reject.
        let text = Journal::encode_arm(&armed(5)).unwrap();
        let stripped = text
            .replace("\"span_id\":7705,", "")
            .replace("\"span_id\":7705", "")
            .replace("\"plan_ns\":5000,", "")
            .replace("\"plan_ns\":5000", "")
            .replace(",}", "}");
        assert_ne!(stripped, text, "fixture must actually strip the fields");
        let arm = |line: &str| match Entry::read(line) {
            Ok(Entry::Arm(record)) => *record,
            _ => panic!("not an arm line: {line}"),
        };
        let back = arm(&stripped);
        assert_eq!(back.span_id, 0);
        assert_eq!(back.plan_ns, 0);
        // And the full round trip preserves them.
        let roundtrip = arm(&text);
        assert_eq!(roundtrip.span_id, 7705);
        assert_eq!(roundtrip.plan_ns, 5_000);
    }

    #[test]
    fn missing_file_replays_empty() {
        let replay = Journal::replay(Path::new("/nonexistent/chronus/journal.jsonl")).unwrap();
        assert!(replay.live.is_empty());
        assert_eq!(replay.max_id, 0);
    }

    /// An `arm` line exactly as the daemon wrote it while slack
    /// certificates still carried a `per_switch` array: an upgraded
    /// daemon must replay it (0 corrupt lines), keep the slack verdict
    /// and simply forget the array.
    #[test]
    fn arm_lines_with_a_legacy_per_switch_array_still_replay() {
        const LEGACY_ARM_LINE: &str = r#"{"certificate":{"boundaries":[{"acyclic":[2,3,4,0,1,5],"time":0},{"acyclic":[2,1,0,3,4,5],"time":2},{"acyclic":[4,0,3,2,1,5],"time":4}],"cohorts_covered":16,"link_bounds":[{"capacity":1,"dst":1,"peak":1,"segments":[[-5,2,1]],"src":0},{"capacity":1,"dst":3,"peak":1,"segments":[[2,11,1]],"src":0},{"capacity":1,"dst":2,"peak":0,"segments":[[-4,0,1]],"src":1},{"capacity":1,"dst":5,"peak":1,"segments":[[0,3,1],[6,14,1]],"src":1},{"capacity":1,"dst":1,"peak":1,"segments":[[5,13,1]],"src":2},{"capacity":1,"dst":3,"peak":1,"segments":[[-3,1,1]],"src":2},{"capacity":1,"dst":2,"peak":1,"segments":[[4,12,1]],"src":3},{"capacity":1,"dst":4,"peak":1,"segments":[[-2,2,1],[3,4,1]],"src":3},{"capacity":1,"dst":5,"peak":1,"segments":[[-1,3,1],[4,5,1]],"src":4}],"makespan":4,"segments_traced":4},"dilation":2,"epoch_ns":"1790608986416788015","id":1,"instance":{"flows":[{"demand":1,"final":[0,3,2,1,5],"id":0,"initial":[0,1,2,3,4,5]}],"network":{"links":[[0,1,1,1],[1,2,1,1],[2,3,1,1],[3,4,1,1],[4,5,1,1],[1,5,1,1],[0,3,1,1],[3,2,1,1],[2,1,1,1]],"switches":["v1","v2","v3","v4","v5","v6"]}},"op":"arm","plan_ns":622580,"priority":"high","schedule":{"entries":[[0,0,2],[0,1,0],[0,2,2],[0,3,4]]},"slack":{"budget_exhausted":false,"counterexample":{"schedule":{"entries":[[0,0,1],[0,1,1],[0,2,1],[0,3,3]]},"violation":{"emitted":[-1,-1],"flow":0,"kind":"forwarding_loop","switch":1,"time":2}},"per_switch":[[0,2],[1,1],[2,2],[3,3]],"schedules_checked":21,"slack_steps":1},"span_id":2,"tenant":"t"}"#;
        assert!(LEGACY_ARM_LINE.contains(r#""per_switch":[[0,2],[1,1],[2,2],[3,3]]"#));
        let path = scratch("legacy-slack");
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, format!("{LEGACY_ARM_LINE}\n")).unwrap();
        let replay = Journal::replay(&path).unwrap();
        assert_eq!(replay.corrupt_lines, 0);
        let record = replay.live.first().expect("the armed update is live");
        assert_eq!((record.id, record.dilation), (1, 2));
        assert_eq!(record.certificate.check(&record.instance), Ok(()));
        let slack = record.slack.as_ref().expect("slack certificate");
        assert_eq!((slack.slack_steps, slack.schedules_checked), (1, 21));
        assert!(slack.counterexample.is_some());
        assert_eq!(
            chronus_verify::check_slack(&record.instance, &record.schedule, slack),
            Ok(())
        );
        // Written back, the line is the legacy one minus the array.
        assert_eq!(
            Journal::encode_arm(record).unwrap(),
            LEGACY_ARM_LINE.replace(r#""per_switch":[[0,2],[1,1],[2,2],[3,3]],"#, "")
        );
    }
}
