//! Output verification: the crash phase and its journal audit, and the
//! in-process quality pass that re-plans the whole pool under the daemon's
//! engine configuration and certifies every schedule it would ship.

use crate::child::{Conn, Daemon};
use crate::workloads::{Pool, CRASH_CYCLES, CRASH_MAX_CYCLES, CRASH_MIN_TIME};
use chronus_daemon::{DaemonConfig, Journal};
use chronus_engine::Engine;
use chronus_verify::{certify, check_slack};
use serde_json::Value;
use std::io;
use std::time::Instant;

/// The configuration `chronusd` builds from the production command line, for
/// the in-process passes (`engine()` and `admission()` derive from it).
pub fn production_config() -> DaemonConfig {
    let mut config = DaemonConfig::default();
    let args = crate::child::command_line("unused.sock".as_ref(), "unused-state".as_ref());
    for pair in args.chunks(2) {
        let key = pair[0].trim_start_matches("--").replace('-', "_");
        config
            .apply_flag(&key, &pair[1])
            .expect("chronusd accepts the production flags");
    }
    config
}

/// What the crash phase found.
#[derive(Debug, Default)]
pub struct CrashReport {
    /// SIGKILL → first pong, one entry per cycle, in milliseconds.
    pub restart_ms: Vec<f64>,
    /// Armed ids that did not come back `armed` after the last restart.
    pub not_rearmed: u64,
    /// Everything that was not as it must be; empty when the audit passes.
    pub problems: Vec<String>,
}

/// Kills and restarts the daemon [`CRASH_CYCLES`] times or more with `armed` updates
/// live in its journal, then audits what survived: every id reports `armed`,
/// the restore line counts them all as re-armed with nothing rolled back,
/// lost or corrupt, and the journal file replays to the same records with
/// certificates and slack certificates that still check.
pub fn crash_phase(daemon: &mut Daemon, armed: &[u64]) -> io::Result<CrashReport> {
    let mut report = CrashReport::default();
    // Compact first: the journal then holds exactly the live records, so a
    // restart replays the same file whatever the snapshotter's phase was.
    Conn::connect(daemon.socket())?.call_ok("{\"cmd\":\"snapshot\"}\n")?;
    // At least CRASH_CYCLES restarts, and at least a second of them where
    // they are quick: a host hiccup of 100 ms must not be half the sample.
    let started = Instant::now();
    while report.restart_ms.len() < CRASH_CYCLES
        || (started.elapsed() < CRASH_MIN_TIME && report.restart_ms.len() < CRASH_MAX_CYCLES)
    {
        report
            .restart_ms
            .push(daemon.kill_and_restart()?.as_secs_f64() * 1e3);
    }

    let mut conn = Conn::connect(daemon.socket())?;
    for &id in armed {
        let reply = conn.call(&format!("{{\"cmd\":\"status\",\"id\":{id}}}\n"))?;
        let state = reply
            .get("status")
            .and_then(|s| s.get("state"))
            .and_then(Value::as_str);
        if state != Some("armed") {
            report.not_rearmed += 1;
            report
                .problems
                .push(format!("update {id} is {state:?} after restart, not armed"));
        }
    }

    let n = armed.len();
    let expected = format!(
        "restored {n} armed update(s): {n} re-armed, 0 rolled back, 0 lost, 0 corrupt journal line(s)"
    );
    match daemon.restore_line() {
        Some(line) if line.ends_with(&expected) => {}
        other => report
            .problems
            .push(format!("restore line {other:?}, expected `{expected}`")),
    }

    let replay = Journal::replay(&daemon.journal_path())?;
    if replay.live.len() != n || replay.corrupt_lines != 0 {
        report.problems.push(format!(
            "journal replays to {} live record(s) and {} corrupt line(s), expected {n} and 0",
            replay.live.len(),
            replay.corrupt_lines
        ));
    }
    for record in &replay.live {
        if let Err(e) = record.certificate.check(&record.instance) {
            report.problems.push(format!(
                "journaled certificate of update {}: {e}",
                record.id
            ));
        }
        match &record.slack {
            Some(slack) => {
                if let Err(v) = check_slack(&record.instance, &record.schedule, slack) {
                    report
                        .problems
                        .push(format!("journaled slack of update {}: {v}", record.id));
                }
            }
            None => report
                .problems
                .push(format!("update {} was journaled without slack", record.id)),
        }
    }
    report.problems.truncate(10);
    Ok(report)
}

/// Plan quality over a workload's pool.
#[derive(Debug, Default)]
pub struct Quality {
    /// Instances the engine settled by two-phase or without a certificate.
    pub fallbacks: u64,
    /// Mean shipped (dilated) makespan over the timed, certified plans.
    pub makespan_mean_steps: f64,
    /// Mean certified slack over the same plans.
    pub slack_mean_steps: f64,
    /// Mean width of the certified firing window over the same plans: a
    /// slack certificate of `k` steps covers every displacement in
    /// `{-(k-1), …, +k}`, so `2k` steps, and `k = 0` exact firing only, so 1.
    pub fire_window_mean_steps: f64,
    /// Schedules the independent certifier refused; must stay empty.
    pub problems: Vec<String>,
}

/// Plans every instance of `pool` with `Engine::new(config.engine())`, as
/// the daemon would, and certifies each shipped schedule again with
/// `verify::certify`. The daemon does not put schedules on the wire, so this
/// is where makespan and slack come from.
pub fn quality_pass(pool: &Pool) -> Quality {
    let engine = Engine::new(production_config().engine());
    let plans = engine.plan_instances(pool.instances.clone());
    let mut quality = Quality::default();
    let (mut makespan, mut slack, mut window, mut timed) = (0i64, 0i64, 0i64, 0u64);
    for (instance, plan) in pool.instances.iter().zip(&plans) {
        let (Ok(schedule), Some(_)) = (plan.timed_schedule(), &plan.certificate) else {
            quality.fallbacks += 1;
            continue;
        };
        if let Err(violation) = certify(instance, schedule) {
            quality.problems.push(format!(
                "shipped schedule of request {}: {violation}",
                plan.id.0
            ));
        }
        timed += 1;
        makespan += schedule.makespan().unwrap_or(0);
        let steps = plan.slack.as_ref().map_or(0, |s| s.slack_steps);
        slack += steps;
        window += (2 * steps).max(1);
    }
    if timed > 0 {
        quality.makespan_mean_steps = makespan as f64 / timed as f64;
        quality.slack_mean_steps = slack as f64 / timed as f64;
        quality.fire_window_mean_steps = window as f64 / timed as f64;
    }
    quality.problems.truncate(10);
    quality
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_flags_reach_the_engine_config() {
        let config = production_config();
        assert_eq!(config.workers, 2);
        assert_eq!(config.queue_bound, 64);
        assert_eq!(config.tenant_rate, 100_000.0);
        assert_eq!(
            config.base_epoch_ns,
            Some(crate::child::BASE_EPOCH_NS.into())
        );
        let engine = config.engine();
        assert!(engine.verify.enabled, "certification stays on");
        assert!(engine.slack.is_some(), "slack stays on");
        assert_eq!(engine.sharding.map(|s| s.shards), Some(8));
    }
}
