//! Tentpole: the flight recorder under a kill-style failure, plus
//! live introspection over a real socket.
//!
//! The first test is the forensic path end to end: a daemon plans and
//! arms updates with the recorder on, "dies" (drop without drain), and
//! a second incarnation restarts so far past every armed window that
//! restore must roll everything back — which fires the
//! `restore-rollback` trigger and writes a dump. The dump must be
//! loadable Perfetto JSON that names the trigger, still contains the
//! first incarnation's `engine.plan` spans (rings are process-global
//! and keep an exited thread's events when a later thread adopts
//! them), and embeds a metrics snapshot whose SLO
//! latency histogram carries the rolled-back updates' span ids as
//! exemplars — the dump-to-journal join an operator pivots on. A
//! second forensic test checks that an engine-triggered dump carries
//! the engine's counters, its own request included.
//!
//! The live test drives `top` and `tail` over a Unix socket exactly
//! as `chronusctl` would. The last plans multi-flow updates under the
//! sharded stage, which starts short-lived threads for every request,
//! and checks the ring registry stops growing.

use chronus_clock::Nanos;
use chronus_daemon::{run_server, CtlClient, Daemon, DaemonConfig, Journal, Priority, UpdateState};
use chronus_net::motivating_example;
use chronus_trace::FlightRecorder;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Pinned wall-clock base for the first daemon incarnation (ns).
const BASE: Nanos = 1_000_000_000_000;
/// Far enough past `BASE` that every armed window has expired.
const LONG_OUTAGE: Nanos = BASE + 3_600_000_000_000;
const SETTLE: Duration = Duration::from_secs(20);

/// The recorder is process-global; the tests serialize on this.
static RECORDER_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    RECORDER_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chronusd-flight-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(snapshot_dir: &Path, base_epoch_ns: Nanos) -> DaemonConfig {
    DaemonConfig {
        snapshot_dir: snapshot_dir.to_path_buf(),
        base_epoch_ns: Some(base_epoch_ns),
        snapshot_interval_ms: 0,
        workers: 2,
        tenant_burst: 64.0,
        ..DaemonConfig::default()
    }
}

fn arm_batch(daemon: &Daemon, n: usize) -> Vec<u64> {
    let mut ids = Vec::new();
    for i in 0..n {
        let tenant = format!("tenant-{}", i % 2);
        let id = daemon
            .submit(
                &tenant,
                Priority::Normal,
                None,
                Arc::new(motivating_example()),
            )
            .unwrap_or_else(|shed| panic!("submission {i} shed: {shed}"));
        ids.push(id);
    }
    for &id in &ids {
        let status = daemon
            .watch(id, SETTLE)
            .unwrap_or_else(|| panic!("update {id} never settled"));
        assert_eq!(status.state, UpdateState::Armed, "update {id}: {status:?}");
    }
    ids
}

/// Kill-style: arm with the recorder on, crash, restart past every
/// deadline so restore rolls back — and audit the forensic dump the
/// rollback trigger writes.
#[test]
fn restore_rollback_writes_a_forensic_dump_that_joins_the_journal() {
    let _l = lock();
    let snapshot_dir = temp_dir("rollback-state");
    let flight_dir = temp_dir("rollback-flight");

    FlightRecorder::enable(4096);
    FlightRecorder::set_dump_dir(&flight_dir);
    FlightRecorder::set_min_dump_interval_ms(0);

    // First incarnation: plan and arm with the recorder running, then
    // die without draining — the journal and the rings survive.
    let daemon = Daemon::start(config(&snapshot_dir, BASE)).expect("first start");
    let ids = arm_batch(&daemon, 6);
    let journal_path = config(&snapshot_dir, BASE).journal_path();
    drop(daemon);

    // The journal remembers each armed update's plan-span id — the
    // key the dump's exemplars must join against.
    let replay = Journal::replay(&journal_path).expect("replay");
    assert_eq!(replay.live.len(), ids.len());
    let journaled_span_ids: Vec<u64> = replay.live.iter().map(|r| r.span_id).collect();
    assert!(
        journaled_span_ids.iter().all(|&s| s != 0),
        "plan spans must carry real ids while the recorder is on: {journaled_span_ids:?}"
    );

    // Second incarnation, an hour "later": every window is expired,
    // restore rolls everything back and fires the dump trigger.
    let daemon = Daemon::start(config(&snapshot_dir, LONG_OUTAGE)).expect("restart");
    let restore = daemon.restore_report().clone();
    assert_eq!(restore.rolled_back, ids.len() as u64, "{restore:?}");

    let dump_path = std::fs::read_dir(&flight_dir)
        .expect("flight dir exists after the trigger")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .map(|n| n.to_string_lossy().contains("restore-rollback"))
                .unwrap_or(false)
        })
        .expect("rollback dump written");
    let doc = std::fs::read_to_string(&dump_path).expect("read dump");
    let parsed: Value = serde_json::from_str(&doc).expect("dump is valid JSON");

    // Perfetto-loadable shell: traceEvents + displayTimeUnit.
    let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
    assert_eq!(parsed.get("displayTimeUnit").unwrap().as_str(), Some("ms"));

    // The dump names its trigger, both in meta and as a marked instant.
    let meta = parsed.get("chronusMeta").expect("chronusMeta");
    assert_eq!(
        meta.get("trigger").unwrap().as_str(),
        Some("restore-rollback")
    );
    let trigger = events
        .iter()
        .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("flightrec.trigger"))
        .expect("marked trigger instant");
    assert_eq!(
        trigger
            .get("args")
            .and_then(|a| a.get("reason"))
            .and_then(|r| r.as_str()),
        Some("restore-rollback")
    );

    // The rolled-back instance's planning spans are still in the dump:
    // the rings outlive the first incarnation's worker threads.
    let plan_spans: Vec<_> = events
        .iter()
        .filter(|e| {
            e.get("name").and_then(|n| n.as_str()) == Some("engine.plan")
                && e.get("ph").and_then(|p| p.as_str()) == Some("X")
        })
        .collect();
    assert!(
        !plan_spans.is_empty(),
        "first incarnation's engine.plan spans must survive into the dump"
    );

    // The embedded metrics snapshot carries the SLO latency histogram
    // with the journaled span ids as exemplars — rollback counted each
    // record as an SLO miss and stamped its plan span.
    let metrics = meta.get("metrics").expect("metrics embedded in the dump");
    let slo = metrics
        .get("histograms")
        .and_then(|h| h.get("chronus_daemon_slo_latency_ns"))
        .expect("SLO latency histogram in the dump");
    let exemplars: Vec<u64> = slo
        .get("exemplars")
        .and_then(|e| e.as_array())
        .expect("exemplars recorded")
        .iter()
        .filter_map(|v| v.as_u64_exact())
        .filter(|&v| v != 0)
        .collect();
    assert!(
        exemplars.iter().any(|e| journaled_span_ids.contains(e)),
        "dump exemplars {exemplars:?} must join the journaled span ids {journaled_span_ids:?}"
    );

    daemon.shutdown();
    FlightRecorder::disable();
    let _ = std::fs::remove_dir_all(snapshot_dir);
    let _ = std::fs::remove_dir_all(flight_dir);
}

/// A spent deadline degrades the request to two-phase and fires the
/// `deadline-expired` trigger. The dump embeds the one registry the
/// daemon and its engine share, taken after the request was counted.
#[test]
fn deadline_dump_embeds_the_engine_counters_of_its_own_request() {
    let _l = lock();
    let snapshot_dir = temp_dir("deadline-state");
    let flight_dir = temp_dir("deadline-flight");
    FlightRecorder::enable(4096);
    FlightRecorder::set_dump_dir(&flight_dir);
    FlightRecorder::set_min_dump_interval_ms(0);

    let daemon = Daemon::start(config(&snapshot_dir, BASE)).expect("daemon start");
    let id = daemon
        .submit(
            "tenant",
            Priority::Normal,
            Some(Duration::ZERO),
            Arc::new(motivating_example()),
        )
        .expect("admitted");
    let status = daemon.watch(id, SETTLE).expect("settles");
    assert!(status.state.is_settled(), "{status:?}");

    let dump_path = std::fs::read_dir(&flight_dir)
        .expect("flight dir exists after the trigger")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.to_string_lossy().contains("deadline-expired"))
        .expect("deadline dump written");
    let doc = std::fs::read_to_string(&dump_path).expect("read dump");
    let parsed: Value = serde_json::from_str(&doc).expect("dump is valid JSON");
    let counters = parsed
        .get("chronusMeta")
        .and_then(|m| m.get("metrics"))
        .and_then(|m| m.get("counters"))
        .expect("metrics counters embedded in the dump");
    for name in [
        "chronus_engine_deadline_timeouts_total",
        "chronus_engine_requests_completed_total",
    ] {
        assert_eq!(
            counters.get(name).and_then(Value::as_u64_exact),
            Some(1),
            "{name} in {counters:?}"
        );
    }

    drop(daemon);
    FlightRecorder::disable();
    let _ = std::fs::remove_dir_all(snapshot_dir);
    let _ = std::fs::remove_dir_all(flight_dir);
}

fn connect(socket: &Path) -> CtlClient {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match CtlClient::connect(socket) {
            Ok(client) => return client,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("connect {}: {e}", socket.display()),
        }
    }
}

/// `top` and `tail` live over a real Unix socket: top reports queues,
/// SLO burn and recorder state; tail replays `engine.plan`
/// events from the ring; dump writes an operator-initiated file.
#[test]
fn top_and_tail_are_live_over_the_socket() {
    let _l = lock();
    let state = temp_dir("live-state");
    let flight_dir = temp_dir("live-flight");
    let socket = temp_dir("live-sock").join("chronusd.sock");

    FlightRecorder::enable(4096);
    FlightRecorder::set_dump_dir(&flight_dir);
    FlightRecorder::set_min_dump_interval_ms(0);

    let config = DaemonConfig {
        socket: socket.clone(),
        snapshot_dir: state.clone(),
        snapshot_interval_ms: 0,
        workers: 2,
        tenant_burst: 64.0,
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start(config).expect("daemon start");
    let server = std::thread::Builder::new()
        .name("flight-server".to_string())
        .spawn(move || run_server(daemon))
        .expect("spawn server");

    let mut client = connect(&socket);
    let instance = motivating_example();
    let mut ids = Vec::new();
    for i in 0..8usize {
        let tenant = format!("tenant-{}", i % 2);
        let id = client
            .submit(&tenant, Priority::Normal, Some(10_000), &instance)
            .unwrap_or_else(|e| panic!("submit {i}: {e}"));
        ids.push(id);
    }
    for &id in &ids {
        let status = client.watch(id, 30_000).expect("watch");
        assert_eq!(
            status.get("state").and_then(Value::as_str),
            Some("armed"),
            "{status:?}"
        );
    }

    // top: one JSON object with the live operational surface.
    let top = client.top().expect("top");
    assert_eq!(top.get("state").and_then(Value::as_str), Some("running"));
    for key in ["queues", "tenants", "updates", "slo", "flight"] {
        assert!(top.get(key).is_some(), "top missing `{key}`: {top:?}");
    }
    assert!(top.get("cache").is_none(), "{top:?}");
    assert_eq!(
        top.get("armed").and_then(Value::as_u64_exact),
        Some(ids.len() as u64)
    );
    let flight = top.get("flight").unwrap();
    assert_eq!(flight.get("on"), Some(&Value::Bool(true)));
    // Both tenants carry live burn-rate gauges after planning.
    let slo = top.get("slo").unwrap().as_object().expect("slo object");
    for tenant in ["tenant-0", "tenant-1"] {
        let entry = slo.get(tenant).unwrap_or_else(|| panic!("slo[{tenant}]"));
        assert!(entry.get("burn_5m").is_some() && entry.get("burn_1h").is_some());
    }

    // tail (one-shot): replays ring history; the filter narrows it to
    // the planning spans the submissions just recorded.
    let mut names = Vec::new();
    let received = client
        .tail(Some("engine.plan"), 64, false, |event| {
            if let Some(name) = event.get("name").and_then(Value::as_str) {
                names.push(name.to_string());
            }
        })
        .expect("tail");
    assert!(received > 0, "tail must replay the plan spans");
    assert_eq!(received as usize, names.len());
    assert!(
        names.iter().all(|n| n.starts_with("engine.plan")),
        "filter must hold: {names:?}"
    );

    // dump: operator-initiated forensic file over the wire.
    let dump_path = client.dump().expect("dump");
    assert!(
        Path::new(&dump_path).exists(),
        "dump path {dump_path} must exist"
    );
    assert!(dump_path.contains("ctl-dump"));

    client.drain().expect("drain");
    server.join().expect("server thread").expect("server exit");
    FlightRecorder::disable();
    let _ = std::fs::remove_dir_all(state);
    let _ = std::fs::remove_dir_all(flight_dir);
}

/// A k = 4 fat tree with one pod-local migration per pod: the sharded
/// stage plans it as one shard per pod.
fn pod_local_update() -> chronus_net::UpdateInstance {
    use chronus_net::topology::{fat_tree, LinkParams};
    use chronus_net::{Flow, FlowId, Path, UpdateInstance};
    let net = fat_tree(
        4,
        LinkParams {
            capacity: 1000,
            delay: 1,
        },
    );
    let named = |name: String| {
        net.switches()
            .find(|&s| net.switch_name(s) == Some(name.as_str()))
            .expect("fat-tree switch")
    };
    let flows = (0..4u32)
        .map(|pod| {
            let (e0, e1) = (
                named(format!("edge{}", 2 * pod)),
                named(format!("edge{}", 2 * pod + 1)),
            );
            let (a0, a1) = (
                named(format!("agg{}", 2 * pod)),
                named(format!("agg{}", 2 * pod + 1)),
            );
            Flow::new(
                FlowId(pod),
                100,
                Path::new(vec![e0, a0, e1]),
                Path::new(vec![e0, a1, e1]),
            )
            .expect("pod-local paths")
        })
        .collect();
    UpdateInstance::new(net, flows).expect("pod-local instance")
}

/// The sharded stage plans the shards on one lane per core; every lane
/// but the first is a short-lived thread that records spans (so this
/// test needs a second core to exercise anything). Their rings must be
/// handed on to later threads, not kept one per thread ever spawned:
/// after warm-up the registry holds as many rings as threads were ever
/// alive at once.
#[test]
fn sharded_planning_does_not_grow_the_ring_registry() {
    let _l = lock();
    FlightRecorder::enable(4096);
    let config = DaemonConfig {
        engine_shards: 8,
        tenant_burst: 256.0,
        ..config(&temp_dir("shard-state"), BASE)
    };
    let daemon = Daemon::start(config).expect("daemon start");
    let instance = Arc::new(pod_local_update());
    let mut rings_after = Vec::new();
    for i in 0..200 {
        let id = daemon
            .submit("tenant", Priority::Normal, None, Arc::clone(&instance))
            .unwrap_or_else(|shed| panic!("submission {i} shed: {shed}"));
        let status = daemon.watch(id, SETTLE).expect("settles");
        assert_eq!(status.state, UpdateState::Armed, "update {id}: {status:?}");
        assert!(status.detail.contains("sharded"), "{status:?}");
        daemon.confirm(id).expect("confirm");
        rings_after.push(FlightRecorder::snapshot().rings.len());
    }
    // A shard thread's ring is released by its TLS destructor, which
    // may still be running when the next round of shards starts, so a
    // late straggler can add a ring; leaking adds one per spawned lane
    // per update, hundreds by the end.
    let (tenth, last) = (rings_after[9], rings_after[199]);
    assert!(
        last <= tenth + 4,
        "ring registry grew from {tenth} (10 updates) to {last} (200 updates): {rings_after:?}"
    );
    drop(daemon);
    FlightRecorder::disable();
}
