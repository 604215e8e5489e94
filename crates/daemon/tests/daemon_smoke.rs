//! Satellite: end-to-end smoke over a real Unix socket.
//!
//! Boots the full IPC server on a temp socket, drives it with the
//! [`CtlClient`] exactly as `chronusctl` would — 50 mixed-priority
//! submissions, a deliberately rate-limited tenant, watches, a
//! snapshot, a Prometheus scrape — then drains and asserts a clean
//! exit with the socket file removed. A second test pins the scrape's
//! metric names, each to the reader that needs it.

use chronus_daemon::{run_server, CtlClient, Daemon, DaemonConfig, Priority, UpdateState};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chronusd-smoke-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Connects with retries while the server thread binds the socket.
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

#[test]
fn fifty_submissions_scrape_and_drain_cleanly() {
    let state = temp_dir("state");
    let socket = temp_dir("sock").join("chronusd.sock");
    let mut config = DaemonConfig {
        socket: socket.clone(),
        snapshot_dir: state.clone(),
        workers: 2,
        queue_bound: 128,
        tenant_burst: 64.0,
        ..DaemonConfig::default()
    };
    // One tenant is throttled to (effectively) a single request so the
    // shed path is exercised over the wire too.
    config
        .tenant_overrides
        .insert("greedy".to_string(), (1e-6, 1.0));

    let daemon = Daemon::start(config).expect("daemon start");
    let server = std::thread::Builder::new()
        .name("smoke-server".to_string())
        .spawn(move || run_server(daemon))
        .expect("spawn server");

    let mut client = connect(&socket);
    client.ping().expect("ping");

    // 50 mixed-priority submissions across four tenants.
    let priorities = [Priority::High, Priority::Normal, Priority::Low];
    let instance = chronus_net::motivating_example();
    let mut ids = Vec::new();
    for i in 0..50usize {
        let tenant = format!("tenant-{}", i % 4);
        let id = client
            .submit(&tenant, priorities[i % 3], Some(10_000), &instance)
            .unwrap_or_else(|e| panic!("submit {i}: {e}"));
        ids.push(id);
    }
    assert_eq!(ids.len(), 50);

    // The throttled tenant gets one request through, then a shed with
    // the `shed` marker and a retry hint rather than a hard error.
    client
        .submit("greedy", Priority::Normal, None, &instance)
        .expect("greedy's first request fits its burst");
    let mut shed_req = serde_json::Map::new();
    shed_req.insert("cmd".to_string(), Value::from("submit"));
    shed_req.insert("tenant".to_string(), Value::from("greedy"));
    shed_req.insert(
        "instance".to_string(),
        chronus_net::codec::instance_to_value(&instance),
    );
    let shed = client
        .call(&Value::Object(shed_req))
        .expect("shed response still arrives");
    assert_eq!(shed.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(shed.get("shed"), Some(&Value::Bool(true)), "shed: {shed:?}");

    // Every accepted update settles (armed, completed, or failed —
    // but settled, with the motivating example they certify and arm).
    for &id in &ids {
        let status = client
            .watch(id, 30_000)
            .unwrap_or_else(|e| panic!("watch {id}: {e}"));
        let state = status.get("state").and_then(Value::as_str).unwrap_or("?");
        assert_eq!(state, "armed", "update {id}: {status:?}");
    }

    // A snapshot reports the armed set.
    let live = client.snapshot().expect("snapshot");
    assert_eq!(live, 51, "50 batch + 1 greedy armed records");

    // The scrape speaks well-formed Prometheus text with the daemon's
    // own scoped series present and consistent.
    let text = client.metrics_text().expect("metrics");
    for series in [
        "# TYPE chronus_daemon_submitted_total counter",
        "# TYPE chronus_daemon_admitted_total counter",
        "# TYPE chronus_daemon_shed_rate_limited_total counter",
        "# TYPE chronus_daemon_queue_wait_ns histogram",
        "# TYPE chronus_engine_requests_completed_total counter",
    ] {
        assert!(text.contains(series), "scrape missing `{series}`:\n{text}");
    }
    let sample = |name: &str| -> f64 {
        text.lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .unwrap_or_else(|| panic!("no sample for {name}"))
            .parse()
            .expect("numeric sample")
    };
    assert_eq!(sample("chronus_daemon_submitted_total"), 52.0);
    assert_eq!(sample("chronus_daemon_admitted_total"), 51.0);
    assert_eq!(sample("chronus_daemon_shed_rate_limited_total"), 1.0);
    assert_eq!(sample("chronus_daemon_armed_total"), 51.0);
    assert_eq!(sample("chronus_daemon_planned_total"), 51.0);
    assert_eq!(sample("chronus_daemon_completed_total"), 0.0);
    assert_eq!(sample("chronus_daemon_journal_live"), 51.0);
    assert!(sample("chronus_daemon_connections_total") >= 1.0);
    for class in ["high", "normal", "low"] {
        assert_eq!(sample(&format!("chronus_daemon_queue_depth_{class}")), 0.0);
    }
    for window in ["5m", "1h"] {
        let burn = format!("chronus_daemon_slo_burn_{window}_x1000_tenant_0");
        assert!(sample(&burn) >= 0.0);
    }

    // Aggregate status view.
    let all = client.status_all().expect("status all");
    let counts = all.get("counts").cloned().unwrap_or(Value::Null);
    assert_eq!(
        counts.get("armed").and_then(Value::as_u64_exact),
        Some(51),
        "counts: {counts:?}"
    );

    // Drain: daemon acknowledges, finishes, removes its socket, and
    // the server thread returns a clean report.
    client.drain().expect("drain");
    let report = server
        .join()
        .expect("server thread")
        .expect("server result");
    assert_eq!(report.armed_remaining, 51);
    assert_eq!(report.snapshot_live, 51);
    assert!(!socket.exists(), "socket file must be removed on exit");

    let _ = std::fs::remove_dir_all(state);
    if let Some(dir) = socket.parent() {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Every metric family a scrape carries, in scrape order, each with the
/// reader that needs it. Per-tenant SLO burn gauges appear once per
/// window, without their tenant suffix. The list is sorted, so the
/// daemon block renders before the engine block.
const FAMILIES: &[&str] = &[
    "chronus_daemon_admitted_total",              // CI daemon-smoke step
    "chronus_daemon_armed_total",                 // fifty_submissions_scrape_and_drain_cleanly
    "chronus_daemon_completed_total",             // fifty_submissions_scrape_and_drain_cleanly
    "chronus_daemon_confirmed_total", // armed_schedules_survive_a_crash_and_rearm_within_slack
    "chronus_daemon_connections_total", // fifty_submissions_scrape_and_drain_cleanly
    "chronus_daemon_failed_total",    // operator alert: failure
    "chronus_daemon_flight_dropped",  // benchmark/
    "chronus_daemon_flight_dumps",    // benchmark/
    "chronus_daemon_flight_suppressed", // operator alert: loss
    "chronus_daemon_journal_corrupt_lines_total", // operator alert: loss
    "chronus_daemon_journal_live",    // armed_schedules_survive_a_crash_and_rearm_within_slack
    "chronus_daemon_plan_ns",         // benchmark/, top
    "chronus_daemon_planned_total",   // fifty_submissions_scrape_and_drain_cleanly
    "chronus_daemon_proto_errors_total", // overlong_line_is_refused_and_fabric_sized_lines_still_arm
    "chronus_daemon_queue_depth_high",   // fifty_submissions_scrape_and_drain_cleanly
    "chronus_daemon_queue_depth_low",    // fifty_submissions_scrape_and_drain_cleanly
    "chronus_daemon_queue_depth_normal", // fifty_submissions_scrape_and_drain_cleanly
    "chronus_daemon_queue_peak",         // benchmark/
    "chronus_daemon_queue_wait_ns",      // benchmark/
    "chronus_daemon_requests_total",     // benchmark/
    "chronus_daemon_restore_rearmed_total", // armed_schedules_survive_a_crash_and_rearm_within_slack
    "chronus_daemon_restore_rolled_back_total", // operator alert: failure
    "chronus_daemon_shed_draining_total",   // operator alert: loss
    "chronus_daemon_shed_queue_full_total", // benchmark/
    "chronus_daemon_shed_rate_limited_total", // benchmark/
    "chronus_daemon_slo_bad_total",         // operator alert: failure
    "chronus_daemon_slo_burn_1h_x1000_",    // fifty_submissions_scrape_and_drain_cleanly
    "chronus_daemon_slo_burn_5m_x1000_",    // CI daemon-smoke step
    "chronus_daemon_slo_latency_ns", // restore_rollback_writes_a_forensic_dump_that_joins_the_journal
    "chronus_daemon_snapshots_total", // benchmark/
    "chronus_daemon_submit_to_settle_ns", // benchmark/
    "chronus_daemon_submitted_total", // fifty_submissions_scrape_and_drain_cleanly
    "chronus_daemon_tail_shed_total", // operator alert: loss
    "chronus_engine_certs_failed_total", // benchmark/
    "chronus_engine_certs_issued_total", // plans_a_batch_in_submission_order
    "chronus_engine_certs_skipped_total", // disabled_verification_skips_certificates
    "chronus_engine_deadline_timeouts_total", // benchmark/
    "chronus_engine_greedy_arena_bytes", // workspaces_are_reused_by_single_plans_and_batches
    "chronus_engine_greedy_failures_total", // stage_bookkeeping_and_rates
    "chronus_engine_greedy_skips_total", // stage_bookkeeping_and_rates
    "chronus_engine_greedy_stage_ns", // benchmark/
    "chronus_engine_greedy_wins_total", // benchmark/
    "chronus_engine_requests_completed_total", // benchmark/
    "chronus_engine_shard_conflicts_total", // shard_counters_roll_up_and_render_conditionally
    "chronus_engine_shard_cross_links", // shard_counters_roll_up_and_render_conditionally
    "chronus_engine_shard_joint_fallbacks_total", // shard_counters_roll_up_and_render_conditionally
    "chronus_engine_shard_replan_rounds_total", // shard_counters_roll_up_and_render_conditionally
    "chronus_engine_shard_shards_planned_total", // shard_counters_roll_up_and_render_conditionally
    "chronus_engine_shard_shared_links", // shard_counters_roll_up_and_render_conditionally
    "chronus_engine_sharded_failures_total", // stage_bookkeeping_and_rates
    "chronus_engine_sharded_skips_total", // stage_bookkeeping_and_rates
    "chronus_engine_sharded_stage_ns", // stage_bookkeeping_and_rates
    "chronus_engine_sharded_wins_total", // benchmark/
    "chronus_engine_slack_certified_total", // benchmark/
    "chronus_engine_slack_dilated_total", // slack_stage_ships_the_pinned_plans
    "chronus_engine_slack_schedules_checked_total", // slack_stage_ships_the_pinned_plans
    "chronus_engine_slack_stage_ns", // benchmark/
    "chronus_engine_slack_steps",    // slack_policy_dilates_plans_to_the_target
    "chronus_engine_slack_target_missed_total", // benchmark/
    "chronus_engine_slack_uncertifiable_total", // operator alert: failure
    "chronus_engine_tree_failures_total", // stage_bookkeeping_and_rates
    "chronus_engine_tree_skips_total", // stage_bookkeeping_and_rates
    "chronus_engine_tree_stage_ns",  // stage_bookkeeping_and_rates
    "chronus_engine_tree_wins_total", // benchmark/
    "chronus_engine_two_phase_failures_total", // stage_bookkeeping_and_rates
    "chronus_engine_two_phase_skips_total", // stage_bookkeeping_and_rates
    "chronus_engine_two_phase_stage_ns", // stage_bookkeeping_and_rates
    "chronus_engine_two_phase_wins_total", // benchmark/
];

/// Adding a metric family, or removing one, must edit [`FAMILIES`] and
/// name who reads it.
#[test]
fn scrape_families_are_the_pinned_list() {
    let state = temp_dir("families");
    let daemon = Daemon::start(DaemonConfig {
        snapshot_dir: state.clone(),
        workers: 1,
        ..DaemonConfig::default()
    })
    .expect("daemon start");
    let id = daemon
        .submit(
            "tenant",
            Priority::Normal,
            None,
            Arc::new(chronus_net::motivating_example()),
        )
        .expect("admitted");
    let status = daemon.watch(id, Duration::from_secs(30)).expect("known");
    assert_eq!(status.state, UpdateState::Armed, "{status:?}");

    let text = daemon.metrics_text();
    let scraped: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split(' ').next())
        .map(|name| match name.strip_suffix("tenant") {
            Some(burn) if burn.starts_with("chronus_daemon_slo_burn_") => burn,
            _ => name,
        })
        .collect();
    assert_eq!(scraped, FAMILIES, "scrape families changed:\n{text}");
    assert!(FAMILIES.windows(2).all(|w| w[0] < w[1]), "list is sorted");

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(state);
}
