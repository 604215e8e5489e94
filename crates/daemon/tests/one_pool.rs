//! One queue, one pool: the daemon's workers plan what they pop, and
//! the resident engine adds no threads below them.

use chronus_daemon::{Daemon, DaemonConfig, Priority};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn workers_plan_every_queued_submit_without_an_engine_pool() {
    let dir = std::env::temp_dir().join(format!("chronusd-one-pool-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let daemon = Daemon::start(DaemonConfig {
        snapshot_dir: dir.clone(),
        workers: 2,
        queue_bound: 64,
        tenant_rate: 1e9,
        tenant_burst: 1e9,
        ..DaemonConfig::default()
    })
    .expect("daemon start");

    let instance = Arc::new(chronus_net::motivating_example());
    // The burst outruns two workers and fits the queue: most of the
    // 64 are still waiting when the daemon is told to shut down.
    let ids: Vec<u64> = (0..64)
        .map(|_| {
            daemon
                .submit("t", Priority::Normal, None, Arc::clone(&instance))
                .expect("admitted")
        })
        .collect();

    // Once the first update has settled, whichever thread planned it
    // has run and named itself (a spawned thread carries its parent's
    // `comm` until it starts).
    #[cfg(target_os = "linux")]
    {
        daemon
            .watch(ids[0], Duration::from_secs(30))
            .expect("first update known");
        let names: Vec<String> = std::fs::read_dir("/proc/self/task")
            .expect("/proc/self/task")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .collect();
        assert!(
            names.iter().any(|n| n.starts_with("chronusd-worker")),
            "{names:?}"
        );
        assert!(
            !names.iter().any(|n| n.starts_with("chronus-engine")),
            "{names:?}"
        );
    }

    // Shutdown drains: the workers plan what is still queued.
    let report = daemon.shutdown();
    assert_eq!(report.engine_planned, 64);
    for id in ids {
        let status = daemon.watch(id, Duration::ZERO).expect("status kept");
        assert!(
            matches!(status.state.as_str(), "armed" | "completed"),
            "update {id}: {:?}",
            status.to_value()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
