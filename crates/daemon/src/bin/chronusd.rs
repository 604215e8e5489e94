//! `chronusd` — the long-running Chronus update-service daemon.
//!
//! ```text
//! chronusd [--config FILE] [--socket PATH] [--workers N]
//!          [--snapshot-dir DIR] [--snapshot-interval-ms MS]
//!          [--queue-bound N] [--tenant-rate R] [--tenant-burst B]
//!          [--step-ns NS] [--base-epoch-ns NS]
//! ```
//!
//! A `--config` JSON file is applied first; individual flags override
//! it. The daemon restores armed schedules from its journal, serves
//! line-JSON IPC on the socket until a client sends `drain`, then
//! drains gracefully and prints the shutdown report.
//!
//! The flight recorder is always on: every thread records spans and
//! instants into fixed-memory rings, and a forensic dump (Perfetto-
//! loadable JSON under `--flight-dir`, default `SNAPSHOT_DIR/flight`)
//! is written on cert refusals, deadline expiries, rollbacks, shed
//! storms, SLO burn-rate crossings, panics, SIGUSR1 and
//! `chronusctl dump`.

#![forbid(unsafe_code)]

use chronus_daemon::signal;
use chronus_daemon::{run_server, Daemon, DaemonConfig};
use chronus_trace::FlightRecorder;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn parse_args(args: &[String]) -> Result<DaemonConfig, String> {
    let mut config = DaemonConfig::default();
    // First pass: the config file layer.
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--config" {
            let path = args
                .get(i + 1)
                .ok_or_else(|| "--config needs a path".to_string())?;
            config = DaemonConfig::from_file(Path::new(path))?;
        }
        i += 1;
    }
    // Second pass: flag overrides.
    let mut i = 0;
    while i < args.len() {
        let flag = &args[i];
        let Some(key) = flag.strip_prefix("--") else {
            return Err(format!("unexpected argument `{flag}`"));
        };
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        if key != "config" {
            config.apply_flag(&key.replace('-', "_"), value)?;
        }
        i += 2;
    }
    Ok(config)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "chronusd — Chronus update-service daemon\n\n\
             flags: --config FILE --socket PATH --workers N --queue-bound N\n\
             \x20      --tenant-rate R --tenant-burst B --snapshot-dir DIR\n\
             \x20      --snapshot-interval-ms MS --step-ns NS --rearm-margin-ns NS\n\
             \x20      --base-epoch-ns NS --default-deadline-ms MS --engine-shards N\n\
             \x20      --flight-dir DIR --ring-slots N --slo-latency-ms MS\n\
             \x20      --slo-availability F --slo-burn-threshold X"
        );
        return ExitCode::SUCCESS;
    }
    let config = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("chronusd: {e}");
            return ExitCode::FAILURE;
        }
    };
    let socket = config.socket.clone();

    // Arm the flight recorder before the daemon boots so the restore
    // pass (and any rollback dump it triggers) is already recording.
    FlightRecorder::enable(config.ring_slots);
    FlightRecorder::set_dump_dir(config.flight_path());
    FlightRecorder::install_panic_hook();
    let sigusr1 = signal::install_sigusr1();

    let daemon = match Daemon::start(config) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("chronusd: {e}");
            return ExitCode::FAILURE;
        }
    };

    // SIGUSR1 → forensic dump, from a poller thread (the handler only
    // flips a flag; nothing signal-unsafe runs in signal context).
    let poller_stop = Arc::new(AtomicBool::new(false));
    let poller = {
        let stop = Arc::clone(&poller_stop);
        std::thread::Builder::new()
            .name("chronusd-sigusr1".to_string())
            .spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    if signal::take_dump_request() {
                        match FlightRecorder::force_dump("sigusr1") {
                            Ok(path) => eprintln!("chronusd: dump written to {}", path.display()),
                            Err(e) => eprintln!("chronusd: dump failed: {e}"),
                        }
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
            })
            .ok()
    };
    if !sigusr1 {
        eprintln!("chronusd: SIGUSR1 handler unavailable; use `chronusctl dump`");
    }
    let restore = daemon.restore_report().clone();
    println!(
        "chronusd: restored {} armed update(s): {} re-armed, {} rolled back, \
         {} lost, {} corrupt journal line(s)",
        restore.live_found,
        restore.rearmed,
        restore.rolled_back,
        restore.lost,
        restore.corrupt_lines
    );
    println!("chronusd: serving on {}", socket.display());
    let outcome = run_server(daemon);
    poller_stop.store(true, Ordering::Release);
    if let Some(handle) = poller {
        let _ = handle.join();
    }
    match outcome {
        Ok(report) => {
            println!(
                "chronusd: drained — {} planned by the engine, \
                 {} armed update(s) persisted, snapshot wrote {} record(s)",
                report.engine_planned, report.armed_remaining, report.snapshot_live
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("chronusd: server error: {e}");
            ExitCode::FAILURE
        }
    }
}
