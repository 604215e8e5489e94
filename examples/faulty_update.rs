//! Fault-tolerance round trip: certify a timed plan's slack, deploy it
//! over a faulty control plane (message loss plus a switch reboot that
//! wipes armed triggers), recover through reliable delivery, then
//! check the certificate against what actually happened — and export
//! the traced timeline.
//!
//! ```text
//! cargo run --example faulty_update [out_dir]
//! ```
//!
//! Produces, in `out_dir` (default `.`):
//!
//! - `trace.json` — Chrome trace-event JSON with the planning spans
//!   (`core.greedy`, `verify.slack`) and the emulation span
//!   (`emu.run`). Load it in Perfetto (<https://ui.perfetto.dev>).
//! - `fault_metrics.prom` — Prometheus text exposition of the fault
//!   layer's counters (drops, retransmits, re-arms, rollbacks, ...).

use chronus::core::greedy::greedy_schedule;
use chronus::emu::{EmuConfig, Emulator, UpdateDriver};
use chronus::faults::{FaultPlan, ReliableConfig};
use chronus::net::{motivating_example, SwitchId};
use chronus::trace::{FlightRecorder, MetricsRegistry, TimelineExporter};
use chronus::verify::{check_slack, slack_certificate};
use std::path::PathBuf;

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .map_or_else(|| PathBuf::from("."), PathBuf::from);
    std::fs::create_dir_all(&out_dir).expect("create output directory");

    // Record every span of the run: the ring holds it without
    // overwriting (checked before the timeline is written).
    FlightRecorder::enable(4096);

    // 1. Plan: the greedy packing is tight (zero certified slack), so
    //    dilate it ×2 and certify the tolerance the deployment gets to
    //    spend on faults.
    let instance = motivating_example();
    let schedule = greedy_schedule(&instance)
        .expect("the motivating example is greedy-schedulable")
        .schedule
        .dilated(2);
    let (_, cert) =
        slack_certificate(&instance, &schedule).expect("the dilated schedule certifies");
    let config = EmuConfig {
        run_for: 8_000_000_000,
        update_at: 2_000_000_000,
        ..EmuConfig::default()
    };
    let delta = cert.delta_ns(config.step_ns);
    println!(
        "{cert} -> tolerance ±{delta} ns at a {} ns step",
        config.step_ns
    );

    // 2. Deploy over a hostile control plane: 15% message loss, plus a
    //    reboot that knocks switch 1 offline for 300 ms right after
    //    its Arm landed — wiping the armed trigger.
    let plan = FaultPlan::lossy(42, 0.15).with_reboot(1_200_000_000, SwitchId(1), 300_000_000);
    let mut emu = Emulator::new(&instance, config, 42);
    emu.install_faults_certified(plan, ReliableConfig::default(), &cert);
    emu.install_driver(UpdateDriver::chronus(schedule.clone(), &instance));
    let report = emu.run();

    let faults = report.faults.expect("faults were installed");
    println!("{faults}");
    println!(
        "emulation: {} FlowMods applied, {} timed tasks pending, rolled_back {}",
        report.applied_updates.len(),
        report.timed_tasks_pending,
        report.rolled_back
    );
    assert!(report.clean(), "recovered run must stay loop/drop-free");
    assert_eq!(report.timed_tasks_pending, 0, "every timed task applied");
    assert!(!report.rolled_back, "recovery stayed inside slack");
    assert_eq!(faults.reboots, 1);
    assert!(faults.triggers_lost >= 1, "the reboot wiped a trigger");

    // 3. Re-certify after the fact: the certificate's corner schedules
    //    still verify, and the worst measured firing deviation sits
    //    inside the certified window.
    check_slack(&instance, &schedule, &cert).expect("certificate re-validates");
    assert!(
        cert.covers_residual(faults.max_fire_deviation_ns as i128, config.step_ns),
        "measured deviation {} ns exceeds certified ±{delta} ns",
        faults.max_fire_deviation_ns
    );
    println!(
        "re-certified: max firing deviation {} ns within certified ±{delta} ns",
        faults.max_fire_deviation_ns
    );

    // 4. Export the traced timeline and the fault counters.
    FlightRecorder::disable();
    let snapshot = FlightRecorder::snapshot();
    assert!(
        snapshot.rings.iter().all(|r| r.dropped == 0),
        "the ring holds the whole run"
    );
    let mut timeline = TimelineExporter::from_snapshot(&snapshot);
    timeline.process_name("chronus-faulty-update");
    // One counter track showing when each FlowMod landed (true time).
    let anchor = snapshot.events.iter().map(|e| e.end_ns).max().unwrap_or(0);
    timeline.counter("applied FlowMods", anchor, 0.0);
    for (i, &(at, _)) in report.applied_updates.iter().enumerate() {
        timeline.counter(
            "applied FlowMods",
            anchor + at.max(0) as u64,
            (i + 1) as f64,
        );
    }
    let trace_path = out_dir.join("trace.json");
    std::fs::write(&trace_path, timeline.to_json()).expect("write trace.json");

    // The fault layer's scoped registry travels with the report; fold
    // it into the process-global one and dump Prometheus text.
    let global = MetricsRegistry::global();
    global.absorb(report.fault_metrics.as_ref().expect("faulty run"));
    let prom = global.to_prometheus();
    assert!(
        prom.contains("chronus_faults_retransmits_total"),
        "fault counters exported"
    );
    let prom_path = out_dir.join("fault_metrics.prom");
    std::fs::write(&prom_path, &prom).expect("write fault_metrics.prom");

    let spans = |prefix: &str| {
        snapshot
            .events
            .iter()
            .filter(|r| r.name.starts_with(prefix))
            .count()
    };
    println!(
        "captured {} records ({} core, {} verify, {} emu)",
        snapshot.events.len(),
        spans("core."),
        spans("verify."),
        spans("emu."),
    );
    println!("wrote {}", trace_path.display());
    println!("wrote {} ({} bytes)", prom_path.display(), prom.len());
}
