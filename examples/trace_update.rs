//! Observability round trip: plan, certify and emulate an update with
//! the flight recorder on, then export everything an operator would
//! want to look at.
//!
//! ```text
//! cargo run --example trace_update [out_dir]
//! ```
//!
//! Produces, in `out_dir` (default `.`):
//!
//! - `trace.json` — Chrome trace-event JSON: one timeline with spans
//!   from the engine (`engine.plan`, `engine.stage.*`), the solver
//!   (`core.greedy`), the simulators (`timenet.*`), the certifier
//!   (`verify.certify`) and the emulator (`emu.run`), plus one counter
//!   track per network link sampled from the exact gate's load ledger.
//!   The example checks both are there before it writes the file.
//!   Load it in Perfetto (<https://ui.perfetto.dev>) or
//!   `chrome://tracing`.
//! - `trace_metrics.prom` — Prometheus text exposition of the engine's
//!   metrics registry folded into the process-global registry.

use chronus::emu::{EmuConfig, Emulator, UpdateDriver};
use chronus::engine::{Engine, EngineConfig};
use chronus::net::{motivating_example, UpdateInstance};
use chronus::timenet::IncrementalSimulator;
use chronus::trace::{FlightRecorder, MetricsRegistry, TimelineExporter};
use std::path::PathBuf;
use std::sync::Arc;

/// One emulated nanosecond per schedule step on the counter tracks is
/// invisible next to the real span durations; stretch each model step
/// so the per-link load staircase is readable in Perfetto.
const STEP_NS: u64 = 1_000_000;

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .map_or_else(|| PathBuf::from("."), PathBuf::from);
    std::fs::create_dir_all(&out_dir).expect("create output directory");

    // Record everything from here on: the ring holds the whole run
    // without overwriting (checked before the timeline is written).
    FlightRecorder::enable(4096);

    // 1. Plan a small batch through the engine: fallback-chain spans,
    //    greedy/simulator/certifier spans, per-stage counters.
    let instance = Arc::new(motivating_example());
    let engine = Engine::new(EngineConfig::with_workers(2));
    let plans = engine.plan_instances(vec![Arc::clone(&instance); 4]);
    let schedule = plans[0]
        .timed_schedule()
        .expect("the motivating example is greedy-feasible")
        .clone();
    println!("{}", engine.report());

    // 2. Replay the winning schedule on the incremental simulator and
    //    keep its ledger's per-link load series for counter tracks.
    let mut sim = IncrementalSimulator::new(&instance);
    for (flow, switch, t) in schedule.iter() {
        sim.apply(flow, switch, t);
    }
    let link_loads = sim.link_loads();

    // 3. Emulate the plan on the discrete-event testbed (`emu.run`).
    let mut emu = Emulator::new(&instance, EmuConfig::default(), 42);
    emu.install_driver(UpdateDriver::engine(Arc::clone(&instance), 2));
    let report = emu.run();
    assert_eq!(report.ttl_drops, 0, "a certified plan never loops");

    // 4. Export the timeline: spans first, then one counter track per
    //    link, anchored right after the last span so the two layers
    //    don't overprint each other.
    FlightRecorder::disable();
    let snapshot = FlightRecorder::snapshot();
    assert!(
        snapshot.rings.iter().all(|r| r.dropped == 0),
        "the ring holds the whole run"
    );
    let spans = |prefix: &str| {
        snapshot
            .events
            .iter()
            .filter(|e| e.name.starts_with(prefix))
            .count()
    };
    for subsystem in ["engine.", "core.", "timenet.", "verify.", "emu."] {
        assert!(spans(subsystem) > 0, "the trace records {subsystem}* spans");
    }
    assert!(!link_loads.is_empty(), "the trace carries counter tracks");
    let mut timeline = TimelineExporter::from_snapshot(&snapshot);
    timeline.process_name("chronus");
    let anchor = snapshot.events.iter().map(|e| e.end_ns).max().unwrap_or(0);
    for ((src, dst), series) in &link_loads {
        let track = format!("link {}->{} load", src.0, dst.0);
        // Leading zero so the staircase starts from empty.
        timeline.counter(&track, anchor, 0.0);
        for (&t, &load) in series {
            timeline.counter(
                &track,
                anchor + (t.max(0) as u64 + 1) * STEP_NS,
                load as f64,
            );
        }
    }
    let trace_path = out_dir.join("trace.json");
    std::fs::write(&trace_path, timeline.to_json()).expect("write trace.json");

    // 5. Fold the engine's scoped registry into the process-global one
    //    (which already holds e.g. the OpenFlow rule-churn counters)
    //    and dump Prometheus text.
    let global = MetricsRegistry::global();
    global.absorb(&engine.metrics().registry().snapshot());
    let prom = global.to_prometheus();
    let prom_path = out_dir.join("trace_metrics.prom");
    std::fs::write(&prom_path, &prom).expect("write trace_metrics.prom");

    println!(
        "captured {} records ({} engine, {} core, {} timenet, {} verify, {} emu)",
        snapshot.events.len(),
        spans("engine."),
        spans("core."),
        spans("timenet."),
        spans("verify."),
        spans("emu."),
    );
    println!(
        "{} counter samples over {} links",
        link_loads.values().map(|s| s.len() + 1).sum::<usize>(),
        link_loads.len()
    );
    println!("wrote {}", trace_path.display());
    println!("wrote {} ({} bytes)", prom_path.display(), prom.len());
    instance_summary(&instance);
}

fn instance_summary(instance: &UpdateInstance) {
    println!(
        "instance: {} switches, {} flow(s)",
        instance.network.switch_count(),
        instance.flows.len()
    );
}
