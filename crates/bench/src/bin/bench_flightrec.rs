//! Flight-recorder overhead on the end-to-end greedy path.
//!
//! The recorder's contract is "always on, even in benches": one
//! relaxed-atomic probe when idle, one ring-slot write per span when
//! recording. This bench prices that contract where it matters — the
//! full `greedy_schedule` wall clock at fig10 scale, where every gate
//! check opens a `timenet.simulate` span and the planner opens
//! `core.greedy`, so an n=512 run pushes thousands of events through
//! the calling thread's ring.
//!
//! Methodology: interleaved reps (off, on,
//! off, on, …) so clock ramps and neighbour load hit both arms
//! equally, min-of-reps to discard preemption spikes, one untimed
//! warm-up pair. Emits `BENCH_flightrec.json` with both arms'
//! ns/op and `overhead_pct`; the acceptance target is < 3%.

#![forbid(unsafe_code)]

use chronus_bench::fig10::scale_instance;
use chronus_core::greedy::{greedy_schedule_in, GreedyConfig};
use chronus_timenet::SimWorkspace;
use chronus_trace::FlightRecorder;
use std::time::{Duration, Instant};

fn config() -> GreedyConfig {
    GreedyConfig {
        verify: chronus_verify::VerifyConfig::disabled(),
        ..Default::default()
    }
}

fn main() {
    let n = 512usize;
    let inst = (0..8)
        .find_map(|s| scale_instance(n, 20170605 + 977 + s))
        .unwrap_or_else(|| panic!("no fig10-scale instance at n={n}"));
    let cfg = config();
    let mut ws_off = SimWorkspace::default();
    let mut ws_on = SimWorkspace::default();

    // Warm-up pair: arena pools, caches, clock ramp. The recorder ring
    // for this thread is also created here, off the timed path.
    FlightRecorder::disable();
    greedy_schedule_in(&inst, cfg, &mut ws_off).expect("feasible");
    FlightRecorder::enable(4096);
    greedy_schedule_in(&inst, cfg, &mut ws_on).expect("feasible");
    FlightRecorder::disable();

    let mut min_off = Duration::MAX;
    let mut min_on = Duration::MAX;
    let mut total = Duration::ZERO;
    let mut reps = 0u32;
    while reps == 0 || (total < Duration::from_millis(1500) && reps < 2000) {
        FlightRecorder::disable();
        let t0 = Instant::now();
        let out = greedy_schedule_in(&inst, cfg, &mut ws_off).expect("feasible");
        let dt = t0.elapsed();
        total += dt;
        min_off = min_off.min(dt);
        let makespan_off = out.makespan;

        FlightRecorder::enable(4096);
        let t0 = Instant::now();
        let out = greedy_schedule_in(&inst, cfg, &mut ws_on).expect("feasible");
        let dt = t0.elapsed();
        total += dt;
        min_on = min_on.min(dt);
        FlightRecorder::disable();

        assert_eq!(
            makespan_off, out.makespan,
            "recording must not change the schedule"
        );
        reps += 1;
    }

    // The recording arm really recorded: its ring saw this run's spans.
    let recorded: u64 = FlightRecorder::snapshot()
        .rings
        .iter()
        .map(|r| r.emitted)
        .sum();
    assert!(recorded > 0, "recorder arm produced no events");

    let off = min_off.as_nanos() as f64;
    let on = min_on.as_nanos() as f64;
    let overhead_pct = (on / off - 1.0) * 100.0;
    println!("flightrec/off/{n}: {off:.0} ns/op");
    println!("flightrec/on/{n}: {on:.0} ns/op");
    println!(
        "  -> n={n}: recorder overhead {overhead_pct:.2}% ({reps} rep pairs, \
         {recorded} ring events)"
    );

    let json = format!(
        "{{\n  \"flightrec/{n}\": {{\"off_ns_per_op\": {off:.1}, \
         \"on_ns_per_op\": {on:.1}, \"overhead_pct\": {overhead_pct:.2}}}\n}}\n"
    );
    let path = "BENCH_flightrec.json";
    std::fs::write(path, &json).expect("write BENCH_flightrec.json");
    println!("(json: {path})");
}
