//! Differential property tests: the static certifier against the
//! fluid simulator.
//!
//! The two implementations share only passive data types (`Schedule`,
//! the network model): the simulator enumerates cohorts step by step,
//! the certifier reasons symbolically over emission intervals.
//! Agreement across randomized instances and schedules is therefore
//! meaningful evidence of correctness — and any disagreement is a
//! found bug in one of them, which is the point of this suite.
//!
//! Coverage: 1050 generator draws (3 × 350 cases), each checked under
//! up to three schedules (simultaneous, randomly staggered, randomly
//! sparse), comparing not just verdicts but the exact loop /
//! blackhole / undelivered event sets, per-step congestion events,
//! and the full per-link load surface.

use chronus_net::{FlowId, InstanceGenerator, InstanceGeneratorConfig, SwitchId, UpdateInstance};
use chronus_timenet::{FluidSimulator, Schedule, Verdict};
use chronus_verify::{analyze, certify, certify_with, congestion_surface, Certifier, VerifyConfig};
use proptest::prelude::*;
use proptest::proptest;

/// Compares certifier and simulator on one `(instance, schedule)`
/// pair, down to the exact event sets, and returns an error message on
/// the first disagreement.
fn compare(instance: &UpdateInstance, schedule: &Schedule) -> Result<(), String> {
    let report = FluidSimulator::check(instance, schedule);
    let analysis = analyze(instance, schedule);

    // Event sets, exactly.
    let mut sim_loops: Vec<_> = report
        .loops
        .iter()
        .map(|l| (l.flow, l.emitted_at, l.switch, l.time))
        .collect();
    sim_loops.sort_unstable();
    let mut got_loops = analysis.loop_events();
    got_loops.sort_unstable();
    if got_loops != sim_loops {
        return Err(format!(
            "loop sets differ: certifier {got_loops:?} vs simulator {sim_loops:?}"
        ));
    }
    let mut sim_bh: Vec<_> = report
        .blackholes
        .iter()
        .map(|b| (b.flow, b.emitted_at, b.switch, b.time))
        .collect();
    sim_bh.sort_unstable();
    let mut got_bh = analysis.blackhole_events();
    got_bh.sort_unstable();
    if got_bh != sim_bh {
        return Err(format!(
            "blackhole sets differ: certifier {got_bh:?} vs simulator {sim_bh:?}"
        ));
    }
    let mut sim_und = report.undelivered.clone();
    sim_und.sort_unstable();
    let mut got_und = analysis.undelivered_events();
    got_und.sort_unstable();
    if got_und != sim_und {
        return Err(format!(
            "undelivered sets differ: certifier {got_und:?} vs simulator {sim_und:?}"
        ));
    }

    // Load surface, cell for cell.
    if analysis.load_series() != report.link_loads {
        return Err("per-link load series differ".into());
    }

    // Congestion events.
    let mut sim_cong: Vec<_> = report
        .congestion
        .iter()
        .map(|c| (c.src, c.dst, c.time, c.load, c.capacity))
        .collect();
    sim_cong.sort_unstable();
    let mut got_cong = congestion_surface(instance, &analysis);
    got_cong.sort_unstable();
    if got_cong != sim_cong {
        return Err(format!(
            "congestion sets differ: certifier {got_cong:?} vs simulator {sim_cong:?}"
        ));
    }

    // And the headline verdict.
    let certified = certify(instance, schedule).is_ok();
    let consistent = report.verdict() == Verdict::Consistent;
    if certified != consistent {
        return Err(format!(
            "verdicts differ: certifier {certified} vs simulator {consistent}"
        ));
    }
    Ok(())
}

fn draw_instance(n: usize, seed: u64) -> Option<UpdateInstance> {
    InstanceGenerator::new(InstanceGeneratorConfig::paper(n, seed)).generate()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(350))]

    fn agrees_on_simultaneous_schedules(n in 5usize..12, seed in 0u64..1_000_000) {
        if let Some(inst) = draw_instance(n, seed) {
            let schedule = Schedule::all_at_zero(&inst);
            if let Err(msg) = compare(&inst, &schedule) {
                prop_assert!(false, "n={n} seed={seed}: {msg}");
            }
        }
    }

    fn agrees_on_staggered_schedules(
        n in 5usize..12,
        seed in 0u64..1_000_000,
        times in proptest::collection::vec(0i64..10, 16),
    ) {
        if let Some(inst) = draw_instance(n, seed) {
            let mut schedule = Schedule::new();
            for flow in &inst.flows {
                for (i, v) in flow.switches_to_update().into_iter().enumerate() {
                    let t = times.get(i % times.len()).copied().unwrap_or(0);
                    schedule.set(flow.id, v, t);
                }
            }
            if let Err(msg) = compare(&inst, &schedule) {
                prop_assert!(false, "n={n} seed={seed}: {msg}");
            }
        }
    }

    fn agrees_on_sparse_and_shifted_schedules(
        n in 5usize..12,
        seed in 0u64..1_000_000,
        times in proptest::collection::vec(0i64..30, 16),
        keep_mask in 0u32..u32::MAX,
    ) {
        // Sparse schedules (entries dropped) exercise blackhole and
        // undelivered paths; large times exercise horizon extension.
        if let Some(inst) = draw_instance(n, seed) {
            let mut schedule = Schedule::new();
            for flow in &inst.flows {
                for (i, v) in flow.switches_to_update().into_iter().enumerate() {
                    if keep_mask & (1 << (i % 32)) != 0 {
                        let t = times.get(i % times.len()).copied().unwrap_or(0);
                        schedule.set(flow.id, v, t);
                    }
                }
            }
            if let Err(msg) = compare(&inst, &schedule) {
                prop_assert!(false, "n={n} seed={seed}: {msg}");
            }
        }
    }

    fn reused_certifier_matches_fresh_runs(
        n in 5usize..12,
        seed in 0u64..1_000_000,
        times in proptest::collection::vec(0i64..30, 16),
        masks in proptest::collection::vec(0u32..u32::MAX, 8..14),
        witnesses in 0u8..2,
    ) {
        // One workspace over a sequence of schedules with different
        // entry sets and times: whatever a run leaves in the buffers
        // must not reach the next one.
        if let Some(inst) = draw_instance(n, seed) {
            let config = VerifyConfig { enabled: true, witnesses: witnesses == 1 };
            let mut certifier = Certifier::new(&inst);
            for (round, &mask) in masks.iter().enumerate() {
                let mut schedule = Schedule::new();
                for flow in &inst.flows {
                    for (i, v) in flow.switches_to_update().into_iter().enumerate() {
                        if mask & (1 << (i % 16)) != 0 {
                            let t = times.get((i + round) % times.len()).copied().unwrap_or(0);
                            schedule.set(flow.id, v, t);
                        }
                    }
                }
                // Entries no rule row holds: they move the makespan only.
                if mask & (1 << 16) != 0 {
                    schedule.set(FlowId(0), SwitchId(n as u32 + 3), i64::from(mask >> 27));
                }
                if mask & (1 << 17) != 0 {
                    schedule.set(FlowId(77), SwitchId(1), i64::from(mask >> 26));
                }
                prop_assert_eq!(
                    certifier.analyze(&schedule),
                    analyze(&inst, &schedule),
                    "n={} seed={} round={}", n, seed, round
                );
                prop_assert_eq!(
                    certifier.certify_with(&schedule, &config),
                    certify_with(&inst, &schedule, &config),
                    "n={} seed={} round={}", n, seed, round
                );
            }
        }
    }
}

#[test]
fn certificate_round_trips_through_check() {
    // Every certified schedule's certificate must re-validate.
    let mut checked = 0;
    for seed in 0..200u64 {
        let Some(inst) = draw_instance(8, seed) else {
            continue;
        };
        let schedule = Schedule::all_at_zero(&inst);
        if let Ok(cert) = certify(&inst, &schedule) {
            assert_eq!(cert.check(&inst), Ok(()), "seed {seed}");
            checked += 1;
        }
    }
    assert!(checked > 0, "no certified instance in 200 draws");
}
