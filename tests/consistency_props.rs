//! Property-based tests of the core invariants, over randomly
//! generated update instances.

use chronus::core::greedy::greedy_schedule;
use chronus::core::search::{minimum_makespan, Search};
use chronus::core::tree::{check_feasibility, quick_infeasible, Feasibility};
use chronus::core::MutpProblem;
use chronus::net::{InstanceGenerator, InstanceGeneratorConfig};
use chronus::opt::{optimal_schedule_with, OptConfig};
use chronus::timenet::{FluidSimulator, Schedule, Verdict};
use chronus::verify::certify;
use proptest::prelude::*;
use std::time::Duration;

fn gen_instance(switches: usize, seed: u64) -> Option<chronus::net::UpdateInstance> {
    let cfg = InstanceGeneratorConfig::paper(switches.max(6), seed);
    InstanceGenerator::new(cfg).generate()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 3: every schedule the greedy emits is congestion- and
    /// loop-free (and blackhole-free, and complete).
    #[test]
    fn greedy_schedules_are_always_consistent(
        switches in 6usize..24,
        seed in 0u64..10_000,
    ) {
        let Some(inst) = gen_instance(switches, seed) else { return Ok(()); };
        if let Ok(out) = greedy_schedule(&inst) {
            let report = FluidSimulator::check(&inst, &out.schedule);
            prop_assert_eq!(report.verdict(), Verdict::Consistent);
            prop_assert!(out.schedule.validate(&inst).is_ok());
        }
    }

    /// OPT never needs more steps than the greedy, and its schedule is
    /// equally consistent.
    #[test]
    fn opt_is_no_worse_than_greedy(
        switches in 6usize..16,
        seed in 0u64..5_000,
    ) {
        let Some(inst) = gen_instance(switches, seed) else { return Ok(()); };
        let Ok(greedy) = greedy_schedule(&inst) else { return Ok(()); };
        let opt = optimal_schedule_with(&inst, OptConfig { budget: Duration::from_millis(500) });
        if let Ok(opt) = opt {
            prop_assert!(opt.makespan <= greedy.makespan,
                "opt {} > greedy {}", opt.makespan, greedy.makespan);
            let report = FluidSimulator::check(&inst, &opt.schedule);
            prop_assert_eq!(report.verdict(), Verdict::Consistent);
        }
    }

    /// Algorithm 1 consistency: whenever the greedy finds a schedule,
    /// the tree feasibility check must say "feasible" — and its
    /// witness must verify.
    #[test]
    fn tree_feasibility_agrees_with_greedy_success(
        switches in 6usize..16,
        seed in 0u64..5_000,
    ) {
        let Some(inst) = gen_instance(switches, seed) else { return Ok(()); };
        if greedy_schedule(&inst).is_ok() {
            match check_feasibility(&inst) {
                Feasibility::Feasible { schedule, .. } => {
                    let report = FluidSimulator::check(&inst, &schedule);
                    prop_assert_eq!(report.verdict(), Verdict::Consistent);
                }
                other => prop_assert!(false, "greedy found a witness but tree said {:?}", other),
            }
        }
    }

    /// Time-shift invariance of the dynamic-flow semantics: delaying
    /// an entire consistent schedule by `k` steps keeps it consistent
    /// (the data plane is in steady state before updates begin).
    #[test]
    fn schedules_are_shift_invariant(
        switches in 6usize..16,
        seed in 0u64..5_000,
        shift in 1i64..6,
    ) {
        let Some(inst) = gen_instance(switches, seed) else { return Ok(()); };
        let Ok(out) = greedy_schedule(&inst) else { return Ok(()); };
        let mut shifted = out.schedule.clone();
        shifted.shift(shift);
        let report = FluidSimulator::check(&inst, &shifted);
        prop_assert_eq!(report.verdict(), Verdict::Consistent);
    }

    /// The simulator itself: a no-op schedule on a validated instance
    /// never reports violations (the initial state is feasible).
    #[test]
    fn steady_state_is_always_clean(
        switches in 6usize..20,
        seed in 0u64..10_000,
    ) {
        let Some(inst) = gen_instance(switches, seed) else { return Ok(()); };
        let report = FluidSimulator::check(&inst, &Schedule::new());
        prop_assert!(report.congestion_free());
        prop_assert!(report.loop_free());
        prop_assert!(report.blackholes.is_empty());
    }

    /// Flow conservation (Definition 1): with a complete consistent
    /// schedule, the load that leaves the source equals the load that
    /// arrives at the destination, shifted by path delays — no unit of
    /// flow is created or destroyed.
    #[test]
    fn consistent_migrations_conserve_flow(
        switches in 6usize..16,
        seed in 0u64..5_000,
    ) {
        let Some(inst) = gen_instance(switches, seed) else { return Ok(()); };
        let Ok(out) = greedy_schedule(&inst) else { return Ok(()); };
        let report = FluidSimulator::check(&inst, &out.schedule);
        prop_assert_eq!(report.verdict(), Verdict::Consistent);
        let flow = inst.flow();
        // Sum of loads leaving the source == sum arriving at the
        // destination across the simulated horizon (same cohort count).
        let out_load: u64 = report
            .link_loads
            .iter()
            .filter(|((a, _), _)| *a == flow.source())
            .flat_map(|(_, series)| series.values())
            .sum();
        let in_load: u64 = report
            .link_loads
            .iter()
            .filter(|((_, b), _)| *b == flow.destination())
            .flat_map(|(_, series)| series.values())
            .sum();
        prop_assert_eq!(out_load, in_load);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Algorithm 1 on its own, where greedy gives no witness: every
    /// schedule the search returns is consistent and certifies, and
    /// the search never refutes an instance OPT solves.
    #[test]
    fn tree_search_agrees_with_opt_and_the_certifier(
        switches in 6usize..13,
        seed in 0u64..10_000,
    ) {
        let Some(inst) = gen_instance(switches, seed) else { return Ok(()); };
        if greedy_schedule(&inst).is_ok() {
            return Ok(());
        }
        let tree = check_feasibility(&inst);
        if let Feasibility::Feasible { schedule } = &tree {
            let report = FluidSimulator::check(&inst, schedule);
            prop_assert_eq!(report.verdict(), Verdict::Consistent, "{}", report);
            let certified = certify(&inst, schedule);
            prop_assert!(certified.is_ok(), "witness refused: {:?}", certified.err());
        }
        let opt = optimal_schedule_with(&inst, OptConfig { budget: Duration::from_secs(1) });
        if let Ok(opt) = opt {
            prop_assert!(
                !matches!(tree, Feasibility::Infeasible { .. }),
                "OPT solved in {} steps what the tree search refuted: {:?}",
                opt.makespan + 1,
                tree
            );
        }
    }
}

/// Theorem 2 on its own: OPT now trusts [`quick_infeasible`] and never
/// searches an instance a crossing refutes, so this runs the full
/// minimum-makespan search on exactly those instances — greedy-refused
/// paper instances with 6–12 switches that carry a crossing witness —
/// up to the sound search horizon. It must never find a schedule, and
/// it must finish on at least 12 of the 14 cases (each takes under
/// 0.1 s in a release build).
#[test]
fn crossing_refutations_survive_the_full_search() {
    let (mut cases, mut finished) = (0, 0);
    for switches in 6..=12 {
        for seed in 0..60 {
            let Some(inst) = gen_instance(switches, seed) else {
                continue;
            };
            let Some(crossing) = quick_infeasible(&inst) else {
                continue;
            };
            if greedy_schedule(&inst).is_ok() {
                continue;
            }
            cases += 1;
            let problem = MutpProblem::new(&inst).expect("generated instances are valid");
            match minimum_makespan(&problem, || problem.search_horizon(), Duration::from_secs(30)) {
                Search::Found(schedule) => panic!(
                    "n = {switches}, seed {seed}: {crossing:?} refuted what the search solved: {schedule:?}"
                ),
                Search::Exhausted => finished += 1,
                Search::Stopped | Search::TooLarge(_) => {}
            }
        }
    }
    assert_eq!(cases, 14, "the pool moved");
    assert!(finished >= 12, "the search finished {finished} of {cases}");
}
