//! Prefix-replay property of the greedy scheduler.
//!
//! The greedy commits a candidate only when the partial schedule
//! extended by it passes the exact gate, so every emitted schedule is
//! prefix-safe (see the `greedy` module docs). This test re-checks
//! that from the outside, with the full [`FluidSimulator`] as the
//! oracle: replaying the per-round commits of [`RoundTrace`] one round
//! at a time, every intermediate schedule must be consistent, and the
//! last one must be the emitted schedule.
//!
//! [`RoundTrace`]: chronus_core::greedy::RoundTrace

use chronus_core::greedy::{greedy_schedule_with, GreedyConfig, GreedyOutcome};
use chronus_net::{
    motivating_example, reversal_instance, InstanceGenerator, InstanceGeneratorConfig,
    UpdateInstance,
};
use chronus_timenet::{FluidSimulator, Schedule, Verdict};
use chronus_verify::VerifyConfig;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn assert_prefixes_consistent(inst: &UpdateInstance, out: &GreedyOutcome) {
    assert_eq!(
        out.simulator_calls as u64, out.gate.checks,
        "every simulator call is one gate check"
    );
    // The fresh pre-pass (step-0 activations) is not part of any
    // round: it is whatever the schedule holds beyond the commits.
    let committed: BTreeSet<_> = out
        .rounds
        .iter()
        .flat_map(|r| r.committed.iter().copied())
        .collect();
    let mut prefix = Schedule::new();
    for (flow, v, t) in out.schedule.iter() {
        if !committed.contains(&(flow, v)) {
            prefix.set(flow, v, t);
        }
    }
    for round in &out.rounds {
        for &(flow, v) in &round.committed {
            prefix.set(flow, v, round.time);
        }
        let report = FluidSimulator::check(inst, &prefix);
        assert_eq!(
            report.verdict(),
            Verdict::Consistent,
            "prefix through t={} is inconsistent: {report}",
            round.time
        );
    }
    assert_eq!(prefix, out.schedule, "replay must rebuild the schedule");
}

fn check(inst: &UpdateInstance) {
    let config = GreedyConfig {
        verify: VerifyConfig::disabled(),
        ..GreedyConfig::default()
    };
    if let Ok(out) = greedy_schedule_with(inst, config) {
        assert_prefixes_consistent(inst, &out);
    }
}

#[test]
fn fixed_instances_replay_consistently() {
    check(&motivating_example());
    for n in 4..9 {
        check(&reversal_instance(n, 2, 1));
        check(&reversal_instance(n, 1, 1));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn random_instances_replay_consistently(
        switches in 4usize..48,
        seed in 0u64..100_000,
    ) {
        let cfg = InstanceGeneratorConfig::paper(switches, seed);
        if let Some(inst) = InstanceGenerator::new(cfg).generate() {
            check(&inst);
        }
    }
}
