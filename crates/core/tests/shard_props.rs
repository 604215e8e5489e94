//! Differential proofs for the sharded multi-flow planner.
//!
//! Sharding is a *performance* strategy, not a semantic one, and
//! these tests pin the places where it must be invisible:
//!
//! - **Delegation is byte-identical.** Whenever the sharded pipeline
//!   does not actually shard — `shards: 1` forced by config, the
//!   partitioner putting every flow in one shard, or the joint
//!   fallback after exhausted rounds — the schedule and makespan must
//!   equal the plain greedy run exactly.
//! - **Feasibility never regresses.** Sharding adds no failure modes:
//!   when the joint greedy succeeds, the sharded planner succeeds too
//!   (every sharded dead end falls back to the joint run). The
//!   converse does *not* hold — greedy is a heuristic, and splitting
//!   an instance into smaller subproblems sometimes lets the shards
//!   solve what the monolithic search gets stuck on; those extra wins
//!   are fine as long as they arrive sealed.
//! - **Sealed outcomes.** Every successful sharded run (with
//!   verification on) carries a certificate that checks against the
//!   ORIGINAL instance, and its merged schedule re-certifies from
//!   scratch — composition must never launder an unsafe plan.
//!
//! Random coverage comes from multi-flow instances over random
//! connected topologies (loop-erased random routes, mixed demands),
//! which exercise the partitioner on irregular graphs — single-shard
//! collapses, multi-shard plans with shared links, and fallbacks all
//! occur across the seed space.

use chronus_core::greedy::{greedy_schedule_with, GreedyConfig, GreedyOutcome};
use chronus_core::shard::{shard_schedule_with, ShardOutcome, ShardingConfig};
use chronus_net::topology::{fat_tree, random_connected, LinkParams, TopologyConfig};
use chronus_net::{
    motivating_example, reversal_instance, Flow, FlowId, Network, Path, SwitchId, UpdateInstance,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random multi-flow update instance over a random connected
/// topology: `kflows` loop-erased random reroutes with mixed demands.
/// Returns `None` when a seed cannot place enough distinct flows or
/// the initial configuration is infeasible — proptest just skips it.
fn random_multiflow(switches: usize, kflows: usize, seed: u64) -> Option<UpdateInstance> {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = random_connected(
        TopologyConfig {
            switches,
            capacity_range: (300, 700),
            delay_range: (1, 5),
            seed: rng.gen(),
        },
        switches / 2,
    );
    let mut flows = Vec::new();
    for id in 0..kflows {
        for _attempt in 0..32 {
            let src = SwitchId(rng.gen_range(0..switches as u32));
            let dst = SwitchId(rng.gen_range(0..switches as u32));
            if src == dst {
                continue;
            }
            let Some(initial) =
                chronus_net::routing::biased_random_path(&net, src, dst, 0.0, &mut rng)
            else {
                continue;
            };
            let Some(fin) = chronus_net::routing::biased_random_path(&net, src, dst, 0.5, &mut rng)
            else {
                continue;
            };
            if initial == fin {
                continue;
            }
            let demand = rng.gen_range(50u64..=250);
            if let Ok(f) = Flow::new(FlowId(id as u32), demand, initial, fin) {
                flows.push(f);
                break;
            }
        }
    }
    if flows.len() < 2 {
        return None;
    }
    UpdateInstance::new(net, flows).ok()
}

/// The delegation contract: schedule and makespan byte-identical.
fn assert_delegated(tag: &str, sharded: &ShardOutcome, joint: &GreedyOutcome) {
    assert_eq!(
        sharded.schedule, joint.schedule,
        "{tag}: schedules diverged"
    );
    assert_eq!(
        sharded.makespan, joint.makespan,
        "{tag}: makespans diverged"
    );
}

/// Runs both planners and checks every invariant that holds for *any*
/// instance: feasibility never regresses, sealed certificates,
/// re-certification of the merged schedule, and byte-identical
/// delegation whenever the sharded pipeline ended up planning jointly
/// anyway.
fn differential(tag: &str, inst: &UpdateInstance, config: ShardingConfig) {
    let sharded = shard_schedule_with(inst, config);
    let joint = greedy_schedule_with(inst, config.greedy);
    match (&sharded, &joint) {
        (Ok(s), joint) => {
            match joint {
                Ok(j) if s.stats.shards <= 1 || s.stats.fell_back_joint => {
                    assert_delegated(tag, s, j);
                }
                Ok(_) => {}
                // A sharded win over a stuck joint heuristic is only
                // acceptable from a genuinely sharded plan — the
                // delegation and fallback paths ARE the joint run.
                Err(e) => assert!(
                    s.stats.shards >= 2 && !s.stats.fell_back_joint,
                    "{tag}: delegated plan succeeded where joint failed: {e:?}"
                ),
            }
            assert_eq!(
                s.makespan,
                s.schedule.makespan().unwrap_or(0),
                "{tag}: reported makespan disagrees with the schedule"
            );
            if config.greedy.verify.enabled {
                let cert = s
                    .certificate
                    .as_ref()
                    .unwrap_or_else(|| panic!("{tag}: verify on but no certificate"));
                assert_eq!(
                    cert.check(inst),
                    Ok(()),
                    "{tag}: certificate does not seal the original instance"
                );
                assert!(
                    chronus_verify::certify(inst, &s.schedule).is_ok(),
                    "{tag}: merged schedule fails re-certification"
                );
            }
        }
        (Err(_), Err(_)) => {}
        (s, j) => panic!("{tag}: sharding lost feasibility: sharded {s:?} vs joint {j:?}"),
    }
}

fn by_name(net: &Network, n: &str) -> SwitchId {
    net.switches()
        .find(|&s| net.switch_name(s) == Some(n))
        .expect("fat-tree switch name")
}

/// Multi-flow instance confined to pod 0 of a k=4 fat tree: the pod
/// partitioner has only one populated shard to yield, so the sharded
/// pipeline must delegate.
fn one_pod_instance() -> UpdateInstance {
    let net = fat_tree(
        4,
        LinkParams {
            capacity: 1000,
            delay: 1,
        },
    );
    let (e0, e1) = (by_name(&net, "edge0"), by_name(&net, "edge1"));
    let (a0, a1) = (by_name(&net, "agg0"), by_name(&net, "agg1"));
    let flows = vec![
        Flow::new(
            FlowId(0),
            100,
            Path::new(vec![e0, a0, e1]),
            Path::new(vec![e0, a1, e1]),
        )
        .expect("pod-local flow"),
        Flow::new(
            FlowId(1),
            100,
            Path::new(vec![e0, a1, e1]),
            Path::new(vec![e0, a0, e1]),
        )
        .expect("pod-local counter-flow"),
    ];
    UpdateInstance::new(net, flows).expect("one-pod instance")
}

#[test]
fn partitioner_yielding_one_shard_delegates_byte_identically() {
    let inst = one_pod_instance();
    let out = shard_schedule_with(&inst, ShardingConfig::default()).expect("plans");
    assert_eq!(out.stats.shards, 1, "all flows sit in one pod");
    let joint = greedy_schedule_with(&inst, GreedyConfig::default()).expect("plans");
    assert_delegated("one-pod fat tree", &out, &joint);
}

#[test]
fn forced_single_shard_delegates_on_fixed_instances() {
    let single = ShardingConfig {
        shards: 1,
        ..ShardingConfig::default()
    };
    for (tag, inst) in [
        ("motivating", motivating_example()),
        ("one-pod", one_pod_instance()),
    ] {
        let sharded = shard_schedule_with(&inst, single).expect("plans");
        let joint = greedy_schedule_with(&inst, single.greedy).expect("plans");
        assert_delegated(tag, &sharded, &joint);
    }
    for n in 4..9 {
        let inst = reversal_instance(n, 2, 1);
        differential(&format!("reversal {n}"), &inst, single);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The tentpole differential on random multi-flow instances:
    /// feasibility parity, sealed certificates, and byte-identical
    /// delegation whenever the pipeline collapses to a joint plan.
    #[test]
    fn random_multiflow_instances_uphold_the_sharding_contract(
        switches in 8usize..24,
        kflows in 2usize..6,
        shards in 2usize..9,
        seed in 0u64..100_000,
    ) {
        if let Some(inst) = random_multiflow(switches, kflows, seed) {
            let config = ShardingConfig { shards, ..ShardingConfig::default() };
            differential(&format!("{switches}sw/{kflows}f/{shards}sh/{seed}"), &inst, config);
        }
    }

    /// Forcing `shards: 1` must be indistinguishable from calling the
    /// greedy planner directly, on every instance.
    #[test]
    fn forced_single_shard_is_always_byte_identical(
        switches in 8usize..20,
        kflows in 2usize..5,
        seed in 0u64..100_000,
    ) {
        if let Some(inst) = random_multiflow(switches, kflows, seed) {
            let config = ShardingConfig { shards: 1, ..ShardingConfig::default() };
            let sharded = shard_schedule_with(&inst, config);
            let joint = greedy_schedule_with(&inst, config.greedy);
            match (&sharded, &joint) {
                (Ok(s), Ok(j)) => assert_delegated("forced single shard", s, j),
                (Err(_), Err(_)) => {}
                (s, j) => panic!("feasibility diverged: {s:?} vs {j:?}"),
            }
        }
    }
}
