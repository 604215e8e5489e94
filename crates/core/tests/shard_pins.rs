//! Pins what the sharded planner returns, instance by instance.
//!
//! A fixed pool — random multi-flow instances over random connected
//! topologies (the generator of `shard_props.rs`) at fixed seeds, the
//! contended two-cluster bridge, fat-tree hand-off chains, and small
//! `bench_multiflow`-style cells — is planned through
//! [`shard_schedule_with`] at the default configuration, and the whole
//! outcome (success or failure, every schedule entry, the makespan and
//! every [`ShardStats`] field) is folded into one FNV-1a hash. The pool
//! reaches the optimistic rounds: it holds instances whose first round
//! conflicts and instances that fall back to joint planning. The
//! constants below were recorded before per-shard certificate
//! composition gave way to one joint check; a change that moves them
//! changed a sharded plan.
//!
//! One instance moved with that change, on purpose: pool entry 111
//! (`random_multiflow(16, 5, 245_505)` under 8 shards) has a final
//! configuration that overloads link s10→s11 (load 665 > capacity 634).
//! Composition summed each shard's load profile only over that shard's
//! own transient window, so it sealed a sharded plan congesting from
//! step 21 on; the joint check refuses every round, and joint planning
//! fails too. The hash before the change was 17 306 493 894 683 183 420.

use chronus_core::greedy::GreedyConfig;
use chronus_core::shard::{shard_schedule_with, ShardOutcome, ShardStats, ShardingConfig};
use chronus_core::ScheduleError;
use chronus_net::topology::{fat_tree, random_connected, LinkParams, TopologyConfig};
use chronus_net::{Flow, FlowId, Network, NetworkBuilder, Path, SwitchId, UpdateInstance};
use chronus_verify::VerifyConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hash of every pinned field over the whole pool, in pool order.
const PINNED_HASH: u64 = 10_056_287_918_966_453_903;
/// Pool instances whose sharded run saw `conflicts > 0`, and those
/// that fell back to joint planning.
const PINNED_CONFLICTED: usize = 10;
const PINNED_FELL_BACK: usize = 9;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// `shard_props.rs`'s generator: `kflows` loop-erased random reroutes
/// with mixed demands over a random connected topology.
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

/// Two clusters joined by a 150-capacity bridge that one 100-demand
/// flow leaves and another enters (the `shard.rs` unit fixture).
fn bridge_instance() -> UpdateInstance {
    let mut b = NetworkBuilder::with_switches(7);
    let s = SwitchId;
    for (u, v, cap) in [
        (0u32, 1u32, 1000u64),
        (1, 2, 1000),
        (2, 3, 150),
        (0, 6, 1000),
        (6, 3, 1000),
        (5, 4, 1000),
        (4, 3, 1000),
        (5, 2, 1000),
    ] {
        b.add_link(s(u), s(v), cap, 1).expect("bridge link");
    }
    let f0 = Flow::new(
        FlowId(0),
        100,
        Path::new(vec![s(0), s(1), s(2), s(3)]),
        Path::new(vec![s(0), s(6), s(3)]),
    )
    .expect("f0");
    let f1 = Flow::new(
        FlowId(1),
        100,
        Path::new(vec![s(5), s(4), s(3)]),
        Path::new(vec![s(5), s(2), s(3)]),
    )
    .expect("f1");
    UpdateInstance::new(b.build(), vec![f0, f1]).expect("bridge instance")
}

fn named(net: &Network, name: &str) -> SwitchId {
    net.switches()
        .find(|&s| net.switch_name(s) == Some(name))
        .expect("fat-tree switch")
}

/// `slack_stage_pins.rs`'s chains: `kflows` hand-off migrations on an
/// arity-12 fat tree (capacity 150, demand 100) over `pods` pods.
fn chain_instance(kflows: usize, pods: usize) -> UpdateInstance {
    let net = fat_tree(
        12,
        LinkParams {
            capacity: 150,
            delay: 1,
        },
    );
    let flows = (0..kflows)
        .map(|t| {
            let (pod, j) = (t % pods, t / pods);
            let e0 = named(&net, &format!("edge{}", pod * 6));
            let e1 = named(&net, &format!("edge{}", pod * 6 + 1));
            let agg = |a: usize| named(&net, &format!("agg{}", pod * 6 + a));
            Flow::new(
                FlowId(t as u32),
                100,
                Path::new(vec![e0, agg(j), e1]),
                Path::new(vec![e0, agg(j + 1), e1]),
            )
            .expect("chain paths")
        })
        .collect();
    UpdateInstance::new(net, flows).expect("chain instance")
}

/// A `bench_multiflow` cell on an arity-12 fabric: per-pod hand-off
/// chains plus one pair of half-demand cross-pod flows per 16 flows.
fn bench_cell(kflows: usize, seed: u64) -> UpdateInstance {
    let (pods, half) = (12usize, 6usize);
    let net = fat_tree(
        pods,
        LinkParams {
            capacity: 150,
            delay: 1,
        },
    );
    let agg = |pod: usize, a: usize| named(&net, &format!("agg{}", pod * half + a % half));
    let edge = |pod: usize, e: usize| named(&net, &format!("edge{}", pod * half + e % half));
    let core = |a: usize, c: usize| named(&net, &format!("core{}", (a % half) * half + c % half));
    let cross = kflows / 16;
    let chain_total = kflows - cross;
    let max_chain = half - 4;
    let use_pods = chain_total.div_ceil(max_chain).clamp(1, pods);
    let mut flows = Vec::new();
    for t in 0..chain_total {
        let (pod, j) = (t % use_pods, t / use_pods);
        let len = chain_total / use_pods + usize::from(pod < chain_total % use_pods);
        let rot = (seed as usize % 2).min(max_chain.saturating_sub(len));
        flows.push(
            Flow::new(
                FlowId(flows.len() as u32),
                100,
                Path::new(vec![edge(pod, 0), agg(pod, rot + j), edge(pod, 1)]),
                Path::new(vec![edge(pod, 0), agg(pod, rot + j + 1), edge(pod, 1)]),
            )
            .expect("cell chain paths"),
        );
    }
    for m in 0..cross {
        let (p, d) = (m % pods, (pods / 2 + m / 2) % pods);
        let (a0, a1) = (half - 2, half - 1);
        flows.push(
            Flow::new(
                FlowId(flows.len() as u32),
                50,
                Path::new(vec![
                    edge(p, 3),
                    agg(p, a0),
                    core(a0, m),
                    agg(d, a0),
                    edge(d, 4),
                ]),
                Path::new(vec![
                    edge(p, 3),
                    agg(p, a1),
                    core(a1, m),
                    agg(d, a1),
                    edge(d, 4),
                ]),
            )
            .expect("cell cross paths"),
        );
    }
    UpdateInstance::new(net, flows).expect("cell instance")
}

/// The pool, each instance with the shard count it is planned under.
fn pool() -> Vec<(UpdateInstance, usize)> {
    let mut pool = Vec::new();
    for (switches, kflows, shards) in [(8, 3, 2), (12, 4, 4), (16, 5, 8), (20, 6, 4), (24, 8, 8)] {
        for seed in 0..40u64 {
            if let Some(inst) = random_multiflow(switches, kflows, seed * 7919 + switches as u64) {
                pool.push((inst, shards));
            }
        }
    }
    pool.push((bridge_instance(), 2));
    for (kflows, pods) in [(4, 2), (8, 4), (12, 4)] {
        pool.push((chain_instance(kflows, pods), 8));
    }
    for kflows in [8, 16] {
        for seed in 0..2 {
            pool.push((bench_cell(kflows, seed), 12));
        }
    }
    pool
}

fn plan_pool(greedy: GreedyConfig) -> Vec<Result<ShardOutcome, ScheduleError>> {
    pool()
        .iter()
        .map(|(inst, shards)| {
            shard_schedule_with(
                inst,
                ShardingConfig {
                    shards: *shards,
                    greedy,
                },
            )
        })
        .collect()
}

fn fold(outcomes: &[Result<ShardOutcome, ScheduleError>]) -> (u64, usize, usize) {
    let mut hash = Fnv::new();
    let (mut conflicted, mut fell_back) = (0, 0);
    for outcome in outcomes {
        match outcome {
            Err(_) => hash.u64(u64::MAX),
            Ok(out) => {
                hash.u64(out.schedule.len() as u64);
                for (flow, switch, t) in out.schedule.iter() {
                    hash.u64(u64::from(flow.0));
                    hash.u64(u64::from(switch.0));
                    hash.u64(t as u64);
                }
                hash.u64(out.makespan as u64);
                let ShardStats {
                    shards,
                    cross_links,
                    shared_links,
                    replan_rounds,
                    conflicts,
                    fell_back_joint,
                } = out.stats;
                for v in [shards, cross_links, shared_links, replan_rounds, conflicts] {
                    hash.u64(v as u64);
                }
                hash.u64(u64::from(fell_back_joint));
                conflicted += usize::from(conflicts > 0);
                fell_back += usize::from(fell_back_joint);
            }
        }
    }
    (hash.0, conflicted, fell_back)
}

#[test]
fn sharded_planner_returns_the_pinned_outcomes() {
    let (hash, conflicted, fell_back) = fold(&plan_pool(GreedyConfig::default()));
    eprintln!("shard pins: hash {hash}, {conflicted} conflicted, {fell_back} fell back");
    assert!(
        conflicted > 0 && fell_back > 0,
        "the pool must reach the optimistic rounds"
    );
    assert_eq!(
        (hash, conflicted, fell_back),
        (PINNED_HASH, PINNED_CONFLICTED, PINNED_FELL_BACK),
        "a sharded plan changed"
    );
}

#[test]
fn every_sharded_plan_certifies_against_the_original_instance() {
    for ((inst, _), outcome) in pool().iter().zip(plan_pool(GreedyConfig::default())) {
        if let Ok(out) = outcome {
            assert_eq!(
                chronus_verify::certify(inst, &out.schedule).err(),
                None,
                "{:?}",
                out.stats
            );
        }
    }
}

#[test]
fn disabled_verification_plans_the_same_shards() {
    let unverified = GreedyConfig {
        verify: VerifyConfig::disabled(),
        ..GreedyConfig::default()
    };
    let (on, off) = (plan_pool(GreedyConfig::default()), plan_pool(unverified));
    assert_eq!(fold(&off), fold(&on));
    for (on, off) in on.iter().zip(&off) {
        if let (Ok(on), Ok(off)) = (on, off) {
            assert!(on.certificate.is_some() && off.certificate.is_none());
        }
    }
}
