//! Pins what the slack stage ships, request by request.
//!
//! A fixed-seed pool — paper-generator instances at n = 10/20/40,
//! fig10-scale route reversals on both sides of the 12-entry budget
//! boundary, and fat-tree multi-flow hand-off chains under the sharded
//! pre-stage — is planned through [`plan_with_chain`] with the
//! production slack policy, and everything the stage decides (winner,
//! schedule, dilation factor, certified tolerance, budget verdict,
//! certifications spent, whether a counterexample was found) is folded
//! into one FNV-1a hash. The constants below were recorded before the
//! stage was refactored; a change that moves them changed a shipped
//! plan.

use chronus_engine::{
    plan_with_chain, EngineConfig, EngineMetrics, ShardingConfig, SlackPolicy, UpdateRequest,
};
use chronus_net::routing::{random_simple_path, seeded_rng};
use chronus_net::topology::{self, fat_tree, LinkParams, TopologyConfig};
use chronus_net::{
    segment_reversal_at, Flow, FlowId, InstanceGenerator, InstanceGeneratorConfig, Path, SwitchId,
    UpdateInstance,
};
use chronus_timenet::SimWorkspace;
use rand::Rng;
use std::sync::Arc;
use std::time::Duration;

/// Hash of every pinned field over the whole pool, in pool order.
const PINNED_HASH: u64 = 5_701_617_626_529_205_791;
/// `chronus_engine_slack_{certified,target_missed,dilated,schedules_checked}_total`
/// after the pool.
const PINNED_COUNTERS: [u64; 4] = [208, 10, 129, 105_103];

const SEED: u64 = 20_170_605;

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

/// 70 paper-generator instances at each of n = 10, 20, 40.
fn paper_pool() -> Vec<UpdateInstance> {
    let mut pool = Vec::new();
    for n in [10usize, 20, 40] {
        let mut gen = InstanceGenerator::new(InstanceGeneratorConfig::paper(n, SEED ^ n as u64));
        let before = pool.len();
        while pool.len() < before + 70 {
            pool.extend(gen.generate());
        }
    }
    pool
}

/// The Fig. 10 scale workload (`chronus_bench::fig10::scale_instance`):
/// a sparse `n`-switch topology whose longest random route is reversed
/// end to end.
fn scale_instance(n: usize, seed: u64) -> Option<UpdateInstance> {
    let net = topology::random_connected(
        TopologyConfig {
            switches: n,
            capacity_range: (300, 700),
            delay_range: (1, 10),
            seed,
        },
        n / 5,
    );
    let mut rng = seeded_rng(seed ^ 0x5CA1E);
    let mut best: Option<Path> = None;
    for _ in 0..6 {
        let src = SwitchId(rng.gen_range(0..n as u32));
        let dst = SwitchId(rng.gen_range(0..n as u32));
        if src == dst {
            continue;
        }
        if let Some(p) = random_simple_path(&net, src, dst, &mut rng) {
            if best.as_ref().is_none_or(|b| p.len() > b.len()) {
                best = Some(p);
            }
        }
    }
    let initial = best?;
    let last = initial.len() - 1;
    let (net, fin) =
        segment_reversal_at(&net, &initial, 0, last, 300, (300, 700), (1, 10), &mut rng)?;
    let flow = Flow::new(FlowId(0), 300, initial, fin).ok()?;
    flow.validate(&net).ok()?;
    UpdateInstance::single(net, flow).ok()
}

/// Eight 64-switch scale instances whose schedules have ≥ 13 entries
/// (the k = 1 cube is over budget) and four with fewer (it is walked).
fn scale_pool() -> Vec<UpdateInstance> {
    let (mut over, mut under) = (Vec::new(), Vec::new());
    for seed in SEED.. {
        if over.len() == 8 && under.len() == 4 {
            break;
        }
        let Some(inst) = scale_instance(64, seed) else {
            continue;
        };
        let entries = inst.flows[0].switches_to_update().len();
        if entries >= 13 && over.len() < 8 {
            over.push(inst);
        } else if (6..13).contains(&entries) && under.len() < 4 {
            under.push(inst);
        }
    }
    over.extend(under);
    over
}

/// `kflows` hand-off migrations on an arity-12 fat tree, spread over
/// `pods` pods: within a pod, flow `j` moves from aggregation switch
/// `j` onto `j + 1`, which flow `j + 1` still occupies (capacity 150
/// against demand 100, so the hand-offs must be timed).
fn chain_instance(kflows: usize, pods: usize) -> UpdateInstance {
    let net = fat_tree(
        12,
        LinkParams {
            capacity: 150,
            delay: 1,
        },
    );
    let half = 6;
    let named = |name: String| {
        net.switches()
            .find(|&s| net.switch_name(s) == Some(name.as_str()))
            .expect("fat-tree switch")
    };
    let flows = (0..kflows)
        .map(|t| {
            let (pod, j) = (t % pods, t / pods);
            let e0 = named(format!("edge{}", pod * half));
            let e1 = named(format!("edge{}", pod * half + 1));
            let agg = |a: usize| named(format!("agg{}", pod * half + a));
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

#[test]
fn slack_stage_ships_the_pinned_plans() {
    let mut pool = paper_pool();
    assert!(pool.len() >= 200);
    pool.extend(scale_pool());
    pool.extend([
        chain_instance(4, 2),
        chain_instance(8, 4),
        chain_instance(12, 4),
    ]);

    let config = EngineConfig::default()
        .with_slack(SlackPolicy::default())
        .with_sharding(ShardingConfig {
            shards: 8,
            ..ShardingConfig::default()
        });
    let metrics = EngineMetrics::new();
    let mut ws = SimWorkspace::default();
    let mut hash = Fnv::new();
    for (id, inst) in pool.into_iter().enumerate() {
        let req = UpdateRequest::new(id as u64, Arc::new(inst), Duration::from_secs(600));
        let planned = plan_with_chain(&req, &metrics, &mut ws, &config);
        hash.u64(planned.winner as u64);
        if let Some(schedule) = planned.plan.schedule() {
            hash.u64(schedule.len() as u64);
            for (flow, switch, t) in schedule.iter() {
                hash.u64(u64::from(flow.0));
                hash.u64(u64::from(switch.0));
                hash.u64(t as u64);
            }
        }
        hash.u64(planned.dilation as u64);
        match &planned.slack {
            None => hash.u64(u64::MAX),
            Some(slack) => {
                hash.u64(slack.slack_steps as u64);
                hash.u64(u64::from(slack.budget_exhausted));
                hash.u64(slack.schedules_checked as u64);
                hash.u64(u64::from(slack.counterexample.is_some()));
            }
        }
    }

    let snapshot = metrics.snapshot();
    let counters = [
        "chronus_engine_slack_certified_total",
        "chronus_engine_slack_target_missed_total",
        "chronus_engine_slack_dilated_total",
        "chronus_engine_slack_schedules_checked_total",
    ]
    .map(|name| snapshot.counter(name).expect(name));
    assert_eq!(
        (hash.0, counters),
        (PINNED_HASH, PINNED_COUNTERS),
        "a shipped plan or slack verdict changed"
    );
}
