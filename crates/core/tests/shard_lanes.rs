//! How many threads one sharded plan uses.
//!
//! Alone in its binary: the trace collector is process-global, and the
//! spans of shard lanes on other threads carry no parent to tell one
//! plan's from another's.

use chronus_core::shard::{shard_schedule_with, ShardingConfig};
use chronus_net::topology::{fat_tree, LinkParams};
use chronus_net::{Flow, FlowId, Path, UpdateInstance};
use std::collections::BTreeSet;

/// A k = 8 fat tree with one pod-local migration per pod: eight
/// independent shards.
fn eight_pod_instance() -> UpdateInstance {
    let net = fat_tree(
        8,
        LinkParams {
            capacity: 1000,
            delay: 1,
        },
    );
    let named = |name: String| {
        net.switches()
            .find(|&s| net.switch_name(s) == Some(name.as_str()))
            .expect("fat-tree switch name")
    };
    let flows = (0..8u32)
        .map(|pod| {
            let (e0, e1) = (
                named(format!("edge{}", 4 * pod)),
                named(format!("edge{}", 4 * pod + 1)),
            );
            let (a0, a1) = (
                named(format!("agg{}", 4 * pod)),
                named(format!("agg{}", 4 * pod + 1)),
            );
            Flow::new(
                FlowId(pod),
                100,
                Path::new(vec![e0, a0, e1]),
                Path::new(vec![e0, a1, e1]),
            )
            .expect("pod-local paths")
        })
        .collect();
    UpdateInstance::new(net, flows).expect("eight-pod instance")
}

/// Eight shards are planned on one lane per core, the caller being
/// one of them — not on eight threads of their own.
#[test]
fn shards_are_planned_on_one_lane_per_core() {
    let _guard = chronus_trace::Collector::install();
    let out = shard_schedule_with(&eight_pod_instance(), ShardingConfig::default()).expect("plans");
    assert_eq!((out.stats.shards, out.stats.fell_back_joint), (8, false));

    let records = chronus_trace::Collector::drain();
    let caller = records
        .iter()
        .find(|r| r.name == "core.shard")
        .expect("the sharded plan's span")
        .thread;
    let shard_plans: Vec<u64> = records
        .iter()
        .filter(|r| r.name == "core.greedy")
        .map(|r| r.thread)
        .collect();
    assert_eq!(shard_plans.len(), 8, "one greedy run per shard");
    let lanes: BTreeSet<u64> = shard_plans.into_iter().collect();
    assert!(lanes.contains(&caller), "the caller plans shards itself");
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    assert!(
        lanes.len() <= cores,
        "{} lanes on {cores} cores",
        lanes.len()
    );
}
