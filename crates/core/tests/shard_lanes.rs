//! How many threads one sharded plan uses, and that every lane's work
//! stays inside the plan's span.

use chronus_core::shard::{shard_schedule_with, ShardingConfig};
use chronus_net::topology::{fat_tree, LinkParams};
use chronus_net::{Flow, FlowId, Path, UpdateInstance};
use chronus_trace::FlightRecorder;
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
    FlightRecorder::enable(4096);
    let out = shard_schedule_with(&eight_pod_instance(), ShardingConfig::default()).expect("plans");
    assert_eq!((out.stats.shards, out.stats.fell_back_joint), (8, false));

    let snapshot = FlightRecorder::snapshot();
    assert!(
        snapshot.rings.iter().all(|r| r.dropped == 0),
        "{:?}",
        snapshot.rings
    );
    let shard = snapshot
        .events
        .iter()
        .find(|e| e.name == "core.shard")
        .expect("the sharded plan's span");
    // Every greedy run is a child of `core.shard`, the caller's and
    // those on lane threads alike.
    let shard_plans: Vec<u64> = snapshot
        .events
        .iter()
        .filter(|e| e.name == "core.greedy" && e.parent == Some(shard.id))
        .map(|e| e.tid)
        .collect();
    let caller = shard.tid;
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
