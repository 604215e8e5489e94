//! One seal per plan: a shipped schedule is certified once per dilation
//! factor the slack stage tries, and by nothing else on the way.

use chronus_engine::{
    plan_with_chain, EngineConfig, EngineMetrics, PlannedUpdate, ShardingConfig, SlackPolicy,
    Stage, StageOutcome, UpdateRequest,
};
use chronus_net::topology::{fat_tree, LinkParams};
use chronus_net::{
    motivating_example, reversal_instance, Flow, FlowId, InstanceGenerator,
    InstanceGeneratorConfig, Path, UpdateInstance,
};
use chronus_timenet::{FluidSimulator, SimWorkspace, Verdict};
use chronus_trace::FlightRecorder;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Ring slots per thread: this binary's threads record a few hundred
/// events each, so none is overwritten.
const RING_SLOTS: usize = 4096;

/// k = 4 fat tree with one pod-local migration per pod: the sharded
/// stage plans it as four shards with no shared link.
fn separable_instance() -> UpdateInstance {
    let net = fat_tree(
        4,
        LinkParams {
            capacity: 1000,
            delay: 1,
        },
    );
    let named = |name: String| {
        net.switches()
            .find(|&s| net.switch_name(s) == Some(name.as_str()))
            .expect("fat-tree switch")
    };
    let flows = (0..4u32)
        .map(|pod| {
            let e0 = named(format!("edge{}", 2 * pod));
            let e1 = named(format!("edge{}", 2 * pod + 1));
            let a0 = named(format!("agg{}", 2 * pod));
            let a1 = named(format!("agg{}", 2 * pod + 1));
            Flow::new(
                FlowId(pod),
                100,
                Path::new(vec![e0, a0, e1]),
                Path::new(vec![e0, a1, e1]),
            )
            .expect("pod-local flow")
        })
        .collect();
    UpdateInstance::new(net, flows).expect("separable instance")
}

/// Plans `instance` with the flight recorder on and counts the spans
/// with each of `names` anywhere under the request's `engine.plan`.
/// The recorder stays on: the other tests of this binary may be
/// planning concurrently, and each keeps to its own plan's subtree.
fn spans_under_plan<const N: usize>(
    instance: UpdateInstance,
    config: &EngineConfig,
    names: [&str; N],
) -> (PlannedUpdate, [usize; N]) {
    FlightRecorder::enable(RING_SLOTS);
    let request = UpdateRequest::new(1, Arc::new(instance), Duration::from_secs(600));
    let planned = plan_with_chain(
        &request,
        &EngineMetrics::new(),
        &mut SimWorkspace::default(),
        config,
    );
    let snapshot = FlightRecorder::snapshot();
    let parents: HashMap<u64, Option<u64>> =
        snapshot.events.iter().map(|e| (e.id, e.parent)).collect();
    let mine: Vec<_> = snapshot
        .events
        .iter()
        .filter(|e| {
            std::iter::successors(e.parent, |id| parents.get(id).copied().flatten())
                .any(|id| id == planned.span_id)
        })
        .collect();
    // The plan ran on this thread: its ring overwrote nothing, so no
    // span of the plan can be missing from the count.
    let ring = snapshot
        .rings
        .iter()
        .find(|r| Some(r.tid) == mine.first().map(|e| e.tid));
    assert_eq!(ring.map(|r| r.dropped), Some(0), "{ring:?}");
    let count = |name: &str| mine.iter().filter(|e| e.name == name).count();
    let counts = names.map(count);
    (planned, counts)
}

#[test]
fn each_shipped_schedule_is_certified_once_per_dilation_factor() {
    let slack = EngineConfig::default().with_slack(SlackPolicy::default());

    // 14 entries: the slack cube is over budget, so factor 1 ships.
    let (planned, [count]) =
        spans_under_plan(reversal_instance(16, 2, 1), &slack, ["verify.certify"]);
    assert_eq!((planned.winner, planned.dilation), (Stage::Greedy, 1));
    assert_eq!(count, 1, "greedy win, one factor");

    // Factors 1 and 2 are tried; each nominal schedule is certified once.
    let (planned, [count]) = spans_under_plan(motivating_example(), &slack, ["verify.certify"]);
    assert_eq!((planned.winner, planned.dilation), (Stage::Greedy, 2));
    assert_eq!(count, 2, "greedy win, two factors");

    // A sharded win: the merged schedule's joint verdict, then the seal.
    let sharded = slack.with_sharding(ShardingConfig::default());
    let (planned, [count]) = spans_under_plan(separable_instance(), &sharded, ["verify.certify"]);
    assert_eq!(planned.winner, Stage::Sharded);
    let factors = planned.dilation as usize;
    eprintln!("sharded win: {count} certifications, dilation {factors}");
    assert_eq!(count, 1 + factors, "sharded win: joint check plus the seal");
    let certificate = planned.certificate.as_ref().expect("sealed");
    assert_eq!(certificate.check(&separable_instance()), Ok(()));
}

/// Tree wins: greedy refuses some of the first five paper instances of
/// this seed and the tree search plans them. The search certifies
/// nothing and runs no greedy of its own.
#[test]
fn a_tree_win_is_certified_once_per_dilation_factor() {
    let slack = EngineConfig::default().with_slack(SlackPolicy::default());
    let mut generator = InstanceGenerator::new(InstanceGeneratorConfig::paper(10, 21));
    let mut tree_wins = 0;
    for _ in 0..5 {
        let Some(instance) = generator.generate() else {
            continue;
        };
        let (planned, [count, greedy]) =
            spans_under_plan(instance, &slack, ["verify.certify", "core.greedy"]);
        if planned.winner != Stage::Tree {
            continue;
        }
        tree_wins += 1;
        assert_eq!((planned.dilation, count), (2, 2), "tree win, two factors");
        assert_eq!(greedy, 1, "tree win: greedy plans once, as its own stage");
    }
    assert!(tree_wins > 0, "the first five draws hold a tree win");
}

#[test]
fn sharded_stage_wins_multi_flow_requests_when_configured() {
    let inst = separable_instance();
    let request = UpdateRequest::new(1, Arc::new(inst.clone()), Duration::from_secs(30));
    let plan = |config: &EngineConfig| {
        let metrics = EngineMetrics::new();
        plan_with_chain(&request, &metrics, &mut SimWorkspace::default(), config)
    };
    let planned = plan(&EngineConfig::default().with_sharding(ShardingConfig::default()));
    assert_eq!(planned.winner, Stage::Sharded);
    assert_eq!(planned.attempts.len(), 4);
    for stage in [Stage::Greedy, Stage::Tree, Stage::TwoPhase] {
        assert!(matches!(
            planned.attempt(stage).unwrap().outcome,
            StageOutcome::Skipped(_)
        ));
    }
    // The seal's certificate covers the merged schedule against the
    // original joint instance.
    let cert = planned.certificate.as_ref().expect("sealed certificate");
    assert_eq!(cert.check(&inst), Ok(()));
    let schedule = planned.timed_schedule().expect("timed plan");
    assert_eq!(
        FluidSimulator::check(&inst, schedule).verdict(),
        Verdict::Consistent
    );
    // Without a sharding config the attempt list stays three-stage.
    let unsharded = plan(&EngineConfig::default());
    assert!(unsharded.attempt(Stage::Sharded).is_none());
    assert_eq!(unsharded.attempts.len(), 3);
}
