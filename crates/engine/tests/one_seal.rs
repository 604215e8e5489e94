//! One seal per plan: a shipped schedule is certified once per dilation
//! factor the slack stage tries, and by nothing else on the way.

use chronus_engine::{
    plan_with_chain, EngineConfig, EngineMetrics, PlannedUpdate, ShardingConfig, SlackPolicy,
    Stage, StageOutcome, UpdateRequest,
};
use chronus_net::topology::{fat_tree, LinkParams};
use chronus_net::{motivating_example, reversal_instance, Flow, FlowId, Path, UpdateInstance};
use chronus_timenet::{FluidSimulator, SimWorkspace, Verdict};
use chronus_trace::{Collector, SpanRecord};
use std::sync::Arc;
use std::time::Duration;

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

/// Plans `instance` with the collector on and counts the
/// `verify.certify` spans anywhere under the request's `engine.plan`.
fn certifications(instance: UpdateInstance, config: &EngineConfig) -> (PlannedUpdate, usize) {
    let request = UpdateRequest::new(1, Arc::new(instance), Duration::from_secs(600));
    let planned = plan_with_chain(
        &request,
        &EngineMetrics::new(),
        &mut SimWorkspace::default(),
        config,
    );
    let records = Collector::drain();
    let under_plan = |r: &SpanRecord| {
        let mut parent = r.parent;
        while let Some(id) = parent {
            if id == planned.span_id {
                return true;
            }
            parent = records.iter().find(|p| p.id == id).and_then(|p| p.parent);
        }
        false
    };
    let count = records
        .iter()
        .filter(|r| r.name == "verify.certify" && under_plan(r))
        .count();
    (planned, count)
}

#[test]
fn each_shipped_schedule_is_certified_once_per_dilation_factor() {
    let _guard = Collector::install();
    let slack = EngineConfig::default().with_slack(SlackPolicy::default());

    // 14 entries: the slack cube is over budget, so factor 1 ships.
    let (planned, count) = certifications(reversal_instance(16, 2, 1), &slack);
    assert_eq!((planned.winner, planned.dilation), (Stage::Greedy, 1));
    assert_eq!(count, 1, "greedy win, one factor");

    // Factors 1 and 2 are tried; each nominal schedule is certified once.
    let (planned, count) = certifications(motivating_example(), &slack);
    assert_eq!((planned.winner, planned.dilation), (Stage::Greedy, 2));
    assert_eq!(count, 2, "greedy win, two factors");

    // A sharded win: the merged schedule's joint verdict, then the seal.
    let sharded = slack.with_sharding(ShardingConfig::default());
    let (planned, count) = certifications(separable_instance(), &sharded);
    assert_eq!(planned.winner, Stage::Sharded);
    let factors = planned.dilation as usize;
    eprintln!("sharded win: {count} certifications, dilation {factors}");
    assert_eq!(count, 1 + factors, "sharded win: joint check plus the seal");
    let certificate = planned.certificate.as_ref().expect("sealed");
    assert_eq!(certificate.check(&separable_instance()), Ok(()));
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
