//! The slack hypercube runs on the certifier's reusable workspace: what
//! a point's verdict and counterexample must still equal, and what the
//! walk may no longer record.

use chronus_engine::{
    plan_with_chain, EngineConfig, EngineMetrics, PlannedUpdate, ShardingConfig, SlackPolicy,
    UpdateRequest,
};
use chronus_net::topology::{fat_tree, LinkParams};
use chronus_net::{
    reversal_instance, Flow, FlowId, InstanceGenerator, InstanceGeneratorConfig, Path,
    UpdateInstance,
};
use chronus_timenet::SimWorkspace;
use chronus_trace::{Collector, FieldValue};
use chronus_verify::{certify_with, slack_certificate, VerifyConfig, Violation};
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 20_170_605;

fn plan(id: u64, instance: UpdateInstance, config: &EngineConfig) -> PlannedUpdate {
    let request = UpdateRequest::new(id, Arc::new(instance), Duration::from_secs(600));
    plan_with_chain(
        &request,
        &EngineMetrics::new(),
        &mut SimWorkspace::default(),
        config,
    )
}

/// `kflows` hand-off migrations on an arity-12 fat tree over `pods`
/// pods (the multi-flow family of `slack_stage_pins.rs`): flow `j` of a
/// pod moves onto the aggregation switch flow `j + 1` still occupies.
fn chain_instance(kflows: usize, pods: usize) -> UpdateInstance {
    let net = fat_tree(
        12,
        LinkParams {
            capacity: 150,
            delay: 1,
        },
    );
    let named = |name: String| {
        net.switches()
            .find(|&s| net.switch_name(s) == Some(name.as_str()))
            .expect("fat-tree switch")
    };
    let flows = (0..kflows)
        .map(|t| {
            let (pod, j) = (t % pods, t / pods);
            let e0 = named(format!("edge{}", pod * 6));
            let e1 = named(format!("edge{}", pod * 6 + 1));
            let agg = |a: usize| named(format!("agg{}", pod * 6 + a));
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

/// A failing cube point's counterexample is exactly what a fresh public
/// certification of that perturbed schedule returns: same schedule
/// entries, same violation, same severity order.
#[test]
fn counterexamples_equal_a_fresh_certification() {
    let mut pool = Vec::new();
    for n in [10usize, 20, 40] {
        let mut gen = InstanceGenerator::new(InstanceGeneratorConfig::paper(n, SEED ^ n as u64));
        let before = pool.len();
        while pool.len() < before + 70 {
            pool.extend(gen.generate());
        }
    }
    let single_flow = pool.len();
    pool.extend([
        chain_instance(2, 1),
        chain_instance(3, 1),
        chain_instance(4, 1),
    ]);

    let config = EngineConfig::default().with_sharding(ShardingConfig {
        shards: 8,
        ..ShardingConfig::default()
    });
    let verdict_only = VerifyConfig {
        enabled: true,
        witnesses: false,
    };
    // Counterexamples seen: [single-flow, multi-flow], and by kind.
    let mut seen = [0usize; 2];
    let (mut congestion, mut loops) = (0usize, 0usize);
    for (id, instance) in pool.into_iter().enumerate() {
        let planned = plan(id as u64, instance.clone(), &config);
        let Some(schedule) = planned.plan.schedule() else {
            continue;
        };
        for factor in 1..=4 {
            let Ok((_, slack)) = slack_certificate(&instance, &schedule.dilated(factor)) else {
                continue;
            };
            let Some((bad, violation)) = slack.counterexample else {
                continue;
            };
            assert_eq!(bad.len(), schedule.len(), "instance {id} factor {factor}");
            assert_eq!(
                certify_with(&instance, &bad, &verdict_only),
                Err(violation.clone()),
                "instance {id} factor {factor}"
            );
            seen[usize::from(id >= single_flow)] += 1;
            match violation {
                Violation::Congestion { .. } => congestion += 1,
                Violation::ForwardingLoop { .. } => loops += 1,
                _ => {}
            }
        }
    }
    assert!(seen[0] >= 200 && seen[1] >= 2, "counterexamples {seen:?}");
    assert!(congestion > 0 && loops > 0, "{congestion} / {loops}");
}

/// A 12-entry plan walks a 4 096-point cube under one `verify.slack`
/// span; the only `verify.certify` under a search is its nominal
/// certification, not one per point.
#[test]
fn a_cube_walk_records_one_search_span_and_no_span_per_point() {
    let _guard = Collector::install();
    let config = EngineConfig::default().with_slack(SlackPolicy::default());
    let planned = plan(9, reversal_instance(13, 2, 1), &config);
    assert_eq!(planned.timed_schedule().expect("timed plan").len(), 12);

    // The other test of this binary may be planning concurrently: keep
    // what descends from this plan's span.
    let records = Collector::drain();
    let parent_of = |id: u64| records.iter().find(|r| r.id == id).and_then(|r| r.parent);
    let under_plan = |id: u64| {
        std::iter::successors(Some(id), |&id| parent_of(id)).any(|id| id == planned.span_id)
    };
    let searches: Vec<_> = records
        .iter()
        .filter(|r| r.name == "verify.slack" && under_plan(r.id))
        .collect();
    let full_walks = searches
        .iter()
        .filter(|r| {
            r.fields
                .iter()
                .any(|(key, value)| *key == "schedules_checked" && *value == FieldValue::U64(4096))
        })
        .count();
    assert_eq!(full_walks, 1, "{} searches", searches.len());
    for search in &searches {
        let certifications = records
            .iter()
            .filter(|r| r.name == "verify.certify" && r.parent == Some(search.id))
            .count();
        assert_eq!(certifications, 1, "under search {}", search.id);
    }
}
