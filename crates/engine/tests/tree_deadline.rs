//! The request deadline binds inside the tree stage.
//!
//! Greedy refuses the n = 400 paper instance of seed 64, and
//! Algorithm 1 needs over a second (release build) to exhaust its
//! update orders. Under a deadline that leaves the tree stage 50 ms
//! the search stops there, and the request leaves with the two-phase
//! fallback.

use chronus_core::greedy::greedy_schedule;
use chronus_engine::{
    plan_with_chain, EngineConfig, EngineMetrics, PlanKind, Stage, StageOutcome, UpdateRequest,
};
use chronus_net::{InstanceGenerator, InstanceGeneratorConfig};
use chronus_timenet::SimWorkspace;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The tree stage's share of the deadline.
const TREE_SHARE: Duration = Duration::from_millis(50);
/// What the chain may spend past the tree search's deadline: the last
/// probes before the clock is read, the two-phase plan and its
/// certificate.
const MARGIN: Duration = Duration::from_millis(100);

#[test]
fn a_slow_tree_search_stops_at_the_request_deadline() {
    let instance = InstanceGenerator::new(InstanceGeneratorConfig::paper(400, 64))
        .generate()
        .expect("seed 64 generates");
    // Greedy runs first: ≈ 12 ms in a release build, ≈ 80 ms in a
    // debug one (2-vCPU host). Give it twice its own time on top, so
    // the tree stage starts in either.
    let greedy_started = Instant::now();
    assert!(greedy_schedule(&instance).is_err());
    let deadline = TREE_SHARE + 2 * greedy_started.elapsed();
    let request = UpdateRequest::new(1, Arc::new(instance), deadline);
    let metrics = EngineMetrics::new();
    let started = Instant::now();
    let planned = plan_with_chain(
        &request,
        &metrics,
        &mut SimWorkspace::default(),
        &EngineConfig::default(),
    );
    let elapsed = started.elapsed();

    let greedy = planned.attempt(Stage::Greedy).expect("greedy ran");
    assert!(
        matches!(greedy.outcome, StageOutcome::Failed(_)),
        "{:?}",
        greedy.outcome
    );
    assert_eq!(
        planned.attempt(Stage::Tree).map(|a| &a.outcome),
        Some(&StageOutcome::Failed("deadline exhausted".into()))
    );
    assert!(planned.deadline_exceeded);
    assert_eq!(planned.winner, Stage::TwoPhase);
    assert!(matches!(planned.plan, PlanKind::TwoPhase(_)));
    assert_eq!(metrics.report().timeouts, 1);
    assert!(
        elapsed <= deadline + greedy.elapsed + MARGIN,
        "planned in {elapsed:?}; greedy took {:?}",
        greedy.elapsed
    );
}
