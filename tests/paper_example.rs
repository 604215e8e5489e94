//! End-to-end integration of every crate on the paper's worked
//! example (Figs. 1–5): the six-switch topology with unit capacities
//! and delays, old path v1→…→v6, new path v1→v4→v3→v2→v6.

use chronus::baselines::or::{or_rounds, OrConfig};
use chronus::baselines::tp::{chronus_peak_rule_count, tp_flip_report, tp_plan};
use chronus::core::exec::ExecutionPlan;
use chronus::core::greedy::{greedy_schedule, greedy_schedule_with, GreedyConfig};
use chronus::core::tree::{check_feasibility, Feasibility};
use chronus::net::{motivating_example, FlowId, SwitchId};
use chronus::opt::optimal_schedule;
use chronus::timenet::{FluidSimulator, Schedule, Verdict};
use chronus::verify::certify;

fn sid(i: u32) -> SwitchId {
    SwitchId(i)
}

#[test]
fn greedy_solves_and_certifies() {
    let inst = motivating_example();
    let out = greedy_schedule(&inst).expect("feasible");
    let report = FluidSimulator::check(&inst, &out.schedule);
    assert_eq!(report.verdict(), Verdict::Consistent, "{report}");
    out.schedule.validate(&inst).expect("complete schedule");
    // Paper Fig. 5: only v2 can go first.
    assert_eq!(out.schedule.get(FlowId(0), sid(1)), Some(0));
}

#[test]
fn optimum_is_three_steps_and_greedy_is_near_optimal() {
    let inst = motivating_example();
    let opt = optimal_schedule(&inst).expect("feasible");
    assert_eq!(opt.makespan, 2, "|T| = 3 time steps");
    let greedy = greedy_schedule(&inst).expect("feasible");
    assert!(greedy.makespan >= opt.makespan);
    assert!(
        greedy.makespan - opt.makespan <= 2,
        "greedy {} vs opt {}",
        greedy.makespan,
        opt.makespan
    );
}

#[test]
fn tree_algorithm_confirms_feasibility_with_witness() {
    let inst = motivating_example();
    match check_feasibility(&inst) {
        Feasibility::Feasible { schedule } => {
            let report = FluidSimulator::check(&inst, &schedule);
            assert_eq!(report.verdict(), Verdict::Consistent);
            // The search does not certify its witness; the independent
            // certifier must agree with it.
            let certificate = certify(&inst, &schedule).expect("witness certifies");
            assert_eq!(certificate.check(&inst), Ok(()));
        }
        other => panic!("expected feasible, got {other:?}"),
    }
}

#[test]
fn all_at_zero_violates_loop_freedom() {
    // Paper Fig. 2(a): "If all the switches are updated at t0, there
    // would be three forwarding loops."
    let inst = motivating_example();
    let report = FluidSimulator::check(&inst, &Schedule::all_at_zero(&inst));
    assert!(!report.loop_free());
}

#[test]
fn or_needs_three_rounds_and_always_congests() {
    let inst = motivating_example();
    let or = or_rounds(&inst, OrConfig::default()).expect("plan exists");
    assert_eq!(or.round_count(), 3, "rounds: {:?}", or.rounds);
    // With synchronous installation (zero latency) the first round's
    // redirect overlaps the draining old flow on unit-capacity links —
    // a deterministic witness that OR ignores capacity. (Randomized
    // latencies congest only for some draws, so the witness here is
    // pinned rather than sampled.)
    let mut rng = chronus::net::routing::seeded_rng(1234);
    let schedule = or.execute(inst.flow(), (0, 0), &mut rng);
    let report = FluidSimulator::check(&inst, &schedule);
    assert!(report.loop_free(), "OR plans avoid loops: {report}");
    assert!(
        !report.congestion_free(),
        "OR ignores capacity and must congest here"
    );
}

#[test]
fn tp_is_loop_free_but_needs_double_rules() {
    let inst = motivating_example();
    let flow = inst.flow();
    let plan = tp_plan(flow);
    assert_eq!(plan.peak_rule_count(), 12);
    assert_eq!(chronus_peak_rule_count(flow), 6);
    let report = tp_flip_report(&inst, 3);
    assert!(report.loops.is_empty());
}

#[test]
fn execution_plan_matches_schedule_rounds() {
    let inst = motivating_example();
    let out = greedy_schedule(&inst).expect("feasible");
    let plan = ExecutionPlan::from_schedule(&out.schedule);
    assert_eq!(plan.total_updates(), 4);
    assert_eq!(plan.horizon(), Some(out.makespan));
    assert_eq!(plan.round_count(), out.schedule.distinct_steps());
}

#[test]
fn strict_paper_mode_vs_robust_mode() {
    // The paper's Algorithm 2 aborts on a dependency cycle; the
    // motivating example has a transient one at t0, which the robust
    // default dissolves by waiting.
    let inst = motivating_example();
    let strict = greedy_schedule_with(
        &inst,
        GreedyConfig {
            fail_on_cycle: true,
            ..GreedyConfig::default()
        },
    );
    assert!(strict.is_err());
    let robust = greedy_schedule(&inst);
    assert!(robust.is_ok());
}

#[test]
fn every_scheduler_agrees_on_the_infeasible_variant() {
    // Fast shortcut over a shared unit-capacity tail: nobody can
    // schedule it cleanly.
    use chronus::net::{Flow, NetworkBuilder, Path, UpdateInstance};
    let mut b = NetworkBuilder::with_switches(4);
    b.add_link(sid(0), sid(1), 1, 1).unwrap();
    b.add_link(sid(1), sid(2), 1, 1).unwrap();
    b.add_link(sid(2), sid(3), 1, 1).unwrap();
    b.add_link(sid(0), sid(2), 1, 1).unwrap();
    let flow = Flow::new(
        FlowId(0),
        1,
        Path::new(vec![sid(0), sid(1), sid(2), sid(3)]),
        Path::new(vec![sid(0), sid(2), sid(3)]),
    )
    .unwrap();
    let inst = UpdateInstance::single(b.build(), flow).unwrap();
    assert!(greedy_schedule(&inst).is_err());
    assert!(optimal_schedule(&inst).is_err());
    assert!(matches!(
        check_feasibility(&inst),
        Feasibility::Infeasible { .. }
    ));
}
