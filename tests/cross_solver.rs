//! Cross-validation of the three exact routes to OPT: the
//! schedule-space branch and bound, the ILP of program (3), and the
//! brute-force enumeration oracle.

use chronus::net::{InstanceGenerator, InstanceGeneratorConfig};
use chronus::opt::enumerate::enumerate_consistent_schedules;
use chronus::opt::ilp::{build_mutp_ilp, ilp_optimal};
use chronus::opt::{optimal_schedule_with, OptConfig};
use chronus::timenet::{FluidSimulator, Verdict};
use std::time::Duration;

fn small_instances(count: usize) -> Vec<chronus::net::UpdateInstance> {
    let mut gen = InstanceGenerator::new(InstanceGeneratorConfig::paper(8, 2024));
    gen.generate_batch(count)
        .into_iter()
        .filter(|inst| inst.flow().switches_to_update().len() <= 6)
        .collect()
}

#[test]
fn search_and_oracle_agree_on_optimal_makespan() {
    let mut compared = 0;
    for inst in small_instances(12) {
        // Keep the brute-force oracle affordable in debug builds: skip
        // instances whose assignment space exceeds the cap.
        if inst.flow().switches_to_update().len() > 5 {
            continue;
        }
        let search = optimal_schedule_with(
            &inst,
            OptConfig {
                budget: Duration::from_secs(5),
                ..Default::default()
            },
        );
        let oracle = enumerate_consistent_schedules(&inst, 5, 300_000);
        if !oracle.exhaustive {
            continue;
        }
        match (search, oracle.optimal_makespan()) {
            (Ok(s), Some(m)) => {
                assert_eq!(s.makespan, m, "search vs oracle on {inst:?}");
                compared += 1;
            }
            (Err(_), Some(m)) => {
                panic!("oracle found makespan {m} but search said infeasible")
            }
            (Ok(s), None) if s.makespan <= 5 => {
                panic!("search found makespan {} but oracle found none", s.makespan)
            }
            _ => {}
        }
    }
    assert!(
        compared >= 2,
        "need a few solvable instances, got {compared}"
    );
}

#[test]
fn ilp_route_matches_search_route() {
    let mut compared = 0;
    for inst in small_instances(12) {
        if inst.flow().switches_to_update().len() > 4 {
            continue; // keep path enumeration tractable
        }
        let search = optimal_schedule_with(
            &inst,
            OptConfig {
                budget: Duration::from_secs(5),
                ..Default::default()
            },
        );
        let ilp = ilp_optimal(&inst, 5, Duration::from_secs(20));
        match (search, ilp) {
            (Ok(s), Ok((schedule, makespan, certificate))) if s.makespan <= 5 => {
                assert_eq!(s.makespan, makespan);
                let report = FluidSimulator::check(&inst, &schedule);
                assert_eq!(report.verdict(), Verdict::Consistent);
                assert_eq!(certificate.check(&inst), Ok(()));
                compared += 1;
            }
            (Err(_), Ok((_, m, _))) => panic!("ILP found |T|={} where search failed", m + 1),
            _ => {}
        }
    }
    assert!(
        compared >= 2,
        "need a few comparable instances, got {compared}"
    );
}

#[test]
fn ilp_model_structure_is_well_formed() {
    for inst in small_instances(6).into_iter().take(2) {
        let (model, vars, _) = build_mutp_ilp(&inst, 3, 512);
        assert_eq!(model.variables.len(), vars.len());
        assert_eq!(model.objective.len(), vars.len());
        // Every constraint's variable indices are in range and the
        // pick-one constraint exists for the flow.
        for c in &model.constraints {
            for &(vi, coeff) in &c.terms {
                assert!(vi < vars.len());
                assert!(coeff > 0);
            }
        }
        assert!(model.constraints.iter().any(|c| c.label.contains("(3b)")));
    }
}
