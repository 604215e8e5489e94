//! Extension experiment: multi-flow joint scheduling.
//!
//! The paper's algorithms are single-flow; its formulation (3) is not.
//! This experiment quantifies what the joint view buys: `K` flows
//! migrate concurrently over a shared fabric, scheduled either
//! *jointly* (one greedy run over the combined instance, the exact
//! gate checking cross-flow capacity) or *independently* (each flow
//! scheduled alone, pretending the others do not exist — what a
//! per-flow deployment of the paper's algorithm would do). The joint
//! schedule is *certified* whenever it exists; the independent
//! composition is unverified — sometimes it collides on shared links,
//! sometimes it is merely lucky. The experiment counts both, and the
//! interesting cell is the gap: instances where the glued schedules
//! collide but the joint gate finds (and proves) a clean plan.
// Harness code: panicking on a malformed experiment is intended.
#![allow(clippy::indexing_slicing, clippy::expect_used, clippy::unwrap_used)]

use crate::util::RunOptions;
use chronus_core::greedy::greedy_schedule;
use chronus_net::routing::{biased_random_path, seeded_rng, shortest_path_delay};
use chronus_net::topology::{self, TopologyConfig};
use chronus_net::{Flow, FlowId, SwitchId, UpdateInstance};
use chronus_timenet::{FluidSimulator, Schedule};
use rand::Rng;

/// Result of the joint-vs-independent comparison.
#[derive(Clone, Copy, Debug, Default)]
pub struct MultiflowPoint {
    /// Flows per instance.
    pub flows: usize,
    /// Instances where the joint greedy found a clean schedule.
    pub joint_clean: usize,
    /// Instances where gluing independent per-flow schedules at t=0
    /// stayed clean.
    pub independent_clean: usize,
    /// Instances attempted (where every per-flow subproblem was
    /// feasible on its own).
    pub total: usize,
}

/// Builds a `K`-flow instance over one fabric: every flow moves from a
/// biased route to another biased route between its own endpoints.
/// Returns `None` if fewer than `k` flows could be placed.
pub fn multiflow_instance(n: usize, k: usize, seed: u64) -> Option<UpdateInstance> {
    let topo = TopologyConfig {
        switches: n,
        capacity_range: (500, 800),
        delay_range: (1, 5),
        seed,
    };
    let net = topology::random_connected(topo, n / 3);
    let mut rng = seeded_rng(seed ^ 0x11_F10);
    let mut flows = Vec::new();
    for fi in 0..k as u32 * 4 {
        if flows.len() == k {
            break;
        }
        let src = SwitchId(rng.gen_range(0..n as u32));
        let dst = SwitchId(rng.gen_range(0..n as u32));
        if src == dst {
            continue;
        }
        let Some(initial) = biased_random_path(&net, src, dst, 0.4, &mut rng)
            .or_else(|| shortest_path_delay(&net, src, dst))
        else {
            continue;
        };
        let Some(fin) = biased_random_path(&net, src, dst, 0.4, &mut rng) else {
            continue;
        };
        if fin == initial {
            continue;
        }
        let Ok(flow) = Flow::new(FlowId(flows.len() as u32), 300, initial, fin) else {
            continue;
        };
        if flow.validate(&net).is_err() {
            continue;
        }
        let _ = fi;
        flows.push(flow);
    }
    if flows.len() < k {
        return None;
    }
    // The combined instance may be statically infeasible (two flows
    // sharing a link beyond capacity even before/after migration);
    // those are skipped by the caller via validation.
    UpdateInstance::new(net, flows).ok()
}

/// Runs the comparison at `flows_per_instance` flows.
pub fn run(opts: &RunOptions, n: usize, flows_per_instance: usize) -> MultiflowPoint {
    let mut point = MultiflowPoint {
        flows: flows_per_instance,
        ..Default::default()
    };
    for i in 0..(opts.runs * opts.instances / 4).max(8) {
        let Some(inst) = multiflow_instance(n, flows_per_instance, opts.seed + i as u64) else {
            continue;
        };
        // Per-flow independent schedules must each exist.
        let mut independent = Schedule::new();
        let mut all_single_ok = true;
        for flow in &inst.flows {
            let single =
                UpdateInstance::single(inst.network.clone(), flow.clone()).expect("validated");
            match greedy_schedule(&single) {
                Ok(out) => {
                    for (_, v, t) in out.schedule.iter() {
                        independent.set(flow.id, v, t);
                    }
                }
                Err(_) => {
                    all_single_ok = false;
                    break;
                }
            }
        }
        if !all_single_ok {
            continue;
        }
        point.total += 1;

        if FluidSimulator::check(&inst, &independent).verdict()
            == chronus_timenet::Verdict::Consistent
        {
            point.independent_clean += 1;
        }
        if greedy_schedule(&inst).is_ok() {
            point.joint_clean += 1;
        }
    }
    point
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn joint_scheduling_dominates_independent() {
        let opts = RunOptions {
            runs: 1,
            instances: 48,
            ..Default::default()
        };
        let point = run(&opts, 14, 3);
        assert!(
            point.total >= 5,
            "need comparable instances, got {}",
            point.total
        );
        // At this (deterministic) configuration the joint scheduler
        // certifies at least as many migrations as independent
        // composition gets lucky on.
        assert!(
            point.joint_clean >= point.independent_clean,
            "joint {} vs independent {}",
            point.joint_clean,
            point.independent_clean
        );
    }
}
