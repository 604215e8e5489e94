//! Figures 7 and 8: the congestion sweep.
//!
//! "We first investigate the percentage of congestion cases by
//! comparing 500 different update instances in each run … the number
//! of switches varies from 10 to 60 at the increment of 10" (§V-B).
//! Fig. 7 reports the percentage of congestion-free instances per
//! scheme; Fig. 8 the number of congested time-extended links.

use crate::best_effort_schedule;
use crate::util::RunOptions;
use chronus_baselines::or::{or_rounds_greedy, OrOutcome};
use chronus_core::greedy::greedy_schedule;
use chronus_net::{InstanceGenerator, InstanceGeneratorConfig, TimeStep, UpdateInstance};
use chronus_opt::{optimal_schedule_with, OptConfig};
use chronus_timenet::{FluidSimulator, Schedule};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One row of the Fig. 7 / Fig. 8 sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepPoint {
    /// Number of switches.
    pub switches: usize,
    /// % of instances Chronus migrates congestion-free.
    pub chronus_free_pct: f64,
    /// % for OPT.
    pub opt_free_pct: f64,
    /// % for OR.
    pub or_free_pct: f64,
    /// Mean congested time-extended links per instance, Chronus
    /// (best-effort schedule on infeasible instances).
    pub chronus_congested_links: f64,
    /// Mean congested time-extended links per instance, OR.
    pub or_congested_links: f64,
}

fn simulate_quiet(instance: &UpdateInstance, schedule: &Schedule) -> (bool, usize) {
    let report = FluidSimulator::new(instance).run(schedule);
    (report.congestion_free(), report.congested_te_link_count())
}

fn or_schedule(instance: &UpdateInstance, rng: &mut StdRng) -> Option<Schedule> {
    let OrOutcome { rounds, .. } = or_rounds_greedy(instance).ok()?;
    let flow = instance.flow();
    // Installation latencies in model steps: up to twice the largest
    // link delay, mimicking the Dionysus latency data relative to
    // propagation times.
    let max_latency = (instance.network.max_delay() as TimeStep * 2).max(1);
    Some(
        OrOutcome {
            rounds,
            exact: false,
        }
        .execute(flow, (0, max_latency), rng),
    )
}

/// Runs the sweep over `sizes` switch counts.
pub fn run_sweep(opts: &RunOptions, sizes: &[usize]) -> Vec<SweepPoint> {
    let mut out = Vec::new();
    for &n in sizes {
        let mut total = 0usize;
        let mut chronus_free = 0usize;
        let mut opt_free = 0usize;
        let mut or_free = 0usize;
        let mut chronus_links = 0usize;
        let mut or_links = 0usize;

        for run in 0..opts.runs {
            let cfg = InstanceGeneratorConfig::paper(n, opts.seed + run as u64 * 7919);
            let mut gen = InstanceGenerator::new(cfg);
            let mut rng = StdRng::seed_from_u64(opts.seed ^ (run as u64) << 17);
            for inst in gen.generate_batch(opts.instances) {
                total += 1;
                // Chronus: the greedy either certifies a clean
                // schedule or reports infeasibility.
                let greedy_ok = greedy_schedule(&inst).is_ok();
                if greedy_ok {
                    chronus_free += 1;
                } else {
                    let (_, links) = simulate_quiet(&inst, &best_effort_schedule(&inst));
                    chronus_links += links;
                }
                // OPT: exact within budget; the greedy witness already
                // certifies feasibility, so only failures consult it.
                if greedy_ok {
                    opt_free += 1;
                } else {
                    let opt = optimal_schedule_with(
                        &inst,
                        OptConfig {
                            budget: opts.budget,
                        },
                    );
                    if opt.is_ok() {
                        opt_free += 1;
                    }
                }
                // OR: delay- and capacity-oblivious rounds under
                // asynchronous installation.
                if let Some(schedule) = or_schedule(&inst, &mut rng) {
                    let (free, links) = simulate_quiet(&inst, &schedule);
                    if free {
                        or_free += 1;
                    }
                    or_links += links;
                }
            }
        }

        let pct = |x: usize| 100.0 * x as f64 / total.max(1) as f64;
        out.push(SweepPoint {
            switches: n,
            chronus_free_pct: pct(chronus_free),
            opt_free_pct: pct(opt_free),
            or_free_pct: pct(or_free),
            chronus_congested_links: chronus_links as f64 / total.max(1) as f64,
            or_congested_links: or_links as f64 / total.max(1) as f64,
        });
    }
    out
}

/// The paper's switch counts for Figs. 7 and 8.
pub const PAPER_SIZES: [usize; 6] = [10, 20, 30, 40, 50, 60];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shapes_match_the_paper() {
        let opts = RunOptions {
            runs: 1,
            instances: 25,
            ..Default::default()
        };
        let points = run_sweep(&opts, &[12, 24]);
        assert_eq!(points.len(), 2);
        for p in &points {
            // Chronus tracks OPT closely and beats OR — the paper's
            // headline ("significantly outperforms OR by around 60%",
            // relaxed here to a strict ordering at smoke scale).
            assert!(p.opt_free_pct >= p.chronus_free_pct);
            assert!(
                p.chronus_free_pct > p.or_free_pct,
                "chronus {}% vs OR {}% at n={}",
                p.chronus_free_pct,
                p.or_free_pct,
                p.switches
            );
            // Fig. 8: Chronus congests far fewer time-extended links.
            assert!(
                p.chronus_congested_links <= p.or_congested_links,
                "links: chronus {} vs OR {}",
                p.chronus_congested_links,
                p.or_congested_links
            );
            assert!(p.chronus_free_pct > 0.0 && p.chronus_free_pct <= 100.0);
        }
    }
}
