//! Figure 10: running time of the schedulers at scale.
//!
//! "The running time of Chronus, OR and OPT is illustrated in
//! Fig. 10 … When the number of switches is larger than 4K, OR and
//! OPT do not complete within 600 seconds … Chronus's running time is
//! less than 600 seconds, even if the number of switches is 6K"
//! (§V-B).

use crate::util::RunOptions;
use chronus_baselines::or::{or_rounds, OrConfig};
use chronus_core::greedy::greedy_schedule;
use chronus_core::ScheduleError;
use chronus_net::routing::{random_simple_path, seeded_rng};
use chronus_net::topology::{self, TopologyConfig};
use chronus_net::{segment_reversal_at, Flow, FlowId, SwitchId, UpdateInstance};
use chronus_opt::{optimal_schedule_with, OptConfig};
use chronus_timenet::GateStats;
use rand::Rng;
use std::time::Instant;

/// Builds one scale instance: a sparse `n`-switch topology whose
/// longest-available random route is reversed end-to-end, coupling
/// every switch of the route — the workload whose exact solution blows
/// up combinatorially while the greedy keeps finishing (Fig. 10).
pub fn scale_instance(n: usize, seed: u64) -> Option<UpdateInstance> {
    let topo = TopologyConfig {
        switches: n,
        capacity_range: (300, 700),
        delay_range: (1, 10),
        seed,
    };
    let net = topology::random_connected(topo, n / 5);
    let mut rng = seeded_rng(seed ^ 0x5CA1E);
    // Longest of a few uniform walks between random endpoints.
    let mut best: Option<chronus_net::Path> = None;
    for _ in 0..6 {
        let src = SwitchId(rng.gen_range(0..n as u32));
        let dst = SwitchId(rng.gen_range(0..n as u32));
        if src == dst {
            continue;
        }
        if let Some(p) = random_simple_path(&net, src, dst, &mut rng) {
            if best.as_ref().is_none_or(|b| p.len() > b.len()) {
                best = Some(p);
            }
        }
    }
    let initial = best?;
    let last = initial.len() - 1;
    let (net, fin) =
        segment_reversal_at(&net, &initial, 0, last, 300, (300, 700), (1, 10), &mut rng)?;
    let flow = Flow::new(FlowId(0), 300, initial, fin).ok()?;
    flow.validate(&net).ok()?;
    UpdateInstance::single(net, flow).ok()
}

/// How a scheduler's invocations at one size ended. Variants are
/// ordered best to worst; a size keeps its worst invocation's.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Finish {
    /// Every invocation finished within the budget.
    Completed,
    /// The instance was too large for the exact search to attempt (more
    /// than 63 coupled updates), so it was not searched: this says
    /// nothing about the budget.
    NotSearched,
    /// An invocation ran out of budget: the paper's "does not complete
    /// within 600 s" points.
    TimedOut,
}

impl Finish {
    /// The label the table and the CSV print.
    pub fn label(self) -> &'static str {
        match self {
            Finish::Completed => "completed",
            Finish::NotSearched => "not searched",
            Finish::TimedOut => "timed out",
        }
    }
}

/// One scheduler's timing at one size.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Mean wall-clock milliseconds.
    pub ms: f64,
    /// How the invocations ended.
    pub finish: Finish,
}

/// One row of Fig. 10.
#[derive(Clone, Copy, Debug)]
pub struct RuntimePoint {
    /// Number of switches.
    pub switches: usize,
    /// Chronus greedy.
    pub chronus: Timing,
    /// OR exact branch and bound.
    pub or: Timing,
    /// OPT exact search.
    pub opt: Timing,
    /// The greedy gate's ledger counters, summed over the runs.
    pub chronus_gate: GateStats,
}

/// Runs the timing experiment over `sizes` (paper: 1K–6K).
pub fn run(opts: &RunOptions, sizes: &[usize]) -> Vec<RuntimePoint> {
    let mut out = Vec::new();
    for &n in sizes {
        let mut chronus_ms = 0.0;
        let mut or_ms = 0.0;
        let mut opt_ms = 0.0;
        let mut or_finish = Finish::Completed;
        let mut opt_finish = Finish::Completed;
        let mut gate = GateStats::default();
        let samples = opts.runs.max(1);
        for run in 0..samples {
            let Some(inst) = scale_instance(n, opts.seed + 977 + run as u64) else {
                continue;
            };

            let t0 = Instant::now();
            if let Ok(out) = greedy_schedule(&inst) {
                gate.absorb(&out.gate);
            }
            chronus_ms += t0.elapsed().as_secs_f64() * 1e3;

            let t0 = Instant::now();
            match or_rounds(
                &inst,
                OrConfig {
                    budget: opts.budget,
                },
            ) {
                Ok(o) if o.exact => {}
                _ => or_finish = Finish::TimedOut,
            }
            or_ms += t0.elapsed().as_secs_f64() * 1e3;

            let t0 = Instant::now();
            match optimal_schedule_with(
                &inst,
                OptConfig {
                    budget: opts.budget,
                },
            ) {
                Err(ScheduleError::TooLarge { .. }) => {
                    opt_finish = opt_finish.max(Finish::NotSearched);
                }
                Err(ScheduleError::TimedOut { .. }) => opt_finish = Finish::TimedOut,
                Ok(_) | Err(_) => {}
            }
            opt_ms += t0.elapsed().as_secs_f64() * 1e3;
        }
        let k = samples as f64;
        out.push(RuntimePoint {
            switches: n,
            chronus: Timing {
                ms: chronus_ms / k,
                finish: Finish::Completed,
            },
            or: Timing {
                ms: or_ms / k,
                finish: or_finish,
            },
            opt: Timing {
                ms: opt_ms / k,
                finish: opt_finish,
            },
            chronus_gate: gate,
        });
    }
    out
}

/// The paper's switch counts for Fig. 10.
pub const PAPER_SIZES: [usize; 6] = [1000, 2000, 3000, 4000, 5000, 6000];

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn chronus_is_orders_of_magnitude_faster_at_scale() {
        let opts = RunOptions {
            runs: 1,
            budget: Duration::from_millis(150),
            ..Default::default()
        };
        let points = run(&opts, &[600]);
        let p = &points[0];
        assert_eq!(p.chronus.finish, Finish::Completed);
        // The greedy must finish fast even at 600 switches.
        assert!(p.chronus.ms < 5_000.0, "greedy took {} ms", p.chronus.ms);
    }
}
