//! Figure 11: the CDF of update time at 40 switches.
//!
//! "Fig. 11 shows the CDFs of the update time when the number of
//! switches is fixed at 40 … The update time of Chronus can achieve
//! near optimal performance compared to OPT" (§V-B). Update time is
//! `|T|`, the number of time steps the schedule spans (the MUTP
//! objective).
// Harness code: panicking on a malformed experiment is intended.
#![allow(clippy::indexing_slicing, clippy::expect_used, clippy::unwrap_used)]

use crate::util::RunOptions;
use chronus_core::greedy::greedy_schedule;
use chronus_net::{InstanceGenerator, InstanceGeneratorConfig, TimeStep};
use chronus_opt::{optimal_schedule_with, OptConfig};

/// Collected update times (`|T| = makespan + 1`) for both schemes on
/// the same instances.
#[derive(Clone, Debug, Default)]
pub struct UpdateTimes {
    /// Chronus greedy update times.
    pub chronus: Vec<TimeStep>,
    /// OPT update times (instances where the exact solve finished).
    pub opt: Vec<TimeStep>,
    /// Paired `(chronus, opt)` times on the instances both solved —
    /// the apples-to-apples comparison (the OPT column alone is biased
    /// toward the instances its budget could crack).
    pub pairs: Vec<(TimeStep, TimeStep)>,
}

impl UpdateTimes {
    /// The empirical CDF of a sample as `(value, fraction ≤ value)`.
    pub fn cdf(sample: &[TimeStep]) -> Vec<(TimeStep, f64)> {
        let mut v = sample.to_vec();
        v.sort_unstable();
        let n = v.len().max(1) as f64;
        let mut out: Vec<(TimeStep, f64)> = Vec::new();
        for (i, &x) in v.iter().enumerate() {
            let frac = (i + 1) as f64 / n;
            match out.last_mut() {
                Some(last) if last.0 == x => last.1 = frac,
                _ => out.push((x, frac)),
            }
        }
        out
    }

    /// The p-quantile of a sample.
    pub fn quantile(sample: &[TimeStep], p: f64) -> Option<TimeStep> {
        if sample.is_empty() {
            return None;
        }
        let mut v = sample.to_vec();
        v.sort_unstable();
        let idx = ((v.len() - 1) as f64 * p).round() as usize;
        Some(v[idx])
    }
}

/// Collects update times at `switches` switches.
pub fn run(opts: &RunOptions, switches: usize) -> UpdateTimes {
    let mut times = UpdateTimes::default();
    for run in 0..opts.runs {
        let cfg = InstanceGeneratorConfig::paper(switches, opts.seed + 4451 + run as u64);
        let mut gen = InstanceGenerator::new(cfg);
        for inst in gen.generate_batch(opts.instances) {
            let Ok(greedy) = greedy_schedule(&inst) else {
                continue; // infeasible for everyone
            };
            times.chronus.push(greedy.makespan + 1);
            if let Ok(opt) = optimal_schedule_with(
                &inst,
                OptConfig {
                    budget: opts.budget,
                },
            ) {
                times.opt.push(opt.makespan + 1);
                times.pairs.push((greedy.makespan + 1, opt.makespan + 1));
            }
        }
    }
    times
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let c = UpdateTimes::cdf(&[3, 1, 2, 2, 5]);
        assert_eq!(c.first().unwrap().0, 1);
        assert!((c.last().unwrap().1 - 1.0).abs() < 1e-9);
        for w in c.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(UpdateTimes::quantile(&[1, 2, 3, 4, 5], 0.5), Some(3));
        assert_eq!(UpdateTimes::quantile(&[], 0.5), None);
    }

    #[test]
    fn chronus_tracks_opt_closely() {
        let opts = RunOptions {
            runs: 1,
            instances: 15,
            ..Default::default()
        };
        let times = run(&opts, 20);
        assert!(!times.chronus.is_empty());
        assert!(!times.pairs.is_empty());
        // Pairwise: OPT never longer, and the greedy stays within a
        // few steps on the instances both solved (the paper: 15 vs 13
        // at the 90th percentile).
        let gaps: Vec<TimeStep> = times.pairs.iter().map(|&(c, o)| c - o).collect();
        assert!(gaps.iter().all(|&g| g >= 0), "OPT must not exceed greedy");
        let median_gap = UpdateTimes::quantile(&gaps, 0.5).unwrap();
        assert!(
            median_gap <= 4,
            "median greedy-OPT gap {median_gap} too large"
        );
    }
}
