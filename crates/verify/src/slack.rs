//! Slack certificates: how much per-switch timing error a certified
//! schedule tolerates.
//!
//! A timed schedule assigns each `(flow, switch)` update a step
//! `t`; in deployment the switch fires at true time
//! `update_at + t·step ± δ`, where δ collects the post-sync residual
//! clock error, control-channel jitter and install latency. A
//! [`SlackCertificate`] proves a *uniform tolerance*: as long as every
//! trigger fires within `±Δ` of its nominal instant, the schedule
//! remains loop- and congestion-free.
//!
//! ## Why a finite check suffices
//!
//! The certifier's fluid model observes the data plane at integer
//! steps. A rule change displaced by a real offset δ is
//! indistinguishable, at that granularity, from an integer
//! re-scheduling of the same switch:
//!
//! - firing **early** by δ ∈ (0, step) changes nothing — no arrival
//!   between the perturbed and nominal instants — and early by
//!   δ ∈ [j·step, (j+1)·step) behaves exactly like step `t − j`;
//! - firing **late** by δ ∈ ((j−1)·step, j·step] behaves exactly like
//!   step `t + j`.
//!
//! Hence every real perturbation vector with `|δ_i| < k·step` maps to
//! an integer schedule with each entry displaced within
//! `{−(k−1), …, +k}`. Certifying that finite hypercube (entries below
//! step 0 are clamped out — the model starts at "now") certifies the
//! whole continuous box, soundly. The certificate reports
//! `slack_steps = k` for the largest fully-certified hypercube, i.e.
//! a guaranteed tolerance of `Δ = k·step − 1 ns` for any step length.
//!
//! The check is exhaustive and exponential in the number of schedule
//! entries, so `SLACK_BUDGET` caps the certifications spent; a budget
//! exhaustion stops *growth* but never weakens what was already
//! certified.

use crate::{Certificate, Certifier, VerifyConfig, Violation};
use chronus_net::{TimeStep, UpdateInstance};
use chronus_timenet::Schedule;

/// Largest tolerance (in steps) the search tries to certify: ±4 steps
/// is already far beyond any residual clock error a synchronised
/// deployment sees, and every further step multiplies the hypercube.
const MAX_SLACK_STEPS: TimeStep = 4;

/// Cap on perturbed-schedule certifications across one search. The
/// k = 1 cube has `2^entries` corners, so 4 096 admits schedules of up
/// to 12 entries; longer ones ship `slack_steps = 0, budget_exhausted`.
const SLACK_BUDGET: usize = 4_096;

/// Proof that a schedule tolerates uniform per-switch timing error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlackCertificate {
    /// Largest `k` such that every perturbation of every entry within
    /// `{−(k−1), …, +k}` steps certifies. `0` means only exact firing
    /// is certified (some single-step lateness already violates).
    pub slack_steps: TimeStep,
    /// Perturbed schedules certified during the search.
    pub schedules_checked: usize,
    /// The search stopped growing `k` because the certification
    /// budget ran out (the reported `slack_steps` is still sound).
    pub budget_exhausted: bool,
    /// The perturbed schedule and violation that blocked
    /// `slack_steps + 1`, when the search got that far.
    pub counterexample: Option<(Schedule, Violation)>,
}

impl SlackCertificate {
    /// The certified tolerance in nanoseconds for an emulation with
    /// the given step length: any firing within ±Δ of nominal is
    /// covered. Zero when only exact firing is certified.
    pub fn delta_ns(&self, step_ns: i128) -> i128 {
        if self.slack_steps <= 0 {
            0
        } else {
            (self.slack_steps as i128) * step_ns - 1
        }
    }

    /// Does the certificate cover a measured deviation — e.g. the
    /// post-sync residual clock error from `two_way_sync` — under the
    /// given step length?
    pub fn covers_residual(&self, residual_ns: i128, step_ns: i128) -> bool {
        residual_ns.abs() <= self.delta_ns(step_ns)
    }
}

impl std::fmt::Display for SlackCertificate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "slack certificate: ±{} step(s) ({} schedules checked{})",
            self.slack_steps,
            self.schedules_checked,
            if self.budget_exhausted {
                ", budget exhausted"
            } else {
                ""
            }
        )
    }
}

/// Certifies `schedule` and the largest uniform timing tolerance it
/// carries.
///
/// The nominal schedule is certified once, with witnesses, and that
/// [`Certificate`] is returned alongside the slack result. `Err` only
/// when the *nominal* schedule itself fails certification; otherwise
/// the slack certificate reports the largest fully-certified hypercube
/// (possibly `slack_steps = 0`).
pub fn slack_certificate(
    instance: &UpdateInstance,
    schedule: &Schedule,
) -> Result<(Certificate, SlackCertificate), Violation> {
    let mut span = chronus_trace::span!("verify.slack", entries = schedule.len() as u64).entered();
    let mut certifier = Certifier::new(instance);
    let nominal = certifier.certify_with(schedule, &VerifyConfig::default())?;

    // The certifier stays bound to the nominal schedule's entries; a
    // hypercube point only moves their times.
    let nominal_times: Vec<TimeStep> = schedule.iter().map(|(_, _, t)| t).collect();
    let mut times = nominal_times.clone();
    let mut ranges: Vec<(TimeStep, TimeStep)> = Vec::with_capacity(times.len());
    let mut checked = 0usize;
    let mut slack: TimeStep = 0;
    let mut budget_exhausted = false;
    let mut counterexample = None;

    for k in 1..=MAX_SLACK_STEPS {
        // Per entry for tolerance k: the times t−(k−1)…t+k, clamped so
        // no entry moves below step 0, as an inclusive range. An entry
        // already below −k has none and stays where it is.
        ranges.clear();
        let mut cube = Some(1usize);
        for &t in &nominal_times {
            let first = (t - (k - 1)).max(0);
            let choices = usize::try_from(t + k - first + 1).unwrap_or(0);
            // Checked arithmetic: with ≥ 64 entries the cube size
            // exceeds `usize`, and an overflowed cube is over any budget.
            cube = cube.and_then(|cube| cube.checked_mul(choices));
            ranges.push(if choices == 0 { (t, t) } else { (first, t + k) });
        }
        let within_budget = cube
            .and_then(|cube| checked.checked_add(cube))
            .is_some_and(|total| total <= SLACK_BUDGET);
        if !within_budget {
            budget_exhausted = true;
            break;
        }
        if !cube_certifies(&mut certifier, &ranges, &mut times, &mut checked) {
            // The certifier still holds the failing point's run.
            let mut perturbed = schedule.clone();
            for ((flow, switch, _), &t) in schedule.iter().zip(&times) {
                perturbed.set(flow, switch, t);
            }
            counterexample = certifier
                .violation()
                .map(|violation| (perturbed, violation));
            break;
        }
        slack = k;
    }

    if span.is_recording() {
        span.record("slack_steps", slack);
        span.record("schedules_checked", checked as u64);
    }
    Ok((
        nominal,
        SlackCertificate {
            slack_steps: slack,
            schedules_checked: checked,
            budget_exhausted,
            counterexample,
        },
    ))
}

/// Walks the hypercube of per-entry inclusive time `ranges` like an
/// odometer, lowest corner first, one certifier run per point and
/// nothing else: no schedule, no allocation, no span. Returns whether
/// every point is consistent; if not, `times` and the certifier are
/// left at the first point that is not. `checked` counts the points.
fn cube_certifies(
    certifier: &mut Certifier<'_>,
    ranges: &[(TimeStep, TimeStep)],
    times: &mut [TimeStep],
    checked: &mut usize,
) -> bool {
    for (time, &(first, _)) in times.iter_mut().zip(ranges) {
        *time = first;
    }
    loop {
        *checked += 1;
        certifier.set_times(times);
        certifier.run();
        if !certifier.consistent() {
            return false;
        }
        let mut wrapped = 0usize;
        for (time, &(first, last)) in times.iter_mut().zip(ranges) {
            if *time < last {
                *time += 1;
                break;
            }
            *time = first;
            wrapped += 1;
        }
        if wrapped == times.len() {
            return true;
        }
    }
}

/// Re-validates a slack certificate the cheap way: spot-checks that
/// the certified hypercube's corner schedules still certify. Full
/// re-validation is re-running [`slack_certificate`].
pub fn check_slack(
    instance: &UpdateInstance,
    schedule: &Schedule,
    cert: &SlackCertificate,
) -> Result<(), Violation> {
    if cert.slack_steps <= 0 {
        return Ok(());
    }
    let k = cert.slack_steps;
    let mut certifier = Certifier::new(instance);
    certifier.bind(schedule);
    let mut times = Vec::with_capacity(schedule.len());
    for corner in [-(k - 1), k] {
        times.clear();
        times.extend(schedule.iter().map(|(_, _, t)| (t + corner).max(0)));
        certifier.set_times(&times);
        certifier.run();
        if let Some(violation) = certifier.violation() {
            return Err(violation);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronus_net::{motivating_example, FlowId, SwitchId};

    fn sid(i: u32) -> SwitchId {
        SwitchId(i)
    }

    fn staged() -> Schedule {
        Schedule::from_pairs(
            FlowId(0),
            [(sid(1), 0), (sid(2), 1), (sid(0), 2), (sid(3), 2)],
        )
    }

    #[test]
    fn nominal_violation_propagates() {
        let inst = motivating_example();
        let naive = Schedule::all_at_zero(&inst);
        assert!(slack_certificate(&inst, &naive).is_err());
    }

    #[test]
    fn staged_plan_has_positive_slack_or_a_counterexample() {
        let inst = motivating_example();
        let (nominal, cert) = slack_certificate(&inst, &staged()).expect("staged plan certifies");
        // The nominal certificate is the witnessed one `certify` seals.
        assert_eq!(Ok(&nominal), crate::certify(&inst, &staged()).as_ref());
        assert!(cert.schedules_checked > 0);
        // Either some tolerance was certified, or the blocking
        // perturbation is reported.
        if cert.slack_steps == 0 {
            let (bad, violation) = cert
                .counterexample
                .clone()
                .expect("k=1 failure names a witness");
            assert_eq!(crate::certify(&inst, &bad), Err(violation.clone()));
            let _ = violation.to_string();
        } else {
            assert!(check_slack(&inst, &staged(), &cert).is_ok());
        }
        println!("{cert}");
    }

    #[test]
    fn dilating_a_tight_plan_buys_slack() {
        // The greedy staged plan is *tight*: each dependency is
        // separated by exactly one step, so displacing e.g. switch 1
        // onto switch 2's step re-creates the transient loop and the
        // uniform slack is 0. Stretching every gap (t → 2t) trades
        // makespan for tolerance: the dilated plan certifies ±1 step.
        let inst = motivating_example();
        let (_, tight) = slack_certificate(&inst, &staged()).expect("staged plan certifies");
        assert_eq!(tight.slack_steps, 0, "{tight}");

        let dilated = Schedule::from_pairs(
            FlowId(0),
            [(sid(1), 0), (sid(2), 2), (sid(0), 4), (sid(3), 4)],
        );
        let (_, cert) = slack_certificate(&inst, &dilated).expect("dilated plan certifies");
        assert!(cert.slack_steps >= 1, "{cert}");
        assert!(cert.delta_ns(100_000_000) >= 99_999_999);
        assert!(check_slack(&inst, &dilated, &cert).is_ok());
    }

    #[test]
    fn delta_ns_converts_steps_to_time() {
        let cert = SlackCertificate {
            slack_steps: 2,
            schedules_checked: 1,
            budget_exhausted: false,
            counterexample: None,
        };
        let step = 100_000_000i128; // 100 ms
        assert_eq!(cert.delta_ns(step), 199_999_999);
        assert!(cert.covers_residual(1_000, step));
        assert!(cert.covers_residual(-199_999_999, step));
        assert!(!cert.covers_residual(200_000_000, step));

        let zero = SlackCertificate {
            slack_steps: 0,
            ..cert
        };
        assert_eq!(zero.delta_ns(step), 0);
        assert!(zero.covers_residual(0, step));
        assert!(!zero.covers_residual(1, step));
    }

    /// A certifiable schedule with exactly `entries` (even) entries:
    /// `entries / 2` unit flows each move from 0 → 1 → 3 to 0 → 2 → 3
    /// (fresh switch 2 at step 0, the source at step 1) over links
    /// ample enough to carry them all either way.
    fn wide_schedule(entries: u32) -> (UpdateInstance, Schedule) {
        let cap = u64::from(entries);
        let mut b = chronus_net::NetworkBuilder::with_switches(4);
        for (u, v) in [(0, 1), (1, 3), (0, 2), (2, 3)] {
            b.add_link(sid(u), sid(v), cap, 1).unwrap();
        }
        let mut schedule = Schedule::new();
        let flows: Vec<_> = (0..entries / 2)
            .map(|i| {
                schedule.set(FlowId(i), sid(2), 0);
                schedule.set(FlowId(i), sid(0), 1);
                chronus_net::Flow::new(
                    FlowId(i),
                    1,
                    chronus_net::Path::new(vec![sid(0), sid(1), sid(3)]),
                    chronus_net::Path::new(vec![sid(0), sid(2), sid(3)]),
                )
                .unwrap()
            })
            .collect();
        (UpdateInstance::new(b.build(), flows).unwrap(), schedule)
    }

    /// Production sits on this boundary: 12 entries make a k = 1 cube
    /// of exactly `SLACK_BUDGET` corners, which is walked in full (and
    /// leaves nothing for k = 2); two more entries and no cube is
    /// affordable, which is reported, not fatal.
    #[test]
    fn budget_boundary_is_twelve_entries() {
        let (inst, schedule) = wide_schedule(12);
        let (_, cert) = slack_certificate(&inst, &schedule).expect("nominal certifies");
        assert_eq!(cert.schedules_checked, SLACK_BUDGET);
        assert_eq!(cert.slack_steps, 1, "{cert}");
        assert!(cert.budget_exhausted, "{cert}");

        let (inst, schedule) = wide_schedule(14);
        let (_, cert) = slack_certificate(&inst, &schedule).expect("nominal certifies");
        assert_eq!(cert.slack_steps, 0, "{cert}");
        assert!(cert.budget_exhausted, "{cert}");
        assert_eq!(cert.schedules_checked, 0);
    }

    /// With ≥ 64 entries the k = 1 hypercube has ≥ 2^64 corners: the
    /// size must read as "over budget", not wrap to 0 (release) or
    /// panic (debug) and send the odometer off on a 2^64-step walk.
    #[test]
    fn hypercube_size_overflow_is_over_budget() {
        for entries in [64, 200] {
            let (inst, schedule) = wide_schedule(entries);
            assert_eq!(schedule.len(), entries as usize);
            // chronus-lint: allow(det-wallclock) — test-only bound on a search that used not to return
            let t0 = std::time::Instant::now();
            let (_, cert) = slack_certificate(&inst, &schedule).expect("nominal certifies");
            assert_eq!(cert.slack_steps, 0, "{cert}");
            assert!(cert.budget_exhausted, "{cert}");
            assert_eq!(cert.schedules_checked, 0);
            let took = t0.elapsed();
            assert!(
                took < std::time::Duration::from_secs(1),
                "{entries} entries took {took:?}"
            );
        }
    }

    #[test]
    fn single_entry_schedule_slack() {
        // Old 0→1→2→3 shortcut to 0→2→3: only the source flips its
        // next hop, every downstream switch keeps its old rule, and
        // capacities are ample — moving the single update around can
        // neither loop, blackhole, nor congest, so the slack reaches
        // the cap.
        let mut b = chronus_net::NetworkBuilder::with_switches(4);
        b.add_link(sid(0), sid(1), 10, 1).unwrap();
        b.add_link(sid(1), sid(2), 10, 1).unwrap();
        b.add_link(sid(2), sid(3), 10, 1).unwrap();
        b.add_link(sid(0), sid(2), 10, 1).unwrap();
        let net = b.build();
        let flow = chronus_net::Flow::new(
            FlowId(0),
            1,
            chronus_net::Path::new(vec![sid(0), sid(1), sid(2), sid(3)]),
            chronus_net::Path::new(vec![sid(0), sid(2), sid(3)]),
        )
        .unwrap();
        let inst = UpdateInstance::single(net, flow).unwrap();
        let s = Schedule::from_pairs(FlowId(0), [(sid(0), 1)]);
        let (_, cert) = slack_certificate(&inst, &s).expect("certifies");
        assert_eq!(cert.slack_steps, 4, "{cert}");
        assert!(!cert.budget_exhausted);
        assert!(check_slack(&inst, &s, &cert).is_ok());
    }
}
