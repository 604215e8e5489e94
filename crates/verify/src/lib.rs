//! `chronus-verify`: an independent static certifier for Chronus
//! update schedules.
//!
//! Every scheduler in this workspace gates its search with the fluid
//! simulator family (`chronus-timenet`), so a bug shared by those
//! simulators would pass silently through every solver *and* every
//! solver test. This crate is the second opinion: given an
//! `(UpdateInstance, Schedule)` pair it decides transient consistency
//! **without running any simulator**, by
//!
//! 1. **interval arithmetic** for congestion-freedom — each flow's
//!    cohorts are traced symbolically over whole emission intervals
//!    (`trace`), yielding per-link half-open load intervals that a
//!    sweep-line sums against capacities (`sweep`); and
//! 2. a **symbolic loop/blackhole analysis** — the same interval trace
//!    proves every cohort either reaches its destination or pinpoints
//!    the revisited/ruleless switch, with per-boundary forwarding
//!    graphs and topological-order witnesses (`boundary`)
//!    recorded as diagnostics.
//!
//! The result is either a machine-checkable [`Certificate`]
//! (re-validatable via [`Certificate::check`]) or a minimal
//! [`Violation`] counterexample naming the offending link and time
//! interval (or looping/blackholed switch). Differential property
//! tests pin this crate's verdicts against `FluidSimulator` — the two
//! share only passive data types, so agreement is meaningful evidence
//! and any disagreement is a found bug in one of them.
//!
//! Timing tolerance has one entry point: [`slack_certificate`]
//! certifies a schedule and returns, beside that [`Certificate`], a
//! [`SlackCertificate`] for the largest uniform ±Δ every trigger may be
//! off by; [`check_slack`] spot-checks one later.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

mod boundary;
mod certificate;
pub mod codec;
mod mutate;
mod slack;
mod sweep;
mod trace;

pub use certificate::{
    BoundaryOrder, BoundaryWitness, Certificate, IntervalLoad, LinkBound, Violation,
};
pub use codec::{
    certificate_from_value, certificate_to_value, slack_from_value, slack_to_value,
    violation_from_value, violation_to_value, CertCodecError,
};
pub use mutate::{apply_mutation, find_rejected_mutant, mutations, Mutation};
pub use slack::{check_slack, slack_certificate, SlackCertificate};
pub use trace::{analyze, analyze_two_phase, Analysis, Certifier};

use chronus_net::{SwitchId, TimeStep, UpdateInstance};
use chronus_timenet::Schedule;

/// Certifier knobs, embedded by solver configs so callers can opt out
/// of post-hoc certification in hot benchmark loops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerifyConfig {
    /// Run the certifier at all. Solvers treat `false` as "return no
    /// certificate"; the certifier itself never consults this.
    pub enabled: bool,
    /// Record per-boundary forwarding-order witnesses in the
    /// certificate (skipping them keeps only the load bounds, which
    /// the verdict needs anyway).
    pub witnesses: bool,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            enabled: true,
            witnesses: true,
        }
    }
}

impl VerifyConfig {
    /// Certification fully disabled (benchmark mode).
    pub fn disabled() -> Self {
        VerifyConfig {
            enabled: false,
            witnesses: false,
        }
    }
}

/// Certifies `schedule` against `instance` with default config.
///
/// Returns the [`Certificate`] when every cohort in the transient
/// window is delivered loop-free and every link stays within capacity
/// at every step ≥ 0; otherwise the minimal [`Violation`].
///
/// # Example
///
/// ```
/// use chronus_net::motivating_example;
/// use chronus_timenet::Schedule;
///
/// let inst = motivating_example();
/// // Simultaneous update: transient loops, rejected.
/// assert!(chronus_verify::certify(&inst, &Schedule::all_at_zero(&inst)).is_err());
/// ```
pub fn certify(instance: &UpdateInstance, schedule: &Schedule) -> Result<Certificate, Violation> {
    certify_with(instance, schedule, &VerifyConfig::default())
}

/// Certifies `schedule` with explicit config (see [`VerifyConfig`];
/// `enabled` is the caller's gate and is ignored here): one run of a
/// fresh [`Certifier`].
pub fn certify_with(
    instance: &UpdateInstance,
    schedule: &Schedule,
    config: &VerifyConfig,
) -> Result<Certificate, Violation> {
    Certifier::new(instance).certify_with(schedule, config)
}

impl Certifier<'_> {
    /// Certifies `schedule` against the workspace's instance: what
    /// [`certify_with`] returns, without resolving the instance again.
    pub fn certify_with(
        &mut self,
        schedule: &Schedule,
        config: &VerifyConfig,
    ) -> Result<Certificate, Violation> {
        let mut span = chronus_trace::span!(
            "verify.certify",
            flows = self.instance.flows.len(),
            witnesses = config.witnesses
        )
        .entered();
        self.bind(schedule);
        self.run();
        let instance = self.instance;
        let result = self.seal(|| {
            if config.witnesses {
                boundary::boundary_witnesses(instance, schedule)
            } else {
                Vec::new()
            }
        });
        if span.is_recording() {
            span.record("certified", result.is_ok());
            if let Err(violation) = &result {
                span.record("violation", violation.to_string());
            }
        }
        result
    }

    /// One run over the bound schedule at its current times: the walk,
    /// then the sweep over what it loaded.
    pub(crate) fn run(&mut self) {
        self.walk();
        self.sweep();
    }

    /// Shared tail of the certify entry points: turn the current run
    /// (walk or adopted analysis, then sweep) into a certificate or the
    /// minimal violation. Witnesses are only built for a certificate.
    fn seal(
        &self,
        boundaries: impl FnOnce() -> Vec<BoundaryWitness>,
    ) -> Result<Certificate, Violation> {
        match self.violation() {
            Some(violation) => Err(violation),
            None => Ok(Certificate {
                makespan: self.makespan,
                link_bounds: self.link_bounds(),
                boundaries: boundaries(),
                segments_traced: self.segments_traced,
                cohorts_covered: self.cohorts_covered,
            }),
        }
    }
}

/// Certifies a two-phase (tagged) rollout of every flow flipping at
/// `flip_time`: old-generation cohorts traverse the whole old path,
/// new-generation cohorts the whole new path. Loop-freedom holds by
/// construction; the congestion side is the same interval sweep over
/// the overlap window around the flip.
pub fn certify_two_phase(
    instance: &UpdateInstance,
    flip_time: TimeStep,
) -> Result<Certificate, Violation> {
    let mut span = chronus_trace::span!(
        "verify.certify_two_phase",
        flows = instance.flows.len(),
        flip_time = flip_time
    )
    .entered();
    let mut certifier = Certifier::new(instance);
    certifier.adopt(&analyze_two_phase(instance, flip_time));
    certifier.sweep();
    let result = certifier.seal(Vec::new);
    if span.is_recording() {
        span.record("certified", result.is_ok());
        if let Err(violation) = &result {
            span.record("violation", violation.to_string());
        }
    }
    result
}

/// Per-step congestion events (`t ≥ 0`) the analysis implies, sorted
/// by `(time, src, dst)` — shaped like the simulator's event list for
/// differential comparison.
// chronus-lint: allow(dead-pub) — read by crates/verify/tests/differential.rs
pub fn congestion_surface(
    instance: &UpdateInstance,
    analysis: &Analysis,
) -> Vec<(
    SwitchId,
    SwitchId,
    TimeStep,
    chronus_net::Capacity,
    chronus_net::Capacity,
)> {
    let mut certifier = Certifier::new(instance);
    certifier.adopt(analysis);
    certifier.sweep();
    certifier.congestion_events()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronus_net::{motivating_example, FlowId};
    use chronus_timenet::{FluidSimulator, Verdict};

    fn sid(i: u32) -> SwitchId {
        SwitchId(i)
    }

    #[test]
    fn certifies_the_staged_plan_and_rejects_the_naive_one() {
        let inst = motivating_example();
        let staged = Schedule::from_pairs(
            FlowId(0),
            [(sid(1), 0), (sid(2), 1), (sid(0), 2), (sid(3), 2)],
        );
        let cert = certify(&inst, &staged).expect("staged plan is consistent");
        assert_eq!(cert.check(&inst), Ok(()));
        assert!(cert.boundaries.len() == 3);
        assert!(cert.to_string().contains("certificate"));

        let naive = Schedule::all_at_zero(&inst);
        let violation = certify(&inst, &naive).expect_err("naive plan loops");
        assert!(matches!(violation, Violation::ForwardingLoop { .. }));
        // Simulator agrees on both.
        assert_eq!(
            FluidSimulator::check(&inst, &staged).verdict(),
            Verdict::Consistent
        );
        assert_eq!(
            FluidSimulator::check(&inst, &naive).verdict(),
            Verdict::Inconsistent
        );
    }

    #[test]
    fn congestion_violation_names_link_and_interval() {
        // Old 0→1→2→3, new 0→2→3 with a fast shortcut: the new stream
        // catches the old one on ⟨2,3⟩ (capacity 1) whatever the time.
        let mut b = chronus_net::NetworkBuilder::with_switches(4);
        b.add_link(sid(0), sid(1), 1, 1).unwrap();
        b.add_link(sid(1), sid(2), 1, 1).unwrap();
        b.add_link(sid(2), sid(3), 1, 1).unwrap();
        b.add_link(sid(0), sid(2), 1, 1).unwrap();
        let net = b.build();
        let flow = chronus_net::Flow::new(
            FlowId(0),
            1,
            chronus_net::Path::new(vec![sid(0), sid(1), sid(2), sid(3)]),
            chronus_net::Path::new(vec![sid(0), sid(2), sid(3)]),
        )
        .unwrap();
        let inst = UpdateInstance::single(net, flow).unwrap();
        let s = Schedule::from_pairs(FlowId(0), [(sid(0), 0)]);
        match certify(&inst, &s) {
            Err(Violation::Congestion {
                src,
                dst,
                start,
                end,
                peak,
                capacity,
                flows,
            }) => {
                assert_eq!((src, dst), (sid(2), sid(3)));
                assert!(start >= 0 && end > start);
                assert_eq!((peak, capacity), (2, 1));
                assert_eq!(flows, vec![FlowId(0)]);
            }
            other => panic!("expected congestion violation, got {other:?}"),
        }
        assert!(!FluidSimulator::check(&inst, &s).congestion_free());
    }

    #[test]
    fn disabled_witnesses_keep_load_bounds() {
        let inst = motivating_example();
        let staged = Schedule::from_pairs(
            FlowId(0),
            [(sid(1), 0), (sid(2), 1), (sid(0), 2), (sid(3), 2)],
        );
        let cfg = VerifyConfig {
            enabled: true,
            witnesses: false,
        };
        let cert = certify_with(&inst, &staged, &cfg).unwrap();
        assert!(cert.boundaries.is_empty());
        assert!(!cert.link_bounds.is_empty());
        assert_eq!(cert.check(&inst), Ok(()));
    }

    #[test]
    fn two_phase_certification_matches_flip_semantics() {
        let inst = motivating_example();
        // The motivating example is two-phase-updatable without
        // congestion at a late flip (disjoint middles); certify it.
        let result = certify_two_phase(&inst, 3);
        // Whichever way it goes, it must agree with the baseline's
        // transient report — pinned precisely in the baselines crate's
        // differential test; here we only require a decision.
        match result {
            Ok(cert) => assert_eq!(cert.check(&inst), Ok(())),
            Err(v) => assert!(matches!(v, Violation::Congestion { .. })),
        }
    }
}
