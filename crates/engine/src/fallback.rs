//! The planning fallback chain: sharded → greedy → tree → two-phase,
//! and the seal every timed plan passes before it ships.
//!
//! Every request walks the same chain, cheapest-best first:
//!
//! 0. **Sharded** (opt-in, multi-flow only) — partitions the topology,
//!    reserves shared-link capacity per shard, plans the shards in
//!    parallel and checks the merged schedule against the whole
//!    instance. Runs only when the engine was configured with a
//!    [`ShardingConfig`] and the request carries more than one flow.
//! 1. **Greedy** (paper Algorithm 2) — the Chronus scheduler; when it
//!    succeeds the flow migrates with no rule-space overhead.
//! 2. **Tree** (paper Algorithm 1) — the feasibility search; slower,
//!    but it can find witness schedules on instances where the greedy
//!    round structure stalls, and it proves infeasibility.
//! 3. **Two-phase** — the per-packet-consistency baseline. It ignores
//!    the timing dimension entirely, always exists, and preserves
//!    consistency at the cost of doubled rules; the chain's
//!    consistency-preserving last resort.
//!
//! Stages 0–2 propose uncertified timed schedules. Each proposal goes
//! through one **seal**: the slack stage when a [`SlackPolicy`] is
//! configured, a single certification otherwise. A proposal the seal
//! refuses fails its stage and the chain moves on, so no plan carries
//! a certificate for a schedule the seal did not certify.
//!
//! The deadline governs the *optimizing* stages only: a request whose
//! budget runs out before greedy or tree finishes skips ahead and
//! still leaves with a consistent two-phase plan — deadline pressure
//! degrades plan quality, never correctness.

use crate::metrics::EngineMetrics;
use crate::pool::EngineConfig;
use crate::request::{RequestId, UpdateRequest};
use chronus_baselines::tp::{tp_plan, TpPlan};
use chronus_core::greedy::{greedy_schedule_in, GreedyConfig};
use chronus_core::shard::shard_schedule_in;
use chronus_core::tree::{check_feasibility, Feasibility};
use chronus_net::{TimeStep, UpdateInstance};
use chronus_timenet::{Schedule, SimWorkspace};
use chronus_verify::{
    certify_two_phase, certify_with, slack_certificate, Certificate, SlackCertificate,
    VerifyConfig, Violation,
};
use std::fmt;
use std::time::{Duration, Instant};

/// The engine's slack policy: how much certified timing tolerance a
/// timed plan should carry before it ships, and how far the engine may
/// dilate the schedule to buy it.
///
/// A greedy/tree schedule packs dependent updates onto adjacent steps,
/// which certifies zero slack — any single-step displacement of one
/// switch can recreate the transient loop. Dilating the schedule
/// (multiplying every step by a factor) stretches those gaps: the same
/// ordering constraints hold with spare steps in between, so the slack
/// certificate's tolerance grows with the factor — makespan traded for
/// robustness against exactly the timing faults `chronus-faults`
/// injects.
#[derive(Clone, Copy, Debug)]
pub struct SlackPolicy {
    /// Certified tolerance (in steps) a plan should reach; the engine
    /// stops dilating once a factor certifies at least this much.
    pub target_steps: TimeStep,
    /// Largest dilation factor to try (1 = never dilate). When even
    /// this factor misses the target, the best-slack candidate ships
    /// anyway and the miss is counted in the metrics.
    pub max_dilation: TimeStep,
}

impl Default for SlackPolicy {
    fn default() -> Self {
        SlackPolicy {
            target_steps: 1,
            max_dilation: 4,
        }
    }
}

/// A stage of the fallback chain, in chain order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Stage {
    /// The sharded multi-flow planner (opt-in; multi-flow requests
    /// under an engine configured with a [`ShardingConfig`]).
    Sharded,
    /// The greedy scheduler (paper Algorithm 2).
    Greedy,
    /// The tree feasibility search (paper Algorithm 1).
    Tree,
    /// The two-phase commit baseline.
    TwoPhase,
}

impl Stage {
    /// All stages in chain order.
    pub const CHAIN: [Stage; 4] = [Stage::Sharded, Stage::Greedy, Stage::Tree, Stage::TwoPhase];
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Stage::Sharded => "sharded",
            Stage::Greedy => "greedy",
            Stage::Tree => "tree",
            Stage::TwoPhase => "two-phase",
        })
    }
}

/// How one stage of the chain ended.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StageOutcome {
    /// The stage produced the winning plan.
    Won,
    /// The stage ran and could not plan; the payload says why.
    Failed(String),
    /// The stage never ran; the payload says why (deadline exhausted,
    /// or an earlier stage already won).
    Skipped(String),
}

/// One stage's record in a [`PlannedUpdate`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StageAttempt {
    /// Which stage.
    pub stage: Stage,
    /// How it ended.
    pub outcome: StageOutcome,
    /// Wall-clock time spent inside the stage (zero when skipped).
    pub elapsed: Duration,
}

/// A two-phase plan for a request: one rule plan per flow plus the
/// ingress flip time every flow shares.
#[derive(Clone, Debug)]
pub struct TpBatchPlan {
    /// The duplicate-rules + stamp-flip plans, one per flow, in the
    /// instance's flow order.
    pub plans: Vec<TpPlan>,
    /// When the ingress stamps flip, in time steps: after every flow's
    /// old-generation in-flight packets can no longer interleave.
    pub flip_time: TimeStep,
}

/// The plan a request leaves the chain with.
#[derive(Clone, Debug)]
pub enum PlanKind {
    /// A timed per-switch schedule (greedy or tree won) — zero rule
    /// overhead, certified consistent by construction.
    Timed(Schedule),
    /// The two-phase fallback — consistent, but transiently doubles
    /// the flow's rules.
    TwoPhase(TpBatchPlan),
}

impl PlanKind {
    /// The timed schedule, when one was found.
    pub fn schedule(&self) -> Option<&Schedule> {
        match self {
            PlanKind::Timed(s) => Some(s),
            PlanKind::TwoPhase(_) => None,
        }
    }
}

/// The engine's answer to one [`UpdateRequest`].
#[derive(Clone, Debug)]
pub struct PlannedUpdate {
    /// The request this answers.
    pub id: RequestId,
    /// The winning plan.
    pub plan: PlanKind,
    /// The stage that produced it.
    pub winner: Stage,
    /// Per-stage records, in chain order.
    pub attempts: Vec<StageAttempt>,
    /// Total planning wall-clock time for this request.
    pub elapsed: Duration,
    /// Always `true`: planning built no time-extended window, so there
    /// was no window lookup to miss. Kept until
    /// [`crate::TimeNetCache`] goes, for callers that still subtract a
    /// lookup's cost from [`PlannedUpdate::elapsed`].
    pub cache_hit: bool,
    /// `true` when the deadline expired before every optimizing stage
    /// could run (the plan is then the two-phase fallback).
    pub deadline_exceeded: bool,
    /// The independent certifier's proof that the winning plan is
    /// consistent. `None` when certification was disabled in the
    /// engine config, or when the certifier could not vouch for the
    /// plan (a two-phase fallback whose flip window congests — the
    /// cases [`crate::PlanReport`]'s `certs.failed` counts).
    pub certificate: Option<Certificate>,
    /// The slack certificate for the shipped timed schedule: the
    /// largest per-switch timing tolerance ±Δ under which consistency
    /// still holds. `None` when no [`SlackPolicy`] was configured or
    /// the plan is the two-phase fallback (which has no timed
    /// schedule to perturb).
    pub slack: Option<SlackCertificate>,
    /// The dilation factor applied to the shipped schedule by the
    /// slack stage (1 = the planner's schedule, undilated).
    pub dilation: TimeStep,
    /// The `engine.plan` trace-span id this plan was produced under
    /// (0 when neither the trace collector nor the flight recorder
    /// was on). Callers persist it so forensic dumps and SLO
    /// histogram exemplars can point back at the exact planning span.
    pub span_id: u64,
}

impl PlannedUpdate {
    /// The attempt record for `stage`, if the chain reached it.
    pub fn attempt(&self, stage: Stage) -> Option<&StageAttempt> {
        self.attempts.iter().find(|a| a.stage == stage)
    }

    /// The winning timed schedule, or a [`PlanError`] naming the
    /// request and winning stage when the plan legitimately has none
    /// (the two-phase fallback won) — the non-panicking accessor to
    /// reach for where a timed schedule is assumed.
    pub fn timed_schedule(&self) -> Result<&Schedule, PlanError> {
        self.plan.schedule().ok_or(PlanError {
            id: self.id,
            winner: self.winner,
        })
    }
}

/// A plan was asked for something its winning stage did not produce:
/// [`PlannedUpdate::timed_schedule`] on a two-phase fallback plan.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PlanError {
    /// The request whose plan was interrogated.
    pub id: RequestId,
    /// The stage that won without a timed schedule.
    pub winner: Stage,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: the {} stage won without a timed schedule",
            self.id, self.winner
        )
    }
}

impl std::error::Error for PlanError {}

/// The horizon a [`crate::TimeNetCache`] window for `instance` is keyed
/// on: the instance's total path delay, the natural upper bound on how
/// far into past and future a consistent migration can reach. No
/// planning stage reads it.
pub fn planning_horizon(instance: &UpdateInstance) -> TimeStep {
    instance.total_path_delay().max(1) as TimeStep
}

/// The ingress flip time the engine assigns to two-phase plans: one
/// step past the longest initial path's total delay, so every
/// old-generation packet in flight at the flip has drained past any
/// shared link.
pub fn tp_flip_time(instance: &UpdateInstance) -> TimeStep {
    let phi_init = instance
        .flows
        .iter()
        .map(|f| f.initial.total_delay(&instance.network).unwrap_or(0))
        .max()
        .unwrap_or(0);
    (phi_init + 1) as TimeStep
}

/// The static span name for one stage's attempt.
fn stage_span_name(stage: Stage) -> &'static str {
    match stage {
        Stage::Sharded => "engine.stage.sharded",
        Stage::Greedy => "engine.stage.greedy",
        Stage::Tree => "engine.stage.tree",
        Stage::TwoPhase => "engine.stage.two_phase",
    }
}

/// The slack stage: dilates a timed schedule until its slack
/// certificate meets the policy target (or the factor cap), returning
/// the schedule to ship, its slack certificate, the consistency
/// certificate matching it, and the factor applied — or, when no
/// factor certifies, the first factor's violation.
///
/// A factor whose search could not afford even the k = 1 cube ends the
/// loop: that cube offers every entry `{0, +1}` whatever its step, so
/// it has `2^entries` corners at every factor and no later factor can
/// strictly improve on `slack_steps = 0`.
fn buy_slack(
    instance: &UpdateInstance,
    schedule: &Schedule,
    policy: &SlackPolicy,
) -> Result<(Schedule, SlackCertificate, Certificate, TimeStep), Violation> {
    let mut best: Option<(Schedule, SlackCertificate, Certificate, TimeStep)> = None;
    let mut refusal = None;
    for factor in 1..=policy.max_dilation.max(1) {
        let candidate = schedule.dilated(factor);
        let (cert, slack) = match slack_certificate(instance, &candidate) {
            Ok(found) => found,
            // A dilation should never break a consistent plan, but if
            // a factor fails to certify, skip it rather than ship it.
            Err(violation) => {
                refusal.get_or_insert(violation);
                continue;
            }
        };
        let done = slack.slack_steps >= policy.target_steps
            || (slack.budget_exhausted && slack.slack_steps == 0);
        let improves = best
            .as_ref()
            .is_none_or(|(_, b, _, _)| slack.slack_steps > b.slack_steps);
        if improves {
            best = Some((candidate, slack, cert, factor));
        }
        if done {
            break;
        }
    }
    match (best, refusal) {
        (Some(found), _) => Ok(found),
        (None, Some(violation)) => Err(violation),
        (None, None) => unreachable!("factor 1 always runs"),
    }
}

/// A plan ready to ship: a sealed timed schedule (dilated by the slack
/// stage's factor) or the two-phase fallback, with its certificates.
struct Sealed {
    plan: PlanKind,
    certificate: Option<Certificate>,
    slack: Option<SlackCertificate>,
    dilation: TimeStep,
}

/// The seal: the one certification a timed proposal gets before it
/// ships — [`buy_slack`] under a slack policy, a single certification
/// under `config.verify` otherwise, nothing when both are off. A
/// refusal is counted, traced as `engine.cert_refused` and returned.
/// Its time is its own: `engine.stage.slack`, not the stage's attempt.
fn seal(
    req: &UpdateRequest,
    schedule: Schedule,
    config: &EngineConfig,
    metrics: &EngineMetrics,
) -> Result<Sealed, Violation> {
    let (instance, verify) = (&*req.instance, &config.verify);
    if !verify.enabled && config.slack.is_none() {
        return Ok(Sealed {
            plan: PlanKind::Timed(schedule),
            certificate: None,
            slack: None,
            dilation: 1,
        });
    }
    let started = Instant::now();
    let mut span = chronus_trace::span!("engine.stage.slack").entered();
    let sealed = match &config.slack {
        None => certify_with(instance, &schedule, verify).map(|cert| Sealed {
            plan: PlanKind::Timed(schedule),
            certificate: Some(cert),
            slack: None,
            dilation: 1,
        }),
        Some(policy) => {
            buy_slack(instance, &schedule, policy).map(|(shipped, slack, cert, factor)| {
                let target_met = slack.slack_steps >= policy.target_steps;
                if span.is_recording() {
                    span.record("slack_steps", slack.slack_steps);
                    span.record("dilation", factor);
                    span.record("target_met", target_met);
                }
                metrics.record_slack(&slack, factor, target_met);
                Sealed {
                    plan: PlanKind::Timed(shipped),
                    certificate: verify.enabled.then_some(cert),
                    slack: Some(slack),
                    dilation: factor,
                }
            })
        }
    };
    if let Err(violation) = &sealed {
        // A planner/certifier disagreement.
        span.record("outcome", "uncertifiable");
        metrics.record_slack_failure();
        chronus_trace::instant!(
            "engine.cert_refused",
            request = req.id.0,
            violation = violation.to_string()
        );
    }
    drop(span);
    metrics.record_slack_elapsed(started.elapsed());
    sealed
}

/// Runs one optimizing stage: an uncertified timed schedule, or why
/// the stage could not plan.
fn propose(
    stage: Stage,
    instance: &UpdateInstance,
    config: &EngineConfig,
    metrics: &EngineMetrics,
    ws: &mut SimWorkspace,
    span: &mut chronus_trace::EnteredSpan,
) -> Result<Schedule, String> {
    let uncertified = GreedyConfig {
        verify: VerifyConfig::disabled(),
        ..GreedyConfig::default()
    };
    match stage {
        Stage::Sharded => {
            let mut cfg = config.sharding.unwrap_or_default();
            cfg.greedy.verify = VerifyConfig::disabled();
            let out = shard_schedule_in(instance, cfg, ws).map_err(|e| e.to_string())?;
            metrics.record_shard(&out.stats);
            if span.is_recording() {
                span.record("shards", out.stats.shards as u64);
                span.record("fell_back_joint", out.stats.fell_back_joint);
            }
            Ok(out.schedule)
        }
        Stage::Greedy => {
            let out = greedy_schedule_in(instance, uncertified, ws).map_err(|e| e.to_string())?;
            metrics.record_greedy_arena(out.arena_bytes);
            Ok(out.schedule)
        }
        Stage::Tree => match check_feasibility(instance) {
            Feasibility::Feasible { schedule, .. } => Ok(schedule),
            Feasibility::Infeasible { witness: Some(w) } => Err(format!("infeasible: {w:?}")),
            Feasibility::Infeasible { witness: None } => Err("infeasible".into()),
            Feasibility::Unknown => Err("search budget exhausted".into()),
        },
        Stage::TwoPhase => unreachable!("two-phase is not an optimizing stage"),
    }
}

/// Walks the fallback chain for one request, recording per-stage
/// metrics. This is the worker-side entry point; it is deterministic
/// for a fixed request whenever the deadline does not bite (every
/// stage is itself deterministic).
///
/// Of `config` it reads `verify` (certification), `slack` (the seal's
/// slack policy) and `sharding` (the opt-in multi-flow stage). `ws`
/// carries the greedy gate's simulation buffers: the engine recycles
/// them across requests, so steady-state planning does not re-allocate
/// the load ledger per request.
pub fn plan_with_chain(
    req: &UpdateRequest,
    metrics: &EngineMetrics,
    ws: &mut SimWorkspace,
    config: &EngineConfig,
) -> PlannedUpdate {
    let verify = &config.verify;
    let started = Instant::now();
    let instance = &req.instance;
    let mut plan_span = chronus_trace::span!(
        "engine.plan",
        request = req.id.0,
        flows = instance.flows.len()
    )
    .entered();

    let mut attempts = Vec::with_capacity(Stage::CHAIN.len());
    let mut winner: Option<(Stage, Sealed)> = None;
    let mut deadline_exceeded = false;
    let mut cert_refused = false;

    // The sharded stage is recorded only when sharding is configured,
    // so unsharded engines keep the three-stage attempt list.
    let sharded = config.sharding.map(|_| Stage::Sharded);
    for stage in sharded.into_iter().chain([Stage::Greedy, Stage::Tree]) {
        let skipped = if winner.is_some() {
            Some("earlier stage won")
        } else if stage == Stage::Sharded && instance.flows.len() < 2 {
            Some("single-flow request")
        } else if started.elapsed() >= req.deadline {
            deadline_exceeded = true;
            metrics.record_skip(stage);
            Some("deadline exhausted")
        } else {
            None
        };
        if let Some(why) = skipped {
            attempts.push(StageAttempt {
                stage,
                outcome: StageOutcome::Skipped(why.into()),
                elapsed: Duration::ZERO,
            });
            continue;
        }

        let stage_start = Instant::now();
        let mut stage_span = chronus_trace::span!(stage_span_name(stage)).entered();
        let proposal = propose(stage, instance, config, metrics, ws, &mut stage_span);
        let elapsed = stage_start.elapsed();
        stage_span.record("outcome", if proposal.is_ok() { "won" } else { "failed" });
        drop(stage_span);

        let outcome = match proposal.map(|schedule| seal(req, schedule, config, metrics)) {
            Err(why) => StageOutcome::Failed(why),
            Ok(Ok(sealed)) => {
                winner = Some((stage, sealed));
                StageOutcome::Won
            }
            Ok(Err(violation)) => {
                // A forensic dump is taken once this request is counted.
                cert_refused = true;
                StageOutcome::Failed(format!("certifier refused: {violation}"))
            }
        };
        metrics.record_attempt(stage, &outcome, elapsed);
        attempts.push(StageAttempt {
            stage,
            outcome,
            elapsed,
        });
    }

    // The consistency-preserving last resort: two-phase always plans,
    // deadline or not — it is the reason a request cannot fail.
    let (winner, shipped) = match winner {
        Some(found) => {
            attempts.push(StageAttempt {
                stage: Stage::TwoPhase,
                outcome: StageOutcome::Skipped("earlier stage won".into()),
                elapsed: Duration::ZERO,
            });
            found
        }
        None => {
            let stage_start = Instant::now();
            let mut stage_span = chronus_trace::span!(stage_span_name(Stage::TwoPhase)).entered();
            let flip_time = tp_flip_time(instance);
            // Consistency-preserving by construction, but the certifier
            // can still refuse a flip window that transiently congests a
            // shared link; that legitimate `None` is what `certs.failed`
            // counts, and the violation goes on the trace.
            let certificate = if verify.enabled {
                match certify_two_phase(instance, flip_time) {
                    Ok(cert) => Some(cert),
                    Err(violation) => {
                        chronus_trace::instant!(
                            "engine.cert_refused",
                            request = req.id.0,
                            violation = violation.to_string()
                        );
                        cert_refused = true;
                        None
                    }
                }
            } else {
                None
            };
            stage_span.record("outcome", "won");
            drop(stage_span);
            let elapsed = stage_start.elapsed();
            metrics.record_attempt(Stage::TwoPhase, &StageOutcome::Won, elapsed);
            attempts.push(StageAttempt {
                stage: Stage::TwoPhase,
                outcome: StageOutcome::Won,
                elapsed,
            });
            let tp = TpBatchPlan {
                plans: instance.flows.iter().map(tp_plan).collect(),
                flip_time,
            };
            let shipped = Sealed {
                plan: PlanKind::TwoPhase(tp),
                certificate,
                slack: None,
                dilation: 1,
            };
            (Stage::TwoPhase, shipped)
        }
    };

    let certified = shipped.certificate.is_some();
    metrics.record_certification(verify.enabled, certified);
    if deadline_exceeded {
        chronus_trace::instant!("engine.deadline_expired", request = req.id.0);
    }
    if plan_span.is_recording() {
        plan_span.record("winner", winner.to_string());
        plan_span.record("deadline_exceeded", deadline_exceeded);
        plan_span.record("certified", certified);
    }
    let span_id = plan_span.id().unwrap_or(0);
    drop(plan_span);
    let planned = PlannedUpdate {
        id: req.id,
        plan: shipped.plan,
        winner,
        attempts,
        elapsed: started.elapsed(),
        cache_hit: true,
        deadline_exceeded,
        certificate: shipped.certificate,
        slack: shipped.slack,
        dilation: shipped.dilation,
        span_id,
    };
    metrics.record_completion(&planned);
    // Forensic dumps (rate limited, inert unless the recorder is on)
    // fire once this request is counted, so they embed its counters.
    if cert_refused {
        chronus_trace::FlightRecorder::trigger("cert-refused");
    }
    if deadline_exceeded {
        chronus_trace::FlightRecorder::trigger("deadline-expired");
    }
    planned
}

/// Plans `requests` one by one on the calling thread with fresh
/// metrics — the reference behaviour the concurrent engine must
/// reproduce plan-for-plan (see the equivalence property test).
pub fn plan_sequential(requests: &[UpdateRequest]) -> Vec<PlannedUpdate> {
    let metrics = EngineMetrics::new();
    let mut ws = SimWorkspace::default();
    let config = EngineConfig::default();
    requests
        .iter()
        .map(|r| plan_with_chain(r, &metrics, &mut ws, &config))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronus_core::shard::ShardingConfig;
    use chronus_net::motivating_example;
    use chronus_timenet::{FluidSimulator, Verdict};
    use chronus_verify::VerifyConfig;
    use std::sync::Arc;

    fn req(deadline: Duration) -> UpdateRequest {
        UpdateRequest::new(0, Arc::new(motivating_example()), deadline)
    }

    /// One chain walk on fresh buffers under `config`.
    fn plan(
        request: &UpdateRequest,
        metrics: &EngineMetrics,
        config: &EngineConfig,
    ) -> PlannedUpdate {
        plan_with_chain(request, metrics, &mut SimWorkspace::default(), config)
    }

    #[test]
    fn sharded_stage_skips_single_flow_requests() {
        let metrics = EngineMetrics::new();
        let sharded = EngineConfig::default().with_sharding(ShardingConfig::default());
        let planned = plan(&req(Duration::from_secs(30)), &metrics, &sharded);
        assert_eq!(planned.winner, Stage::Greedy);
        assert_eq!(planned.attempts.len(), 4);
        assert_eq!(
            planned.attempt(Stage::Sharded).unwrap().outcome,
            StageOutcome::Skipped("single-flow request".into())
        );
    }

    #[test]
    fn greedy_wins_the_motivating_example() {
        let metrics = EngineMetrics::new();
        let planned = plan(
            &req(Duration::from_secs(30)),
            &metrics,
            &EngineConfig::default(),
        );
        assert_eq!(planned.winner, Stage::Greedy);
        assert!(!planned.deadline_exceeded);
        let schedule = planned.timed_schedule().expect("timed plan");
        let inst = motivating_example();
        let report = FluidSimulator::check(&inst, schedule);
        assert_eq!(report.verdict(), Verdict::Consistent);
        // The winning plan ships with an independent certificate that
        // re-validates against the instance.
        let cert = planned.certificate.as_ref().expect("certificate");
        assert_eq!(cert.check(&inst), Ok(()));
        // Later stages are recorded as skipped, in chain order.
        assert_eq!(planned.attempts.len(), 3);
        assert!(matches!(
            planned.attempt(Stage::Tree).unwrap().outcome,
            StageOutcome::Skipped(_)
        ));
        assert!(matches!(
            planned.attempt(Stage::TwoPhase).unwrap().outcome,
            StageOutcome::Skipped(_)
        ));
    }

    #[test]
    fn zero_deadline_degrades_to_two_phase() {
        let metrics = EngineMetrics::new();
        let planned = plan(&req(Duration::ZERO), &metrics, &EngineConfig::default());
        assert_eq!(planned.winner, Stage::TwoPhase);
        assert!(planned.deadline_exceeded);
        assert!(matches!(planned.plan, PlanKind::TwoPhase(_)));
        for stage in [Stage::Greedy, Stage::Tree] {
            assert_eq!(
                planned.attempt(stage).unwrap().outcome,
                StageOutcome::Skipped("deadline exhausted".into())
            );
        }
    }

    #[test]
    fn two_phase_plan_reports_plan_error_instead_of_panicking() {
        let metrics = EngineMetrics::new();
        let planned = plan(&req(Duration::ZERO), &metrics, &EngineConfig::default());
        assert_eq!(planned.winner, Stage::TwoPhase);
        let err = planned
            .timed_schedule()
            .expect_err("two-phase plans carry no timed schedule");
        assert_eq!(
            err,
            PlanError {
                id: planned.id,
                winner: Stage::TwoPhase,
            }
        );
        assert!(err.to_string().contains("two-phase"));
    }

    #[test]
    fn disabled_verification_skips_certificates() {
        let metrics = EngineMetrics::new();
        let unverified = EngineConfig {
            verify: VerifyConfig::disabled(),
            ..EngineConfig::default()
        };
        let planned = plan(&req(Duration::from_secs(30)), &metrics, &unverified);
        assert_eq!(planned.winner, Stage::Greedy);
        assert!(planned.certificate.is_none());
        assert_eq!(metrics.report().certs.skipped, 1);
    }

    #[test]
    fn the_seal_refuses_an_inconsistent_proposal() {
        let request = req(Duration::from_secs(30));
        let naive = Schedule::all_at_zero(&request.instance);
        let metrics = EngineMetrics::new();
        for config in [
            EngineConfig::default(),
            EngineConfig::default().with_slack(SlackPolicy::default()),
        ] {
            let refused = seal(&request, naive.clone(), &config, &metrics);
            assert!(matches!(refused, Err(Violation::ForwardingLoop { .. })));
        }
    }

    #[test]
    fn sequential_planning_is_deterministic() {
        let requests: Vec<UpdateRequest> = (0..3)
            .map(|i| UpdateRequest::new(i, Arc::new(motivating_example()), Duration::from_secs(30)))
            .collect();
        let a = plan_sequential(&requests);
        let b = plan_sequential(&requests);
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.winner, y.winner);
            assert_eq!(x.plan.schedule(), y.plan.schedule());
        }
    }

    /// Plans `instance` under the default slack policy with the trace
    /// collector on, returning the plan and how many `verify.slack`
    /// searches ran under its `engine.stage.slack` span — one per
    /// dilation factor tried.
    fn slack_searches(instance: UpdateInstance) -> (PlannedUpdate, usize) {
        let request = UpdateRequest::new(9, Arc::new(instance), Duration::from_secs(30));
        let config = EngineConfig::default().with_slack(SlackPolicy::default());
        let planned = plan(&request, &EngineMetrics::new(), &config);
        // Other tests of this binary may be planning concurrently; keep
        // only the searches whose grandparent is this plan's span.
        let records = chronus_trace::Collector::drain();
        let parent_of = |id: u64| records.iter().find(|r| r.id == id).and_then(|r| r.parent);
        let searches = records
            .iter()
            .filter(|r| r.name == "verify.slack")
            .filter(|r| r.parent.and_then(parent_of) == Some(planned.span_id))
            .count();
        (planned, searches)
    }

    #[test]
    fn unaffordable_cube_ends_the_dilation_loop_after_one_search() {
        let _guard = chronus_trace::Collector::install();

        // 14 schedule entries: the k = 1 cube (2^14) is over budget at
        // every factor, so factor 1 ships after a single search.
        let (planned, searches) = slack_searches(chronus_net::reversal_instance(16, 2, 1));
        assert!(planned.timed_schedule().expect("timed plan").len() >= 13);
        let slack = planned.slack.as_ref().expect("slack certificate");
        assert!(slack.budget_exhausted && slack.slack_steps == 0, "{slack}");
        assert_eq!((planned.dilation, searches), (1, 1));

        // The tight motivating plan certifies no slack undilated and
        // ±1 step at factor 2: two searches, then the loop stops.
        let (planned, searches) = slack_searches(motivating_example());
        assert_eq!(planned.slack.as_ref().map(|s| s.slack_steps), Some(1));
        assert_eq!((planned.dilation, searches), (2, 2));
    }
}
