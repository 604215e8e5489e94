//! The engine proper: shared planning state (config, metrics, reusable
//! workspaces) that plans on its callers' threads.
// The one `expect` asserts that every batch slot was filled (a lane
// that panicked has already re-raised through the scope); a failure
// is a bug, and panicking the caller is the designed response.
#![allow(clippy::expect_used)]

use crate::fallback::{plan_with_chain, PlannedUpdate, SlackPolicy};
use crate::metrics::{EngineMetrics, PlanReport};
use crate::request::UpdateRequest;
use chronus_core::shard::ShardingConfig;
use chronus_net::UpdateInstance;
use chronus_timenet::SimWorkspace;
use chronus_verify::VerifyConfig;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;
use std::time::Duration;

/// Locks `m`, recovering a poisoned guard: the engine's mutexes
/// protect plain collections that every update leaves coherent, so a
/// thread that panicked while holding one abandoned nothing half-done.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Engine construction parameters.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Lanes a [`Engine::plan_batch`] call plans on (the caller plus
    /// `workers - 1` scoped threads), and the number of idle
    /// workspaces the engine keeps.
    pub workers: usize,
    /// Deadline given to requests submitted without one.
    pub default_deadline: Duration,
    /// Independent post-hoc certification of every winning plan.
    /// Enabled by default; benchmarks measuring raw planning latency
    /// can opt out with [`VerifyConfig::disabled`].
    pub verify: VerifyConfig,
    /// Slack policy for timed winners: when set, every timed plan is
    /// shipped with a slack certificate, dilating the schedule up to
    /// [`SlackPolicy::MAX_DILATION`] until the certified tolerance
    /// meets [`SlackPolicy::TARGET_STEPS`]. `None` (the default) skips
    /// the stage — plans ship exactly as the planners produced them.
    pub slack: Option<SlackPolicy>,
    /// Sharded multi-flow planning: when set, multi-flow requests run
    /// the sharded pre-stage — topology partitioning plus per-shard
    /// parallel planning over a shared-link capacity-reservation
    /// table — before the joint greedy. `None` (the default) plans
    /// every request jointly.
    pub sharding: Option<ShardingConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: thread::available_parallelism().map_or(2, |n| n.get().min(8)),
            default_deadline: Duration::from_secs(5),
            verify: VerifyConfig::default(),
            slack: None,
            sharding: None,
        }
    }
}

impl EngineConfig {
    /// A config with `workers` batch lanes and the default deadline.
    pub fn with_workers(workers: usize) -> Self {
        EngineConfig {
            workers,
            ..EngineConfig::default()
        }
    }

    /// Enables the slack stage with `policy` (builder style).
    #[must_use]
    pub fn with_slack(mut self, policy: SlackPolicy) -> Self {
        self.slack = Some(policy);
        self
    }

    /// Enables the sharded multi-flow pre-stage (builder style).
    #[must_use]
    pub fn with_sharding(mut self, sharding: ShardingConfig) -> Self {
        self.sharding = Some(sharding);
        self
    }
}

/// A concurrent batched update-planning engine.
///
/// The engine is shared state and owns no threads: the configuration,
/// one metrics sink and a stack of reusable simulation workspaces. [`Engine::plan_one`] plans on the
/// calling thread; [`Engine::plan_batch`] spreads a batch over
/// `workers` scoped lanes that end with the call.
///
/// ```
/// use chronus_engine::{Engine, EngineConfig};
/// use chronus_net::motivating_example;
/// use std::sync::Arc;
///
/// let engine = Engine::new(EngineConfig::with_workers(2));
/// let plans = engine.plan_instances(vec![Arc::new(motivating_example())]);
/// assert_eq!(plans.len(), 1);
/// println!("{}", engine.report());
/// ```
pub struct Engine {
    metrics: EngineMetrics,
    config: EngineConfig,
    /// Idle workspaces, at most `config.workers` of them: the greedy
    /// gate's ledger and trace buffers are recycled across requests
    /// whichever thread plans them.
    workspaces: Mutex<Vec<SimWorkspace>>,
}

impl Engine {
    /// Builds the engine's shared state.
    ///
    /// # Panics
    /// Panics if `config.workers` is zero.
    pub fn new(config: EngineConfig) -> Self {
        assert!(config.workers > 0, "engine needs at least one worker");
        Engine {
            metrics: EngineMetrics::new(),
            workspaces: Mutex::new(Vec::new()),
            config,
        }
    }

    /// The configuration the engine was built with.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// An idle workspace, or a fresh one when every idle one is in use.
    fn take_workspace(&self) -> SimWorkspace {
        lock(&self.workspaces).pop().unwrap_or_default()
    }

    fn put_workspace(&self, ws: SimWorkspace) {
        let mut idle = lock(&self.workspaces);
        if idle.len() < self.config.workers {
            idle.push(ws);
        }
    }

    fn plan_in(&self, request: &UpdateRequest, ws: &mut SimWorkspace) -> PlannedUpdate {
        plan_with_chain(request, &self.metrics, ws, &self.config)
    }

    /// Plans a single request on the calling thread.
    pub fn plan_one(&self, request: UpdateRequest) -> PlannedUpdate {
        let mut ws = self.take_workspace();
        let planned = self.plan_in(&request, &mut ws);
        self.put_workspace(ws);
        planned
    }

    /// Plans a batch, blocking until every request is answered;
    /// answer `i` belongs to request `i` whichever lane planned it.
    /// The caller is lane 0 and up to `workers - 1` scoped threads
    /// join it for the length of the call, each claiming the next
    /// unplanned request off a shared cursor.
    pub fn plan_batch(&self, requests: Vec<UpdateRequest>) -> Vec<PlannedUpdate> {
        let slots: Vec<OnceLock<PlannedUpdate>> =
            requests.iter().map(|_| OnceLock::new()).collect();
        let cursor = AtomicUsize::new(0);
        let claim = || {
            // Relaxed: the cursor hands out indices and publishes no
            // data; the scope's join orders every slot write before
            // the slots are read.
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            requests.get(i).zip(slots.get(i))
        };
        let lane = || {
            let mut ws = self.take_workspace();
            while let Some((request, slot)) = claim() {
                let _ = slot.set(self.plan_in(request, &mut ws));
            }
            self.put_workspace(ws);
        };
        thread::scope(|scope| {
            for _ in 1..self.config.workers.min(requests.len()) {
                scope.spawn(lane);
            }
            lane();
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every index is claimed once"))
            .collect()
    }

    /// Convenience wrapper: one request per instance, ids by batch
    /// position, all with the default deadline.
    pub fn plan_instances(&self, instances: Vec<Arc<UpdateInstance>>) -> Vec<PlannedUpdate> {
        let deadline = self.config.default_deadline;
        let requests = instances
            .into_iter()
            .enumerate()
            .map(|(i, inst)| UpdateRequest::new(i as u64, inst, deadline))
            .collect();
        self.plan_batch(requests)
    }

    /// Snapshot of the engine's planning metrics.
    pub fn report(&self) -> PlanReport {
        self.metrics.report()
    }

    /// The engine's live metrics (its scoped registry lives inside;
    /// see [`EngineMetrics::registry`] for Prometheus/JSON exposition).
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fallback::Stage;
    use chronus_net::motivating_example;
    use chronus_timenet::{FluidSimulator, Verdict};

    #[test]
    fn plans_a_batch_in_submission_order() {
        let engine = Engine::new(EngineConfig::with_workers(3));
        let inst = Arc::new(motivating_example());
        let plans = engine.plan_instances(vec![inst.clone(); 8]);
        assert_eq!(plans.len(), 8);
        for (i, p) in plans.iter().enumerate() {
            assert_eq!(p.id.0, i as u64, "submission order preserved");
            assert_eq!(p.winner, Stage::Greedy);
            let schedule = p.timed_schedule().expect("greedy plans carry a schedule");
            let report = FluidSimulator::check(&inst, schedule);
            assert_eq!(report.verdict(), Verdict::Consistent);
            let cert = p.certificate.as_ref().expect("certified by default");
            assert_eq!(cert.check(&inst), Ok(()));
        }
        let report = engine.report();
        assert_eq!(report.completed, 8);
        assert_eq!(report.certs.issued, 8);
        assert_eq!(report.certs.failed + report.certs.skipped, 0);
    }

    #[test]
    fn engine_survives_multiple_batches() {
        let engine = Engine::new(EngineConfig::with_workers(2));
        let inst = Arc::new(motivating_example());
        for round in 1..=3 {
            let plans = engine.plan_instances(vec![inst.clone(); 4]);
            assert_eq!(plans.len(), 4);
            assert_eq!(engine.report().completed, round * 4);
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn rejects_zero_workers() {
        let _ = Engine::new(EngineConfig::with_workers(0));
    }

    #[test]
    fn workspaces_are_reused_by_single_plans_and_batches() {
        use chronus_net::reversal_instance;
        let engine = Engine::new(EngineConfig::with_workers(2));
        let deadline = engine.config().default_deadline;
        // One shape throughout: a workspace's high-water mark depends
        // on the order it met its instances in, and batch lanes claim
        // in no fixed order.
        let inst = Arc::new(reversal_instance(12, 2, 1));
        let arena = || {
            engine
                .metrics()
                .snapshot()
                .gauge("chronus_engine_greedy_arena_bytes")
        };
        let singles = |ids: std::ops::Range<u64>| {
            for id in ids {
                engine.plan_one(UpdateRequest::new(id, inst.clone(), deadline));
            }
            arena()
        };
        // A recycled workspace settles within a few runs and then
        // stops growing; a fresh one in a batch lane retraces the
        // same steps, so the high-water gauge never moves again.
        let settled = singles(0..100);
        assert!(settled > Some(0), "{settled:?}");
        assert_eq!(singles(100..200), settled, "no growth per request");
        assert_eq!(
            lock(&engine.workspaces).len(),
            1,
            "one caller, one workspace"
        );
        for _ in 0..3 {
            engine.plan_instances(vec![inst.clone(); 8]);
        }
        let idle = lock(&engine.workspaces).len();
        assert!((1..=2).contains(&idle), "{idle} idle workspaces");
        assert_eq!(arena(), settled, "batch lanes recycle too");
        assert_eq!(engine.report().completed, 200 + 24);
    }

    #[test]
    fn slack_policy_dilates_plans_to_the_target() {
        use crate::fallback::SlackPolicy;
        let engine = Engine::new(EngineConfig::with_workers(2).with_slack(SlackPolicy::default()));
        let inst = Arc::new(motivating_example());
        let plans = engine.plan_instances(vec![inst.clone(); 4]);
        for p in &plans {
            assert_eq!(p.winner, Stage::Greedy);
            let slack = p.slack.as_ref().expect("slack certificate attached");
            assert!(
                slack.slack_steps >= 1,
                "policy target reached: {}",
                slack.slack_steps
            );
            // The greedy packing is tight (slack 0); reaching the
            // target takes an actual dilation.
            assert!(p.dilation > 1, "dilated by {}", p.dilation);
            // The shipped (dilated) schedule still certifies and the
            // consistency certificate matches it.
            let schedule = p.timed_schedule().expect("timed plan");
            let report = FluidSimulator::check(&inst, schedule);
            assert_eq!(report.verdict(), Verdict::Consistent);
            let cert = p.certificate.as_ref().expect("certified");
            assert_eq!(cert.check(&inst), Ok(()));
        }
        let report = engine.report();
        assert_eq!(report.slack.certified, 4);
        assert_eq!(report.slack.dilated, 4);
        assert_eq!(report.slack.target_missed, 0);
        assert_eq!(report.slack.uncertifiable, 0);
        assert!(report.slack.schedules_checked > 0);
        assert!(report.to_string().contains("slack: 4 certified"));
        // One certified tolerance per plan, each at least the target.
        let steps = engine
            .metrics()
            .snapshot()
            .histogram("chronus_engine_slack_steps");
        assert!(matches!(steps, Some((sum, 4)) if sum >= 4), "{steps:?}");
    }

    #[test]
    fn sharded_engine_plans_multi_flow_batches() {
        use chronus_net::topology::{fat_tree, LinkParams};
        use chronus_net::{Flow, FlowId, Path, UpdateInstance};
        let net = fat_tree(
            4,
            LinkParams {
                capacity: 1000,
                delay: 1,
            },
        );
        let by_name = |n: &str| {
            net.switches()
                .find(|&s| net.switch_name(s) == Some(n))
                .unwrap()
        };
        let flows: Vec<_> = (0..4u32)
            .map(|pod| {
                Flow::new(
                    FlowId(pod),
                    100,
                    Path::new(vec![
                        by_name(&format!("edge{}", 2 * pod)),
                        by_name(&format!("agg{}", 2 * pod)),
                        by_name(&format!("edge{}", 2 * pod + 1)),
                    ]),
                    Path::new(vec![
                        by_name(&format!("edge{}", 2 * pod)),
                        by_name(&format!("agg{}", 2 * pod + 1)),
                        by_name(&format!("edge{}", 2 * pod + 1)),
                    ]),
                )
                .unwrap()
            })
            .collect();
        let inst = Arc::new(UpdateInstance::new(net, flows).unwrap());
        let engine =
            Engine::new(EngineConfig::with_workers(2).with_sharding(ShardingConfig::default()));
        let plans = engine.plan_instances(vec![inst.clone(); 3]);
        for p in &plans {
            assert_eq!(p.winner, Stage::Sharded);
            let schedule = p.timed_schedule().expect("timed plan");
            assert_eq!(
                FluidSimulator::check(&inst, schedule).verdict(),
                Verdict::Consistent
            );
            let cert = p.certificate.as_ref().expect("sealed certificate");
            assert_eq!(cert.check(&inst), Ok(()));
        }
        let report = engine.report();
        assert_eq!(report.sharded.wins, 3);
        assert!(report.shard.shards_planned >= 6, "{:?}", report.shard);
        assert!(report.to_string().contains("sharded"));
        // Single-flow requests under the same engine skip the stage
        // and fall to greedy unchanged.
        let single = engine.plan_instances(vec![Arc::new(motivating_example())]);
        assert_eq!(single[0].winner, Stage::Greedy);
    }

    #[test]
    fn without_slack_policy_plans_ship_undilated() {
        let engine = Engine::new(EngineConfig::with_workers(1));
        let inst = Arc::new(motivating_example());
        let plans = engine.plan_instances(vec![inst]);
        assert!(plans[0].slack.is_none());
        assert_eq!(plans[0].dilation, 1);
        let report = engine.report();
        assert_eq!(report.slack, crate::metrics::SlackStats::default());
        assert!(!report.to_string().contains("slack:"));
    }
}
