//! Sharded multi-flow planning over shared capacity (ROADMAP item 2).
//!
//! The joint greedy scheduler treats a K-flow [`UpdateInstance`] as
//! one monolithic search; on fabric-scale topologies that serializes
//! everything behind a single simulator. This module splits the
//! instance along the topology — fat-tree pods or min-cut regions,
//! via `chronus_net::partition` — and plans the shards **in
//! parallel**, coordinating only where shards genuinely interact: the
//! shared links, links loaded by flows of two or more shards.
//!
//! ## The reservation protocol (reserve → plan → check)
//!
//! 1. **Reserve.** A `ReservationTable` grants every shard a slice
//!    of each shared link's capacity. When the shards' *static needs*
//!    (the per-shard sum of flow demands occupying the link — an upper
//!    bound on any transient peak, since paths are simple) all fit
//!    within capacity, the grants are safe by construction. Otherwise
//!    the table starts **optimistic**: grants interpolate between the
//!    full static need (headroom 1, betting that shard peaks do not
//!    coincide in time) and the proportional fair share (headroom 0,
//!    guaranteed additive), tightening every round.
//! 2. **Plan.** Each populated shard plans its own flows, uncertified,
//!    with the ordinary greedy scheduler against a network whose shared
//!    links are clamped to the shard's grant — so the shard's exact gate
//!    enforces the reservation with no new machinery.
//! 3. **Check.** The merged schedule gets one verdict-only
//!    certification against the original instance. A refusal is a
//!    **conflict** — two optimistic grants overlapped in time — and
//!    triggers a replan round with less headroom; after
//!    `MAX_ROUNDS` rounds the planner falls back to the joint greedy,
//!    so sharding never loses feasibility, only time.
//!
//! The joint check runs whatever `greedy.verify` says, as the exact
//! gate does; `greedy.verify.enabled` only decides whether the outcome
//! carries the resulting certificate (link bounds, no boundary
//! witnesses).
//!
//! Single-shard cases — one flow, one populated shard, or `shards <=
//! 1` — delegate verbatim to [`greedy_schedule_in`], so their
//! schedules are **byte-identical** to the joint planner's (pinned by
//! the differential proptest in `tests/shard_props.rs`).

// Shard and link indices are minted dense by the splitter; the grant
// table is indexed by (link, shard) arithmetic over those ranges.
#![allow(clippy::indexing_slicing)]

use crate::greedy::{greedy_schedule_in, GreedyConfig, GreedyOutcome};
use crate::ScheduleError;
use chronus_net::partition::{split_instance, SharedLink};
use chronus_net::{Capacity, SwitchId, TimeStep, UpdateInstance};
use chronus_timenet::{Schedule, SimWorkspace};
use chronus_verify::{certify_with, Certificate, VerifyConfig};
use std::collections::BTreeMap;
use std::sync::mpsc;

/// Planning rounds on contended shared links before falling back to
/// the joint greedy. Round 0 grants full static needs; the last round
/// grants proportional fair shares.
const MAX_ROUNDS: usize = 3;

/// The joint check: a verdict plus link bounds, no boundary witnesses.
const JOINT_CHECK: VerifyConfig = VerifyConfig {
    enabled: true,
    witnesses: false,
};

/// Tuning knobs for [`shard_schedule_with`].
#[derive(Clone, Copy, Debug)]
pub struct ShardingConfig {
    /// Target shard count; the partitioner may produce fewer (it
    /// never splits a fat-tree pod). `<= 1` disables sharding.
    pub shards: usize,
    /// Planner configuration for the delegated and joint-fallback
    /// runs. Shards plan with it uncertified; `verify.enabled` decides
    /// whether a sharded outcome carries the joint check's certificate.
    pub greedy: GreedyConfig,
}

impl Default for ShardingConfig {
    fn default() -> Self {
        ShardingConfig {
            shards: 8,
            greedy: GreedyConfig::default(),
        }
    }
}

/// Counters describing how a sharded plan came together.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shards that owned at least one flow and were planned.
    pub shards: usize,
    /// Topological cross-shard links in the partition.
    pub cross_links: usize,
    /// Links that needed capacity reservations (loaded by ≥ 2 shards).
    pub shared_links: usize,
    /// Replan rounds consumed beyond the first (0 = first try stuck).
    pub replan_rounds: usize,
    /// Reservation conflicts: merged schedules the joint check refused.
    pub conflicts: usize,
    /// Whether the planner gave up on sharding and planned jointly.
    pub fell_back_joint: bool,
}

/// The result of a successful sharded run.
#[derive(Clone, Debug)]
pub struct ShardOutcome {
    /// The merged congestion- and loop-free schedule.
    pub schedule: Schedule,
    /// Makespan across all shards (latest update step).
    pub makespan: TimeStep,
    /// The joint check's certificate on the sharded path, the ordinary
    /// greedy certificate on delegated or fallback paths, `None` when
    /// `greedy.verify` is disabled.
    pub certificate: Option<Certificate>,
    /// How the plan came together.
    pub stats: ShardStats,
}

/// Per-(link, shard) capacity grants over the shared links.
///
/// Kept flat (`grants[link * shards + shard]`) so the per-round grant
/// kernel touches no allocator — it runs inside the replan loop.
struct ReservationTable {
    links: Vec<SharedLink>,
    shards: usize,
    grants: Vec<Capacity>,
}

impl ReservationTable {
    fn new(links: Vec<SharedLink>, shards: usize) -> Self {
        let grants = vec![0; links.len() * shards];
        ReservationTable {
            links,
            shards,
            grants,
        }
    }

    /// Whether every shared link can grant all static needs additively
    /// (no link is contended, so any round of grants is safe).
    fn conservative(&self) -> bool {
        self.links.iter().all(|l| l.total_need() <= l.capacity)
    }

    /// Recomputes every grant for one round at the given headroom
    /// (1 = optimistic full static need, 0 = proportional fair share).
    /// Alloc-free: runs once per replan round.
    fn grant_round(&mut self, headroom: f64) {
        let h = headroom.clamp(0.0, 1.0);
        for (li, link) in self.links.iter().enumerate() {
            let base = li * self.shards;
            let total = link.total_need();
            let cap = link.capacity;
            if total <= cap {
                // Uncontended: static needs plus an even split of the
                // spare capacity among the link's users.
                let users = link.users() as Capacity;
                let spare = (cap - total).checked_div(users).unwrap_or(0);
                for s in 0..self.shards {
                    let need = link.needs[s];
                    self.grants[base + s] = if need > 0 { need + spare } else { 0 };
                }
            } else {
                // Contended: interpolate fair share → static need by
                // headroom, never below the shard's largest single
                // demand (the floor for instance validity).
                for s in 0..self.shards {
                    let need = link.needs[s];
                    if need == 0 {
                        self.grants[base + s] = 0;
                        continue;
                    }
                    let fair = ((cap as u128 * need as u128) / total as u128) as Capacity;
                    let reach = need.saturating_sub(fair) as f64 * h;
                    self.grants[base + s] = (fair + reach as Capacity).max(link.min_needs[s]);
                }
            }
        }
    }

    fn grant(&self, link: usize, shard: usize) -> Capacity {
        self.grants[link * self.shards + shard]
    }
}

/// Plans `instance` with explicit sharding configuration.
///
/// # Errors
/// See [`crate::greedy::greedy_schedule`]; sharding adds no failure
/// modes of its own (exhausted rounds fall back to the joint greedy).
// chronus-lint: allow(dead-pub) — read by crates/core/tests/shard_pins.rs
pub fn shard_schedule_with(
    instance: &UpdateInstance,
    config: ShardingConfig,
) -> Result<ShardOutcome, ScheduleError> {
    let mut ws = SimWorkspace::default();
    shard_schedule_in(instance, config, &mut ws)
}

/// Plans `instance` reusing caller-owned simulation buffers: for the
/// delegated / joint-fallback paths and for the shards the calling
/// thread plans itself (further parallel lanes own their own).
///
/// # Errors
/// See [`shard_schedule_with`].
pub fn shard_schedule_in(
    instance: &UpdateInstance,
    config: ShardingConfig,
    workspace: &mut SimWorkspace,
) -> Result<ShardOutcome, ScheduleError> {
    let _span = chronus_trace::span!(
        "core.shard",
        flows = instance.flows.len(),
        shards = config.shards
    )
    .entered();
    // Degenerate shapes delegate verbatim (byte-identical schedules).
    if instance.flows.len() < 2 || config.shards <= 1 {
        let joint = greedy_schedule_in(instance, config.greedy, workspace)?;
        return Ok(from_joint(
            joint,
            ShardStats {
                shards: 1,
                ..ShardStats::default()
            },
        ));
    }

    let split = split_instance(instance, config.shards);
    let populated: Vec<usize> = (0..split.partition.shards)
        .filter(|&s| !split.flow_shards[s].is_empty())
        .collect();
    let mut stats = ShardStats {
        shards: populated.len(),
        cross_links: split.partition.cross_links.len(),
        shared_links: split.shared_links.len(),
        ..ShardStats::default()
    };
    if populated.len() <= 1 {
        let joint = greedy_schedule_in(instance, config.greedy, workspace)?;
        stats.shards = 1;
        return Ok(from_joint(joint, stats));
    }

    let mut table = ReservationTable::new(split.shared_links.clone(), split.partition.shards);
    let rounds = if table.conservative() { 1 } else { MAX_ROUNDS };
    let shard_greedy = GreedyConfig {
        verify: VerifyConfig::disabled(),
        ..config.greedy
    };
    for round in 0..rounds {
        let headroom = if rounds == 1 {
            1.0
        } else {
            (rounds - 1 - round) as f64 / (rounds - 1) as f64
        };
        table.grant_round(headroom);
        stats.replan_rounds = round;

        let mut shard_instances = Vec::with_capacity(populated.len());
        for &s in &populated {
            shard_instances.push(shard_instance(instance, &split.flow_shards[s], s, &table)?);
        }
        let outcomes = match plan_shards(&shard_instances, shard_greedy, workspace) {
            Ok(o) => o,
            // A shard failing at these grants will not pass tighter
            // ones — contention only grows as headroom shrinks — so
            // fall straight back to the joint planner.
            Err(_) => break,
        };
        let mut schedule = Schedule::new();
        for o in &outcomes {
            for (flow, switch, t) in o.schedule.iter() {
                schedule.set(flow, switch, t);
            }
        }
        match certify_with(instance, &schedule, &JOINT_CHECK) {
            Ok(certificate) => {
                return Ok(ShardOutcome {
                    schedule,
                    makespan: outcomes.iter().map(|o| o.makespan).max().unwrap_or(0),
                    certificate: config.greedy.verify.enabled.then_some(certificate),
                    stats,
                });
            }
            Err(_) => stats.conflicts += 1,
        }
    }

    // Out of rounds: joint fallback.
    stats.fell_back_joint = true;
    let joint = greedy_schedule_in(instance, config.greedy, workspace)?;
    Ok(from_joint(joint, stats))
}

/// Builds shard `s`'s planning view: its own flows against a network
/// pruned to exactly the links those flows touch, with shared links
/// clamped to the shard's grants.
///
/// The pruning is lossless: Chronus schedules update *times* over
/// fixed routes, so a shard's planner never looks at a link outside
/// its flows' initial and final paths — but the simulator's
/// per-candidate cost scales with the network it is handed. Keeping
/// the full switch numbering (so the merged schedule is checked against
/// the original instance) while dropping every untouched link makes each
/// shard pay for its own region, not the whole fabric.
fn shard_instance(
    instance: &UpdateInstance,
    flow_indices: &[usize],
    shard: usize,
    table: &ReservationTable,
) -> Result<UpdateInstance, ScheduleError> {
    let mut overrides: BTreeMap<(SwitchId, SwitchId), Capacity> = BTreeMap::new();
    for (li, link) in table.links.iter().enumerate() {
        if link.needs[shard] > 0 {
            overrides.insert((link.src, link.dst), table.grant(li, shard));
        }
    }
    let mut builder =
        chronus_net::NetworkBuilder::with_unnamed_switches(instance.network.switch_count());
    let mut seen: BTreeMap<(SwitchId, SwitchId), ()> = BTreeMap::new();
    for &fi in flow_indices {
        let flow = &instance.flows[fi];
        for path in [&flow.initial, &flow.fin] {
            for (u, v) in path.edges() {
                if seen.insert((u, v), ()).is_some() {
                    continue;
                }
                let link = instance.network.link_between(u, v).ok_or_else(|| {
                    ScheduleError::Infeasible {
                        blocked: None,
                        reason: format!("flow path link {u:?}->{v:?} missing from network"),
                    }
                })?;
                let capacity = overrides.get(&(u, v)).copied().unwrap_or(link.capacity);
                builder.add_link(u, v, capacity, link.delay).map_err(|e| {
                    ScheduleError::Infeasible {
                        blocked: None,
                        reason: format!("shard view link {u:?}->{v:?}: {e}"),
                    }
                })?;
            }
        }
    }
    let flows = flow_indices
        .iter()
        .map(|&fi| instance.flows[fi].clone())
        .collect();
    UpdateInstance::new(builder.build(), flows).map_err(ScheduleError::from)
}

/// Plans every shard instance in parallel. Results come back in shard
/// order regardless of completion order, so the merged schedule is
/// deterministic.
///
/// Parallel means one lane per core, not one thread per shard: lane
/// `l` of `n` plans shards `l`, `l + n`, … on one workspace. The
/// caller is lane 0 (with its own long-lived `workspace`) and each
/// further lane is a scoped thread, so a request starts `cores - 1`
/// threads whatever its shard count, and on a single-core host none
/// (worker threads only pay off when there are cores to run them).
fn plan_shards(
    instances: &[UpdateInstance],
    greedy: GreedyConfig,
    workspace: &mut SimWorkspace,
) -> Result<Vec<GreedyOutcome>, ScheduleError> {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let lanes = instances.len().min(cores).max(1);
    let lane = |first: usize, ws: &mut SimWorkspace| -> Vec<_> {
        instances
            .iter()
            .enumerate()
            .skip(first)
            .step_by(lanes)
            .map(|(i, inst)| (i, greedy_schedule_in(inst, greedy, ws)))
            .collect()
    };
    let mut slots: Vec<Option<Result<GreedyOutcome, ScheduleError>>> =
        (0..instances.len()).map(|_| None).collect();
    // Lane threads plan under the caller's span, as lane 0 does.
    let parent = chronus_trace::Span::current_id();
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        for first in 1..lanes {
            let tx = tx.clone();
            let lane = &lane;
            scope.spawn(move || {
                let _parent = chronus_trace::Span::adopt(parent);
                let _ = tx.send(lane(first, &mut SimWorkspace::default()));
            });
        }
        drop(tx);
        let own = lane(0, workspace);
        for (i, result) in own.into_iter().chain(rx.into_iter().flatten()) {
            slots[i] = Some(result);
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|| {
                Err(ScheduleError::Infeasible {
                    blocked: None,
                    reason: "shard worker vanished".into(),
                })
            })
        })
        .collect()
}

fn from_joint(joint: GreedyOutcome, stats: ShardStats) -> ShardOutcome {
    ShardOutcome {
        schedule: joint.schedule,
        makespan: joint.makespan,
        certificate: joint.certificate,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_schedule_with;
    use chronus_net::topology::{fat_tree, LinkParams};
    use chronus_net::{Flow, FlowId, Network, Path};

    fn params() -> LinkParams {
        LinkParams {
            capacity: 1000,
            delay: 1,
        }
    }

    fn by_name(net: &Network, n: &str) -> SwitchId {
        net.switches()
            .find(|&s| net.switch_name(s) == Some(n))
            .unwrap()
    }

    /// k=4 fat tree with one pod-local migration per pod: fully
    /// pod-separable, so sharding needs no reservations at all.
    fn separable_instance() -> UpdateInstance {
        let net = fat_tree(4, params());
        let mut flows = Vec::new();
        for pod in 0..4u32 {
            let e0 = by_name(&net, &format!("edge{}", 2 * pod));
            let e1 = by_name(&net, &format!("edge{}", 2 * pod + 1));
            let a0 = by_name(&net, &format!("agg{}", 2 * pod));
            let a1 = by_name(&net, &format!("agg{}", 2 * pod + 1));
            flows.push(
                Flow::new(
                    FlowId(pod),
                    100,
                    Path::new(vec![e0, a0, e1]),
                    Path::new(vec![e0, a1, e1]),
                )
                .unwrap(),
            );
        }
        UpdateInstance::new(net, flows).unwrap()
    }

    #[test]
    fn separable_instance_plans_without_conflicts() {
        let inst = separable_instance();
        let out = shard_schedule_with(&inst, ShardingConfig::default()).unwrap();
        assert!(out.stats.shards >= 2);
        assert_eq!(out.stats.conflicts, 0);
        assert!(!out.stats.fell_back_joint);
        // The joint certificate seals the merged schedule against the
        // original instance.
        let cert = out.certificate.expect("verify enabled by default");
        assert_eq!(cert.check(&inst), Ok(()));
        // And the schedule itself re-certifies from scratch.
        assert!(chronus_verify::certify(&inst, &out.schedule).is_ok());
    }

    #[test]
    fn single_flow_delegates_byte_identically() {
        let inst = chronus_net::motivating_example();
        let sharded = shard_schedule_with(&inst, ShardingConfig::default()).unwrap();
        let joint = greedy_schedule_with(&inst, GreedyConfig::default()).unwrap();
        assert_eq!(sharded.schedule, joint.schedule);
        assert_eq!(sharded.makespan, joint.makespan);
        assert_eq!(sharded.stats.shards, 1);
    }

    #[test]
    fn contended_shared_link_still_produces_a_sealed_plan() {
        // Two clusters joined by a 150-capacity bridge 2->3 that one
        // 100-demand flow must leave and another must enter: static
        // needs sum to 200 > 150 (contended), but a temporal handoff
        // exists. Whether the optimistic rounds land it or the planner
        // falls back to joint, the outcome must carry a certificate
        // that seals the ORIGINAL instance.
        let mut b = chronus_net::NetworkBuilder::with_switches(7);
        let s = SwitchId;
        for (u, v, cap) in [
            (0u32, 1u32, 1000u64),
            (1, 2, 1000),
            (2, 3, 150), // the contended bridge
            (0, 6, 1000),
            (6, 3, 1000),
            (5, 4, 1000),
            (4, 3, 1000),
            (5, 2, 1000),
        ] {
            b.add_link(s(u), s(v), cap, 1).unwrap();
        }
        let net = b.build();
        // f0 starts on the bridge and migrates off it.
        let f0 = Flow::new(
            FlowId(0),
            100,
            Path::new(vec![s(0), s(1), s(2), s(3)]),
            Path::new(vec![s(0), s(6), s(3)]),
        )
        .unwrap();
        // f1 starts off the bridge and migrates onto it.
        let f1 = Flow::new(
            FlowId(1),
            100,
            Path::new(vec![s(5), s(4), s(3)]),
            Path::new(vec![s(5), s(2), s(3)]),
        )
        .unwrap();
        let inst = UpdateInstance::new(net, vec![f0, f1]).unwrap();
        let out = shard_schedule_with(
            &inst,
            ShardingConfig {
                shards: 2,
                ..ShardingConfig::default()
            },
        )
        .unwrap();
        let cert = out.certificate.expect("verify enabled");
        assert_eq!(cert.check(&inst), Ok(()));
        assert!(chronus_verify::certify(&inst, &out.schedule).is_ok());
        // The bridge really was a reservation surface.
        if out.stats.shards == 2 {
            assert_eq!(out.stats.shared_links, 1);
            // Optimistic grants of 100 + 100 over 150 either collided
            // (conflict then fallback) or the joint check proved the
            // handoff clean — both are legal, silence is not.
            assert!(out.stats.conflicts > 0 || !out.stats.fell_back_joint);
        }
    }

    #[test]
    fn verify_disabled_shards_without_a_certificate() {
        let inst = separable_instance();
        let cfg = ShardingConfig {
            greedy: GreedyConfig {
                verify: chronus_verify::VerifyConfig::disabled(),
                ..GreedyConfig::default()
            },
            ..ShardingConfig::default()
        };
        let out = shard_schedule_with(&inst, cfg).unwrap();
        assert!(out.certificate.is_none());
        // The joint check still ran and accepted the sharded plan.
        assert!(!out.stats.fell_back_joint);
        assert_eq!(
            out.schedule,
            shard_schedule_with(&inst, ShardingConfig::default())
                .unwrap()
                .schedule
        );
        // The emitted schedule is still consistent.
        assert!(chronus_verify::certify(&inst, &out.schedule).is_ok());
    }

    #[test]
    fn reservation_grants_are_additive_when_uncontended() {
        let links = vec![SharedLink {
            src: SwitchId(0),
            dst: SwitchId(1),
            capacity: 100,
            needs: vec![30, 50],
            min_needs: vec![30, 25],
        }];
        let mut t = ReservationTable::new(links, 2);
        assert!(t.conservative());
        t.grant_round(1.0);
        // 20 spare / 2 users = 10 extra each.
        assert_eq!(t.grant(0, 0), 40);
        assert_eq!(t.grant(0, 1), 60);
    }

    #[test]
    fn contended_grants_tighten_with_headroom() {
        let links = vec![SharedLink {
            src: SwitchId(0),
            dst: SwitchId(1),
            capacity: 100,
            needs: vec![80, 80],
            min_needs: vec![20, 20],
        }];
        let mut t = ReservationTable::new(links, 2);
        assert!(!t.conservative());
        t.grant_round(1.0);
        // Fully optimistic: each shard gets its whole static need.
        assert_eq!((t.grant(0, 0), t.grant(0, 1)), (80, 80));
        t.grant_round(0.0);
        // Fair shares are additive within capacity.
        assert!(t.grant(0, 0) + t.grant(0, 1) <= 100);
        // And never below the single-flow floor.
        assert!(t.grant(0, 0) >= 20 && t.grant(0, 1) >= 20);
    }
}
