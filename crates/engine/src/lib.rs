//! # chronus-engine — a concurrent batched update-planning engine
//!
//! The paper's algorithms plan one flow migration at a time; a timed
//! SDN controller faces a *stream* of them. This crate turns the
//! workspace's planners into a long-lived service:
//!
//! - [`Engine`]: shared planning state with no threads of its own —
//!   one [`UpdateRequest`] is planned on the thread that brought it, a
//!   batch on `workers` scoped lanes, answered in submission order;
//! - the **fallback chain** ([`plan_with_chain`]): (sharded →) greedy
//!   scheduler → tree feasibility search → two-phase baseline, so every
//!   request leaves with a consistency-preserving plan — deadline
//!   pressure degrades plan *quality* (rule overhead), never
//!   correctness;
//! - the **seal**: each timed proposal is certified once before it
//!   ships, and a refused one fails its stage. Under a [`SlackPolicy`]
//!   the seal is the slack stage: timed winners ship with a slack
//!   certificate — the certified timing tolerance ±Δ — dilating the
//!   schedule to buy tolerance when the planner's packing certifies
//!   none;
//! - [`PlanReport`]: per-stage latencies and win counts, certifier and
//!   slack outcomes and deadline casualties, read off the engine's
//!   metrics registry ([`EngineMetrics`]).
//!
//! Concurrency is observationally pure: every chain stage is
//! deterministic, so a batch planned on N lanes yields exactly the
//! plans of [`plan_sequential`] whenever deadlines do not bite — a
//! property pinned by this crate's tests.
//!
//! ```
//! use chronus_engine::{Engine, EngineConfig, Stage};
//! use chronus_net::motivating_example;
//! use std::sync::Arc;
//!
//! let engine = Engine::new(EngineConfig::with_workers(2));
//! let plans = engine.plan_instances(vec![Arc::new(motivating_example()); 4]);
//! assert!(plans.iter().all(|p| p.winner == Stage::Greedy));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

mod cache;
mod fallback;
mod metrics;
mod pool;
mod request;

// Off every request path (see the module doc); exported until the
// benchmark's traced replay stops timing a window lookup.
pub use cache::{flow_signature, topology_hash, CacheKey, TimeNetCache};
pub use fallback::{
    plan_sequential, plan_with_chain, planning_horizon, tp_flip_time, PlanError, PlanKind,
    PlannedUpdate, SlackPolicy, Stage, StageAttempt, StageOutcome, TpBatchPlan,
};
pub use metrics::{CertStats, EngineMetrics, PlanReport, ShardStats, SlackStats, StageStats};
pub use pool::{Engine, EngineConfig};
// The sharded pre-stage's knobs travel with the engine config; re-export
// them so `EngineConfig::with_sharding` callers need no chronus-core dep.
pub use chronus_core::shard::ShardingConfig;
pub use request::{RequestId, UpdateRequest};
