//! # chronus-timenet — time-extended networks and the dynamic-flow simulator
//!
//! This crate implements the analytical machinery of paper §II-B:
//!
//! - [`Schedule`]: an assignment of update time points to switches
//!   (per flow), the output of every scheduler in the workspace;
//! - [`TimeExtendedNetwork`]: the graph `G_T` with one copy `v(t)` of
//!   every switch per time step and links `u(t) → v(t + σ(u,v))`
//!   (Definition 4, Fig. 2);
//! - [`FluidSimulator`]: an exact discrete-time simulator of the
//!   dynamic-flow semantics (Definition 1) that, given an instance and
//!   a schedule, reports every transient congestion event
//!   (Definition 3), forwarding loop (Definition 2), blackhole and
//!   undelivered cohort.
//!
//! The simulator is the *ground truth* of the reproduction: schedules
//! produced by the Chronus greedy algorithm, the tree feasibility
//! algorithm, OPT and the baselines are all judged by it, exactly as
//! the paper judges them by the time-extended network.
//!
//! See [`FluidSimulator`] for a complete usage example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

mod arena;
pub mod codec;
mod extended;
mod incremental;
mod ledger;
mod occupancy;
mod report;
mod schedule;
mod simulate;

pub use arena::SimArena;
pub use codec::{schedule_from_value, schedule_to_value, ScheduleCodecError};
pub use extended::{MaterializedTimeNet, TeLink, TeNode, TimeExtendedNetwork};
pub use incremental::{Delta, GateStats, IncrementalSimulator, SimWorkspace};
pub use ledger::{InternedLink, LinkInterner, LoadLedger};
pub use occupancy::render_occupancy;
pub use report::{BlackholeEvent, CongestionEvent, LoopEvent, SimulationReport, Verdict};
pub use schedule::Schedule;
pub use simulate::{FluidSimulator, SimulatorConfig};
