//! # chronus-faults — fault injection and failure recovery
//!
//! Chronus's premise is that timed updates fire when the schedule
//! says they do. Real Time4 deployments do not cooperate: FlowMods
//! are lost or straggle (Dionysus measured installs from tens of
//! milliseconds to seconds under load), switch agents reset and drop
//! their armed triggers, and PTP leaves residual clock error after
//! every sync. This crate is the machinery that makes schedules
//! survive all of that:
//!
//! - [`plan`] — declarative, seeded [`FaultPlan`]s and the
//!   [`FaultInjector`] that executes them: message drop / duplication
//!   / delay, per-switch install stragglers, clock-desync spikes, and
//!   switch reboots. Zero-rate plans draw no randomness, so fault-free
//!   and zero-rate runs are byte-identical.
//! - `delivery` — a reliable control-plane protocol
//!   ([`ReliableOutbox`], [`DedupFilter`]): acks, per-message
//!   retransmission timers with exponential backoff, and
//!   epoch-numbered envelopes the receiver dedups.
//! - `watchdog` — the recovery decision ([`RecoveryPolicy`]): re-arm
//!   a missed trigger within the certified slack window
//!   ([`SlackBudget`]) or fall back to the two-phase rollback path.
//! - [`stats`] — `chronus_faults_*` instruments over a
//!   `chronus-trace` metrics registry, plus the plain [`FaultSummary`]
//!   view.
//!
//! The crate is deliberately transport-agnostic: everything here is a
//! pure state machine over simulated timestamps. The emulator
//! (`chronus-emu`) wires these pieces to its event queue and drives
//! the policy from its controller watchdog; the certifier
//! (`chronus-verify`) produces the slack certificates the budgets
//! come from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

mod delivery;
pub mod plan;
pub mod stats;
mod watchdog;

pub use delivery::{DedupFilter, Envelope, MsgId, ReliableConfig, ReliableOutbox, TimeoutVerdict};
pub use plan::{ChannelFate, ClockSpike, FaultInjector, FaultPlan, RebootEvent};
pub use stats::{FaultStats, FaultSummary};
pub use watchdog::{RecoveryAction, RecoveryPolicy, SlackBudget};
