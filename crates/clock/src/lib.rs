//! # chronus-clock — a Time4-style synchronized-clock substrate
//!
//! Timed SDN updates presuppose switches that can apply a rule at a
//! scheduled time with microsecond accuracy (Mizrahi et al., Time4
//! \[16\]\[18\], TimeFlip \[17\]). This crate simulates that substrate:
//!
//! - [`clock`] — per-switch hardware clocks with an offset and a
//!   frequency-drift error model;
//! - [`sync`] — a two-way time-transfer protocol (PTP/ReversePTP
//!   flavour) that estimates and corrects each clock's offset over a
//!   jittery control channel, leaving a bounded residual error;
//! - [`executor`] — a trigger list that fires scheduled updates when a
//!   switch's *local* clock passes the trigger time, exposing the true
//!   firing time so tests can bound scheduling error and verify that
//!   Chronus schedules stay consistent under realistic skew.
//!
//! Time is simulated (nanosecond `i128` timestamps), never wall-clock:
//! every result is deterministic and test-friendly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

pub mod clock;
pub mod executor;
pub mod sync;

pub use clock::{HardwareClock, Nanos};
pub use executor::ScheduledExecutor;
pub use sync::{two_way_sync, SyncConfig, SyncOutcome};
