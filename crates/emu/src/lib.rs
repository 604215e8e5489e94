//! # chronus-emu — a discrete-event network emulator (the Mininet
//! replacement)
//!
//! The paper prototypes Chronus on Mininet + OpenVSwitch driven by a
//! Floodlight controller (§V-A). This crate reproduces that testbed as
//! a deterministic discrete-event simulation:
//!
//! - [`event`] — the event queue (nanosecond timestamps, stable order);
//! - [`link`] — links with capacity, propagation delay, serialization,
//!   a drop-tail buffer, and per-window byte counters (what the
//!   Floodlight statistics module polls for Fig. 6);
//! - [`switchdev`] — emulated switches: a `chronus-openflow` flow
//!   table, ports mapped to links, and a Time4-style scheduled-update
//!   executor driven by a `chronus-clock` hardware clock;
//! - [`traffic`] — constant-bit-rate traffic sources ("a flow is a
//!   traffic aggregate between source and destination switch");
//! - [`controller`] — the three update drivers: Chronus timed updates
//!   (Algorithm 5 over synchronized clocks), OR rounds with random
//!   installation latencies and barriers, and TP's two phases;
//! - [`ctrl`] — the faulty control plane: when a `chronus-faults`
//!   plan is installed, timed updates travel as reliable (acked,
//!   retransmitted, deduplicated) Arm messages, switches fire them
//!   from their own trigger executors, and a controller watchdog
//!   re-sends missed updates within the certified slack window or
//!   falls back to two-phase rollback;
//! - [`Emulator`] — the simulation loop tying everything together;
//! - [`report`] — bandwidth series and loss accounting, the data
//!   behind Fig. 6.
//!
//! ## Example: reproducing the shape of Fig. 6
//!
//! ```
//! use chronus_emu::{Emulator, EmuConfig, UpdateDriver};
//! use chronus_net::motivating_example;
//! use chronus_core::greedy::greedy_schedule;
//!
//! let instance = motivating_example();
//! let schedule = greedy_schedule(&instance).unwrap().schedule;
//! let mut emu = Emulator::new(&instance, EmuConfig::default(), 42);
//! emu.install_driver(UpdateDriver::chronus(schedule, &instance));
//! let report = emu.run();
//! assert_eq!(report.ttl_drops, 0, "no forwarding loops");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

pub mod controller;
pub mod ctrl;
mod emulator;
pub mod event;
pub mod link;
pub mod report;
pub mod switchdev;
pub mod traffic;

pub use controller::{EngineDriver, UpdateDriver};
pub use ctrl::CtrlPayload;
pub use emulator::{EmuConfig, Emulator};
pub use event::{HopRing, HOP_RING_CAPACITY};
pub use report::{EmuReport, TtlDrop, MAX_TTL_DROP_RECORDS};
pub use switchdev::SwitchAgent;
