//! # chronus-daemon — the `chronusd` long-running update service
//!
//! The paper frames Chronus as a *controller service*: an always-on
//! scheduler that owns clocks, in-flight state and retries — not a
//! batch library invoked once per flow. This crate is that service:
//!
//! - **IPC front end** ([`server`], [`client`]): a Unix-domain socket
//!   speaking line-delimited JSON (parsed with the workspace's strict
//!   `serde_json` shim). The `chronusctl` binary is the CLI client
//!   (`submit`, `status`, `watch`, `confirm`, `drain`, `snapshot`,
//!   `metrics`).
//! - **Streaming admission** ([`admission`]): three priority classes,
//!   per-tenant token-bucket rate limiting and bounded queues with
//!   explicit shed responses, all counted in a `chronus_daemon_*`
//!   scoped metrics registry.
//! - **Resident engine** ([`service`]): one resident [`chronus_engine::Engine`]
//!   serves every request, recycling its simulation workspaces
//!   across submissions and recording into the one metrics registry
//!   the scrape renders.
//! - **Write-ahead journal** ([`journal`]): every certified, armed
//!   schedule is appended (schedule + certificate + slack + arm
//!   epoch) before the daemon acknowledges it. On restart the journal
//!   is replayed and each in-flight update is handed to the faults
//!   crate's re-arm-or-rollback policy — re-armed within certified
//!   slack or rolled back, never silently lost.
//! - **Flight recorder & introspection** ([`slo`], [`signal`], plus
//!   the `top`/`tail`/`dump` protocol verbs): the daemon keeps the
//!   trace crate's always-on event ring armed, tracks per-tenant SLO
//!   burn rates over 5m/1h windows, and writes forensic dumps on
//!   rollback, shed storms, burn-rate crossings, panics and SIGUSR1.
//!
//! `unsafe` is denied crate-wide with one audited, narrowly-scoped
//! exception: the `signal(2)` FFI call in [`signal`] that routes
//! SIGUSR1 to an atomic flag.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

pub mod admission;
pub mod client;
pub mod config;
pub mod journal;
mod metrics;
pub mod proto;
// chronus-lint: allow(dead-pub) — read by crates/daemon/tests/request_line_bound.rs
pub mod server;
pub mod service;
pub mod signal;
pub mod slo;

pub use admission::{AdmissionQueues, Priority, QueuedJob, Shed};
pub use client::CtlClient;
pub use config::DaemonConfig;
pub use journal::{ArmedRecord, Journal, Replay};
pub use proto::Request;
pub use server::run_server;
pub use service::{Daemon, RestoreReport, ShutdownReport, UpdateState, UpdateStatus};
