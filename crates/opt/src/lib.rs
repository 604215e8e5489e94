//! # chronus-opt — exact MUTP solvers (the paper's OPT baseline)
//!
//! The paper obtains OPT by solving the integer program (3) with
//! branch and bound. This crate provides two equivalent routes:
//!
//! - [`optimal_schedule`] — an iterative-deepening branch-and-
//!   bound over the discrete schedule space: for growing makespan
//!   bounds it runs a time-ordered DFS in which, once every update at
//!   steps `≤ t` is decided, all simulation events at steps `≤ t` are
//!   frozen and can soundly prune the subtree. The first makespan
//!   admitting a consistent schedule is optimal.
//! - [`ilp`] — a faithful rendering of program (3): the path set
//!   `P(f)` is enumerated in the time-extended network, variables
//!   `x_{f,p}` pick one path per flow, constraint (3a) bounds the load
//!   of every time-extended link, and a small exact 0/1
//!   branch-and-bound solver minimizes `|T|`. This is the form the
//!   paper feeds to its solver; on every instance both routes agree
//!   (asserted in the integration tests).
//!
//! Both solvers accept a wall-clock budget, mirroring the paper's
//! 600-second cap in the Fig. 10 running-time experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

pub mod enumerate;
// chronus-lint: allow(dead-pub) — read by tests/cross_solver.rs
pub mod ilp;
mod search;

pub use search::{optimal_schedule, optimal_schedule_with, OptConfig, OptOutcome};
