//! # chronus-core — the Chronus scheduling algorithms
//!
//! This crate implements the paper's primary contribution (§III–§IV):
//!
//! - [`loopcheck`]: **Algorithm 4** — checking whether updating a switch
//!   at a given time would create a transient forwarding loop;
//! - [`deps`]: **Algorithm 3** — building the dependency relation set
//!   `O_t` that captures which switches must update before which;
//! - [`greedy`]: **Algorithm 2** — the greedy MUTP scheduler operating
//!   on the time-extended network, updating as many switches as
//!   possible per step;
//! - [`tree`]: **Algorithm 1** — the tree algorithm checking whether
//!   *any* congestion- and loop-free timed update sequence exists;
//! - [`exec`]: **Algorithm 5** — turning a [`chronus_timenet::Schedule`]
//!   into the timed command sequence (FlowMods + barriers) a controller
//!   executes.
//!
//! Every schedule produced here is certified against the exact
//! dynamic-flow simulator of `chronus-timenet` before it is returned —
//! the crate never hands out a schedule that violates Definition 2
//! (loop-freedom) or Definition 3 (congestion-freedom). On top of
//! that gate, every solver re-proves its result with the *independent*
//! static certifier of `chronus-verify` (interval arithmetic, zero
//! shared code with the simulator) and attaches the resulting
//! [`chronus_verify::Certificate`] to its outcome.
//!
//! ## Quickstart
//!
//! ```
//! use chronus_core::greedy::greedy_schedule;
//! use chronus_net::motivating_example;
//! use chronus_timenet::{FluidSimulator, Verdict};
//!
//! let instance = motivating_example();
//! let outcome = greedy_schedule(&instance).expect("example is feasible");
//! let report = FluidSimulator::check(&instance, &outcome.schedule);
//! assert_eq!(report.verdict(), Verdict::Consistent);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

pub mod deps;
mod error;
pub mod exec;
pub mod greedy;
pub mod loopcheck;
mod problem;
pub(crate) mod scan;
pub mod sequential;
pub mod shard;
pub mod tree;

pub use error::ScheduleError;
pub use problem::MutpProblem;

/// Shared post-hoc certification tail of every solver in this crate:
/// runs the independent static certifier over the finished schedule
/// and either returns its [`chronus_verify::Certificate`] (or `None`
/// when certification is disabled) or surfaces the counterexample as
/// [`ScheduleError::CertificationFailed`].
pub(crate) fn certify_outcome(
    instance: &chronus_net::UpdateInstance,
    schedule: &chronus_timenet::Schedule,
    config: &chronus_verify::VerifyConfig,
) -> Result<Option<chronus_verify::Certificate>, ScheduleError> {
    if !config.enabled {
        return Ok(None);
    }
    match chronus_verify::certify_with(instance, schedule, config) {
        Ok(cert) => Ok(Some(cert)),
        Err(violation) => Err(ScheduleError::CertificationFailed {
            violation: Box::new(violation),
        }),
    }
}
