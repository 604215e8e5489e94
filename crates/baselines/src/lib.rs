//! # chronus-baselines — the paper's comparison schemes
//!
//! §V of the paper compares Chronus against two prior approaches:
//!
//! - [`or`] — **OR**, order-replacement updates (Ludwig et al.,
//!   PODC'15 \[15\]): the controller updates switches in rounds,
//!   minimizing the number of rounds subject to loop-freedom under
//!   *any* asynchronous interleaving within a round. Capacities and
//!   link delays are ignored — which is exactly why OR exhibits the
//!   transient congestion Figs. 6–8 measure.
//! - [`tp`] — **TP**, two-phase updates (Reitblatt et al.,
//!   SIGCOMM'12 \[20\]): version-tagged duplicate rules are installed
//!   everywhere, the ingress stamp flips, and old rules are garbage
//!   collected. Per-packet consistency is preserved, but the flow
//!   table must hold both rule generations at once — the rule-space
//!   overhead Fig. 9 measures.
//!
//! Both baselines produce artifacts the rest of the workspace can
//! execute and measure: OR rounds become a [`chronus_timenet::Schedule`]
//! once per-switch installation latencies are drawn (the paper samples
//! them "from the data of \[9\]", i.e. Dionysus), and TP produces a
//! rule-count ledger plus an analytic load profile.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

pub mod or;
pub mod tp;

pub use or::{or_rounds, or_rounds_greedy, OrConfig, OrOutcome};
pub use tp::{tp_plan, TpPlan};
