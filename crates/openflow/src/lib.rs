//! # chronus-openflow — an OpenFlow-style data-plane substrate
//!
//! The paper's prototype runs on OpenFlow 1.3 switches driven by a
//! Floodlight controller (§V-A). This crate reproduces the parts of
//! that stack the evaluation exercises, from scratch:
//!
//! - [`types`] — IPv4 prefixes, packet headers, match fields (in-port,
//!   source/destination prefix, VLAN tag — the paper's version tag),
//!   and actions;
//! - [`table`] — priority-ordered flow tables with longest-prefix
//!   match, per-rule byte/packet counters (the counters the paper's
//!   statistics module polls to compute Fig. 6's bandwidth
//!   consumption), in-place *action modification* (the operation
//!   Chronus relies on to avoid rule duplication) and a configurable
//!   capacity limit (the "limited flow table space" that motivates
//!   avoiding two-phase headroom);
//! - [`OfMessage`] — the controller-to-switch messages Algorithm 5
//!   sends: [`FlowMod`] (add/modify/delete), `BarrierRequest`/
//!   `BarrierReply`, and counter-polling stats messages;
//! - [`render`] — pretty-printing of flow tables in the layout of the
//!   paper's Table II.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

mod messages;
pub mod render;
pub mod table;
pub mod types;

pub use messages::{FlowMod, FlowModCommand, OfMessage, Xid};
pub use table::{FlowRule, FlowTable, RuleId, TableError};
pub use types::{Action, Ipv4Prefix, Match, Packet, PortId, VlanId};
