//! # chronus-net — network model substrate for the Chronus reproduction
//!
//! This crate provides the static network model used throughout the
//! workspace: switches, capacitated links with transmission delays,
//! loop-free paths, dynamic-flow descriptions, topology generators and
//! routing algorithms.
//!
//! The model follows §II-B of *Chronus: Consistent Data Plane Updates in
//! Timed SDNs* (ICDCS 2017): a network is a directed graph `G = (V, E)`
//! where every link `⟨u, v⟩` has a capacity `C(u,v)` and an integer
//! transmission delay `σ(u,v)`. A *dynamic flow* of demand `d` is routed
//! from a source to a destination along an initial path `p_init` and must
//! be migrated to a final path `p_fin` sharing the same endpoints.
//!
//! ## Quick example
//!
//! ```
//! use chronus_net::{NetworkBuilder, Path, Flow, FlowId};
//!
//! // The paper's 6-switch motivating topology (Fig. 1), unit capacity
//! // and unit delay on every link.
//! let mut b = NetworkBuilder::new();
//! let v: Vec<_> = (1..=6).map(|i| b.add_switch(format!("v{i}"))).collect();
//! for w in v.windows(2) {
//!     b.add_link(w[0], w[1], 1, 1).unwrap(); // old path chain
//! }
//! b.add_link(v[1], v[5], 1, 1).unwrap(); // v2 -> v6
//! b.add_link(v[0], v[3], 1, 1).unwrap(); // v1 -> v4
//! b.add_link(v[3], v[2], 1, 1).unwrap(); // v4 -> v3
//! b.add_link(v[2], v[1], 1, 1).unwrap(); // v3 -> v2
//! let net = b.build();
//!
//! let p_init = Path::new(vec![v[0], v[1], v[2], v[3], v[4], v[5]]);
//! let p_fin = Path::new(vec![v[0], v[3], v[2], v[1], v[5]]);
//! let flow = Flow::new(FlowId(0), 1, p_init, p_fin).unwrap();
//! assert!(flow.validate(&net).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

pub mod codec;
mod error;
mod flow;
mod ids;
mod instance;
mod link;
mod network;
pub mod partition;
mod path;
pub mod routing;
pub mod topology;

pub use error::NetError;
pub use flow::{Flow, UpdateInstance};
pub use ids::{FlowId, LinkIdx, SwitchId};
pub use instance::{
    motivating_example, reversal_instance, segment_reversal, segment_reversal_at,
    InstanceGenerator, InstanceGeneratorConfig,
};
pub use link::Link;
pub use network::{Network, NetworkBuilder};
pub use partition::{
    partition_network, split_instance, Partition, PartitionMethod, ShardedInstance, SharedLink,
};
pub use path::Path;

/// Discrete time step used across the workspace.
///
/// Steps may be negative: the time-extended network (crate
/// `chronus-timenet`) models *history* steps `t₋σ, …, t₋1` before the
/// current step `t₀ = 0` so that flow already in flight when the update
/// begins can be accounted for (paper Fig. 2).
pub type TimeStep = i64;

/// Link capacity and flow demand unit.
///
/// The unit is abstract; the Mininet-replacement emulator interprets it
/// as Mbps (the paper uses 500 Mbps links).
pub type Capacity = u64;

/// Link transmission delay measured in [`TimeStep`]s.
///
/// The paper assumes positive integer delays; a delay of zero would make
/// the time-extended network collapse and is rejected by
/// [`NetworkBuilder::add_link`].
pub type Delay = u64;
