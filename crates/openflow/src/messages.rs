//! Controller ⇄ switch messages.
//!
//! Algorithm 5 sends update messages followed by barrier requests and
//! waits for the barrier replies ("In Floodlight, OpenFlow barrier
//! messages are implemented by the OFBarrierRequest and OFBarrierReply
//! classes"). This module defines exactly the message set the
//! prototype exercises, plus the stats messages the bandwidth monitor
//! polls.

use crate::table::RuleId;
use crate::types::{Action, Match};
use std::fmt;

/// Transaction id correlating requests and replies.
pub type Xid = u64;

/// FlowMod subcommands.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlowModCommand {
    /// Install a new rule.
    Add,
    /// Rewrite the actions of an existing rule (Chronus' in-place
    /// update).
    ModifyActions,
    /// Delete a rule.
    Delete,
}

/// A flow-table modification message.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowMod {
    /// Transaction id.
    pub xid: Xid,
    /// What to do.
    pub command: FlowModCommand,
    /// Target rule for modify/delete.
    pub rule: Option<RuleId>,
    /// Priority for adds.
    pub priority: u16,
    /// Match fields for adds.
    pub mat: Match,
    /// New action list (adds and modifies).
    pub actions: Vec<Action>,
}

impl FlowMod {
    /// An `Add` FlowMod.
    pub fn add(xid: Xid, priority: u16, mat: Match, actions: Vec<Action>) -> Self {
        FlowMod {
            xid,
            command: FlowModCommand::Add,
            rule: None,
            priority,
            mat,
            actions,
        }
    }

    /// A `ModifyActions` FlowMod targeting an installed rule.
    pub fn modify(xid: Xid, rule: RuleId, actions: Vec<Action>) -> Self {
        FlowMod {
            xid,
            command: FlowModCommand::ModifyActions,
            rule: Some(rule),
            priority: 0,
            mat: Match::default(),
            actions,
        }
    }

    /// A `Delete` FlowMod targeting an installed rule.
    pub fn delete(xid: Xid, rule: RuleId) -> Self {
        FlowMod {
            xid,
            command: FlowModCommand::Delete,
            rule: Some(rule),
            priority: 0,
            mat: Match::default(),
            actions: Vec::new(),
        }
    }
}

/// The controller ⇄ switch message set.
#[derive(Clone, Debug, PartialEq)]
pub enum OfMessage {
    /// Flow-table modification.
    FlowMod(FlowMod),
    /// Barrier request: the switch must answer only after every
    /// earlier message took effect.
    BarrierRequest(Xid),
    /// Barrier reply.
    BarrierReply(Xid),
    /// Poll a switch's byte/packet counters.
    StatsRequest(Xid),
    /// Counter snapshot: total packets and bytes forwarded.
    StatsReply {
        /// Correlating transaction id.
        xid: Xid,
        /// Packets forwarded since boot.
        packets: u64,
        /// Bytes forwarded since boot.
        bytes: u64,
    },
    /// Switch-to-controller: a packet missed the table (punt).
    PacketIn {
        /// Correlating transaction id.
        xid: Xid,
        /// Size of the punted packet.
        bytes: u64,
    },
}

impl OfMessage {
    /// The message's transaction id.
    pub fn xid(&self) -> Xid {
        match self {
            OfMessage::FlowMod(m) => m.xid,
            OfMessage::BarrierRequest(x)
            | OfMessage::BarrierReply(x)
            | OfMessage::StatsRequest(x) => *x,
            OfMessage::StatsReply { xid, .. } | OfMessage::PacketIn { xid, .. } => *xid,
        }
    }
}

impl fmt::Display for OfMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OfMessage::FlowMod(m) => write!(f, "FlowMod[{:?} xid={}]", m.command, m.xid),
            OfMessage::BarrierRequest(x) => write!(f, "BarrierRequest[xid={x}]"),
            OfMessage::BarrierReply(x) => write!(f, "BarrierReply[xid={x}]"),
            OfMessage::StatsRequest(x) => write!(f, "StatsRequest[xid={x}]"),
            OfMessage::StatsReply {
                xid,
                packets,
                bytes,
            } => {
                write!(f, "StatsReply[xid={xid} pkts={packets} bytes={bytes}]")
            }
            OfMessage::PacketIn { xid, bytes } => write!(f, "PacketIn[xid={xid} bytes={bytes}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_xids() {
        let add = FlowMod::add(1, 5, Match::default(), vec![Action::Flood]);
        assert_eq!(add.command, FlowModCommand::Add);
        let m = OfMessage::FlowMod(add);
        assert_eq!(m.xid(), 1);

        let modify = FlowMod::modify(2, RuleId(3), vec![Action::Output(1)]);
        assert_eq!(modify.command, FlowModCommand::ModifyActions);
        assert_eq!(modify.rule, Some(RuleId(3)));

        let del = FlowMod::delete(3, RuleId(4));
        assert_eq!(del.command, FlowModCommand::Delete);
        assert!(del.actions.is_empty());

        assert_eq!(OfMessage::BarrierRequest(7).xid(), 7);
        assert_eq!(
            OfMessage::StatsReply {
                xid: 8,
                packets: 1,
                bytes: 2
            }
            .xid(),
            8
        );
        assert_eq!(OfMessage::PacketIn { xid: 5, bytes: 64 }.xid(), 5);
    }

    #[test]
    fn display_forms() {
        assert!(OfMessage::BarrierRequest(1).to_string().contains("xid=1"));
        let s = OfMessage::StatsReply {
            xid: 2,
            packets: 10,
            bytes: 999,
        }
        .to_string();
        assert!(s.contains("bytes=999"));
    }
}
