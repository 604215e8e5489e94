//! The discrete-event queue.

use crate::ctrl::CtrlPayload;
use chronus_clock::Nanos;
use chronus_faults::{Envelope, MsgId};
use chronus_net::{LinkIdx, SwitchId};
use chronus_openflow::{FlowMod, Packet};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// How many recent hops a packet remembers for loop forensics.
pub const HOP_RING_CAPACITY: usize = 8;

/// A fixed-capacity ring of the last [`HOP_RING_CAPACITY`] switches a
/// packet visited. `Copy` so it travels inside events for free; once
/// full, each push evicts the oldest hop. When a packet dies of TTL
/// exhaustion the ring is the forensic record: a forwarding loop shows
/// up as a repeating cycle in the tail.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HopRing {
    hops: [SwitchId; HOP_RING_CAPACITY],
    /// Total hops ever pushed (saturating at `u32::MAX`); the ring
    /// holds the last `min(pushed, HOP_RING_CAPACITY)` of them.
    pushed: u32,
}

impl HopRing {
    /// An empty ring.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a visit to `switch`, evicting the oldest hop if full.
    pub fn push(&mut self, switch: SwitchId) {
        let slot = self.pushed as usize % HOP_RING_CAPACITY;
        if let Some(h) = self.hops.get_mut(slot) {
            *h = switch;
        }
        self.pushed = self.pushed.saturating_add(1);
    }

    /// Hops currently remembered.
    pub fn len(&self) -> usize {
        (self.pushed as usize).min(HOP_RING_CAPACITY)
    }

    /// `true` when nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.pushed == 0
    }

    /// The remembered hops, oldest first.
    pub fn hops(&self) -> Vec<SwitchId> {
        let n = self.len();
        let start = self.pushed as usize - n;
        (start..self.pushed as usize)
            .filter_map(|i| self.hops.get(i % HOP_RING_CAPACITY).copied())
            .collect()
    }
}

/// Everything that can happen in the emulation.
#[derive(Clone, Debug)]
pub enum Event {
    /// A traffic source emits one chunk.
    ChunkEmit {
        /// Index into the emulator's flow list.
        flow: usize,
    },
    /// A packet arrives at a switch (after traversing a link or being
    /// injected by a host).
    PacketArrive {
        /// Receiving switch.
        switch: SwitchId,
        /// The packet.
        packet: Packet,
        /// Remaining hop budget; 0 ⇒ counted as a TTL drop (loop!).
        ttl: u8,
        /// Recently visited switches (loop forensics).
        hops: HopRing,
    },
    /// A link finishes serializing a chunk onto the wire; the chunk
    /// will arrive after the propagation delay.
    LinkDeliver {
        /// Which link.
        link: LinkIdx,
        /// Destination switch (the link's head).
        switch: SwitchId,
        /// The packet.
        packet: Packet,
        /// Remaining hop budget.
        ttl: u8,
        /// Recently visited switches (loop forensics).
        hops: HopRing,
    },
    /// A FlowMod takes effect at a switch (control-channel delivery or
    /// a timed trigger firing).
    ApplyFlowMod {
        /// Target switch.
        switch: SwitchId,
        /// The modification.
        flowmod: FlowMod,
    },
    /// The statistics module samples all byte counters.
    StatsSample,
    /// A control-plane message (one transmission attempt) reaches its
    /// switch — only used when faults are installed.
    CtrlDeliver {
        /// Receiving switch.
        switch: SwitchId,
        /// The attempt (logical id + epoch + payload).
        envelope: Envelope<CtrlPayload>,
    },
    /// An acknowledgement reaches the controller.
    CtrlAck {
        /// The acknowledged logical message.
        id: MsgId,
    },
    /// A retransmission timer fires at the controller.
    CtrlTimeout {
        /// The timed-out logical message.
        id: MsgId,
    },
    /// A switch agent checks its timed-trigger executor (scheduled at
    /// each trigger's predicted true firing instant).
    TriggerPoll {
        /// The polling switch.
        switch: SwitchId,
    },
    /// The controller's deadline check for one timed update: if it has
    /// not applied by now, recovery (re-arm within slack or rollback)
    /// kicks in.
    WatchdogCheck {
        /// Index into the controller's task table.
        task: usize,
    },
    /// A switch's control agent reboots: armed triggers are lost and
    /// the control channel is down until the matching
    /// [`Event::SwitchRecover`].
    SwitchReboot {
        /// Rebooting switch.
        switch: SwitchId,
        /// Control-plane outage length (ns).
        outage_ns: Nanos,
    },
    /// A rebooted switch reconnects; the controller re-arms its
    /// unapplied updates.
    SwitchRecover {
        /// Recovering switch.
        switch: SwitchId,
    },
    /// A clock-desync spike: the switch's local clock jumps.
    ClockSpike {
        /// Afflicted switch.
        switch: SwitchId,
        /// Offset jump (ns, positive = clock leaps ahead).
        offset_ns: Nanos,
    },
    /// End of the run.
    Stop,
}

/// A timestamped event; `seq` makes ordering total and FIFO-stable.
#[derive(Clone, Debug)]
pub struct Scheduled {
    /// Simulated time (true time, ns).
    pub at: Nanos,
    /// Tie-breaking sequence number.
    pub seq: u64,
    /// The event.
    pub event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the earliest pops first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A min-ordered event queue.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at time `at`.
    pub fn push(&mut self, at: Nanos, event: Event) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<Scheduled> {
        self.heap.pop()
    }

    /// Events still pending.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_fifo_on_ties() {
        let mut q = EventQueue::new();
        q.push(20, Event::StatsSample);
        q.push(10, Event::Stop);
        q.push(20, Event::ChunkEmit { flow: 1 });
        let a = q.pop().unwrap();
        assert_eq!(a.at, 10);
        assert!(matches!(a.event, Event::Stop));
        let b = q.pop().unwrap();
        assert_eq!(b.at, 20);
        assert!(matches!(b.event, Event::StatsSample), "FIFO on equal time");
        let c = q.pop().unwrap();
        assert!(matches!(c.event, Event::ChunkEmit { flow: 1 }));
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn hop_ring_keeps_last_n_in_order() {
        let mut r = HopRing::new();
        assert!(r.is_empty());
        for i in 0..3 {
            r.push(SwitchId(i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.hops(), vec![SwitchId(0), SwitchId(1), SwitchId(2)]);
        // Overflow evicts the oldest: after 12 pushes of distinct ids
        // only the last HOP_RING_CAPACITY remain, oldest first.
        let mut r = HopRing::new();
        for i in 0..12 {
            r.push(SwitchId(i));
        }
        assert_eq!(r.len(), HOP_RING_CAPACITY);
        let expect: Vec<SwitchId> = (4..12).map(SwitchId).collect();
        assert_eq!(r.hops(), expect);
    }

    #[test]
    fn len_tracks_pending() {
        let mut q = EventQueue::new();
        assert_eq!(q.len(), 0);
        q.push(1, Event::Stop);
        q.push(2, Event::Stop);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }
}
