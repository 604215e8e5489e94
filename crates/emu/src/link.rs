//! Emulated links: capacity, serialization, propagation, drop-tail
//! buffer, and per-window byte counters.

use chronus_clock::Nanos;

/// Counters one link accumulates within the current stats window —
/// what the Floodlight statistics module reads ("The difference
/// between these two counters divided by the time intervals yields
/// the bandwidth consumption", §V-A).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowCounters {
    /// Bytes offered to the link (arrivals, before any drop).
    pub offered: u64,
    /// Bytes accepted and serialized.
    pub delivered: u64,
    /// Bytes dropped at the buffer.
    pub dropped: u64,
}

/// One emulated link.
#[derive(Clone, Debug)]
pub struct EmuLink {
    /// Capacity in bits per second.
    pub capacity_bps: u64,
    /// Propagation delay (ns).
    pub prop_delay: Nanos,
    /// Maximum queueing delay the buffer absorbs (ns); beyond this,
    /// arriving chunks are dropped (drop-tail).
    pub buffer_delay: Nanos,
    busy_until: Nanos,
    window: WindowCounters,
    total: WindowCounters,
}

impl EmuLink {
    /// Creates a link.
    pub fn new(capacity_bps: u64, prop_delay: Nanos, buffer_delay: Nanos) -> Self {
        EmuLink {
            capacity_bps,
            prop_delay,
            buffer_delay,
            busy_until: 0,
            window: WindowCounters::default(),
            total: WindowCounters::default(),
        }
    }

    /// Offers `bytes` to the link at time `now`. Returns the arrival
    /// time at the far end, or `None` if the chunk was dropped
    /// (buffer overflow).
    pub fn transmit(&mut self, now: Nanos, bytes: u64) -> Option<Nanos> {
        self.window.offered += bytes;
        self.total.offered += bytes;
        let start = self.busy_until.max(now);
        let queueing = start - now;
        if queueing > self.buffer_delay {
            self.window.dropped += bytes;
            self.total.dropped += bytes;
            return None;
        }
        let ser = (bytes as Nanos * 8 * 1_000_000_000) / self.capacity_bps as Nanos;
        self.busy_until = start + ser;
        self.window.delivered += bytes;
        self.total.delivered += bytes;
        Some(start + ser + self.prop_delay)
    }

    /// Reads and resets the current window counters (one stats
    /// sample).
    pub fn sample_window(&mut self) -> WindowCounters {
        std::mem::take(&mut self.window)
    }

    /// Lifetime counters.
    pub fn totals(&self) -> WindowCounters {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MBPS: u64 = 1_000_000;

    #[test]
    fn serialization_and_propagation() {
        // 8 Mbps, 1 ms propagation: 1000 bytes = 8000 bits = 1 ms ser.
        let mut l = EmuLink::new(8 * MBPS, 1_000_000, 10_000_000);
        let arrival = l.transmit(0, 1_000).unwrap();
        assert_eq!(arrival, 1_000_000 + 1_000_000);
        // Second chunk right away queues behind the first.
        let arrival2 = l.transmit(0, 1_000).unwrap();
        assert_eq!(arrival2, 2_000_000 + 1_000_000);
    }

    #[test]
    fn idle_link_does_not_queue() {
        let mut l = EmuLink::new(8 * MBPS, 0, 0);
        let a = l.transmit(0, 1_000).unwrap();
        assert_eq!(a, 1_000_000);
        // After the wire went idle, no queueing.
        let b = l.transmit(5_000_000, 1_000).unwrap();
        assert_eq!(b, 6_000_000);
    }

    #[test]
    fn overload_drops_at_the_buffer() {
        // Tiny buffer: the third back-to-back chunk exceeds it.
        let mut l = EmuLink::new(8 * MBPS, 0, 1_500_000);
        assert!(l.transmit(0, 1_000).is_some()); // queue 0
        assert!(l.transmit(0, 1_000).is_some()); // queue 1 ms
        assert!(l.transmit(0, 1_000).is_none()); // queue 2 ms > 1.5 ms
        let w = l.sample_window();
        assert_eq!(w.offered, 3_000);
        assert_eq!(w.delivered, 2_000);
        assert_eq!(w.dropped, 1_000);
    }

    #[test]
    fn window_sampling_resets() {
        let mut l = EmuLink::new(8 * MBPS, 0, 10_000_000);
        l.transmit(0, 500).unwrap();
        let w1 = l.sample_window();
        assert_eq!(w1.offered, 500);
        let w2 = l.sample_window();
        assert_eq!(w2.offered, 0);
        assert_eq!(l.totals().offered, 500);
    }
}
