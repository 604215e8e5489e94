//! Constant-bit-rate traffic sources.

use chronus_clock::Nanos;
use chronus_net::SwitchId;

/// A CBR aggregate between a source and a destination switch ("In our
/// experiments, a flow is a traffic aggregate between source and
/// destination switch", §V-A).
#[derive(Clone, Copy, Debug)]
pub struct CbrSource {
    /// Injecting switch.
    pub src_switch: SwitchId,
    /// Destination IPv4 address the packets carry.
    pub dst_ip: u32,
    /// Source IPv4 address.
    pub src_ip: u32,
    /// Aggregate rate in bits per second.
    pub rate_bps: u64,
    /// Chunk size in bytes (one emission event per chunk).
    pub chunk_bytes: u64,
}

impl CbrSource {
    /// The emission interval that realizes `rate_bps` with
    /// `chunk_bytes`-sized chunks.
    pub fn interval(&self) -> Nanos {
        (self.chunk_bytes as Nanos * 8 * 1_000_000_000) / self.rate_bps as Nanos
    }
}

/// Picks a chunk size giving roughly `chunks_per_unit` emissions per
/// `unit_ns` of simulated time at `rate_bps` — keeping the packet
/// approximation close to the paper's fluid model while bounding the
/// event count.
pub fn chunk_size_for(rate_bps: u64, unit_ns: Nanos, chunks_per_unit: u64) -> u64 {
    let per_unit_bytes = (rate_bps as Nanos * unit_ns / 8 / 1_000_000_000) as u64;
    (per_unit_bytes / chunks_per_unit.max(1)).max(125)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_matches_rate() {
        let s = CbrSource {
            src_switch: SwitchId(0),
            dst_ip: 1,
            src_ip: 2,
            rate_bps: 8_000_000, // 1 MB/s
            chunk_bytes: 10_000, // 10 KB -> 100 chunks/s
        };
        assert_eq!(s.interval(), 10_000_000); // 10 ms
    }

    #[test]
    fn chunk_size_targets_event_rate() {
        // 500 Mbps over a 100 ms unit with 8 chunks per unit:
        // 500e6 bps * 0.1 s / 8 bits = 6.25 MB per unit → 781 KB chunks.
        let c = chunk_size_for(500_000_000, 100_000_000, 8);
        assert_eq!(c, 781_250);
        // Tiny rates floor at 125 bytes.
        assert_eq!(chunk_size_for(1, 1_000, 8), 125);
    }
}
