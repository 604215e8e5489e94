//! Property-based tests of the substrate crates: flow tables, IPv4
//! prefixes, clocks, topologies, routing and schedules.

use chronus::clock::HardwareClock;
use chronus::net::routing::{random_simple_path, seeded_rng, shortest_path_delay};
use chronus::net::topology::{self, TopologyConfig};
use chronus::net::SwitchId;
use chronus::openflow::{Action, FlowTable, Ipv4Prefix, Match, Packet};
use chronus::timenet::Schedule;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// LPM lookup equals the brute-force "best matching rule" scan.
    #[test]
    fn lookup_matches_linear_scan(
        rules in prop::collection::vec((0u16..4, 0u32..16, 8u8..=32), 1..24),
        dst in 0u32..1024,
    ) {
        let mut table = FlowTable::new();
        for (prio, net_bits, len) in &rules {
            table
                .add(
                    *prio,
                    Match::dst_prefix(Ipv4Prefix::new(net_bits << 22, *len)),
                    vec![Action::Drop],
                )
                .expect("unbounded");
        }
        let pkt = Packet::new(0, 0, dst << 22);
        let fast = table.lookup(&pkt).map(|r| r.id);
        // Brute force: max by (priority, dst prefix length, oldest id).
        let slow = table
            .rules()
            .filter(|r| r.mat.matches(&pkt))
            .max_by(|a, b| {
                (a.priority, a.mat.dst_len(), std::cmp::Reverse(a.id))
                    .cmp(&(b.priority, b.mat.dst_len(), std::cmp::Reverse(b.id)))
            })
            .map(|r| r.id);
        prop_assert_eq!(fast, slow);
    }

    /// Prefix display/parse round-trips.
    #[test]
    fn prefix_roundtrip(addr in any::<u32>(), len in 0u8..=32) {
        let p = Ipv4Prefix::new(addr, len);
        let parsed: Ipv4Prefix = p.to_string().parse().expect("own display parses");
        prop_assert_eq!(p, parsed);
        // The network address itself is always contained.
        prop_assert!(p.contains(p.network()));
    }

    /// Clock read/inversion round-trips within 1 ns.
    #[test]
    fn clock_inversion_roundtrips(
        offset in -1_000_000i64..1_000_000,
        drift in -50_000i64..50_000,
        t in 0i64..86_400_000_000_000i64, // one day in ns
    ) {
        let c = HardwareClock::new(offset as i128, drift);
        let local = c.read(t as i128);
        let back = c.true_time_of_local(local);
        prop_assert!((back - t as i128).abs() <= 1);
    }

    /// Random connected topologies are strongly connected and every
    /// random path drawn on them validates.
    #[test]
    fn random_topologies_connected_and_routable(
        n in 4usize..24,
        seed in 0u64..500,
        chords in 0usize..20,
    ) {
        let cfg = TopologyConfig::simulation(n, seed);
        let net = topology::random_connected(cfg, chords);
        prop_assert!(topology::is_strongly_connected(&net));
        let mut rng = seeded_rng(seed ^ 0xABCD);
        let (src, dst) = (SwitchId(0), SwitchId((n - 1) as u32));
        let p = random_simple_path(&net, src, dst, &mut rng)
            .expect("strongly connected");
        prop_assert!(p.validate(&net).is_ok());
        prop_assert_eq!(p.source(), src);
        prop_assert_eq!(p.destination(), dst);
    }

    /// The delay-shortest path is never longer (in delay) than a
    /// random simple path between the same switches.
    #[test]
    fn routing_consistency(n in 4usize..20, seed in 0u64..300) {
        let cfg = TopologyConfig::simulation(n, seed);
        let net = topology::random_connected(cfg, n / 2);
        let (src, dst) = (SwitchId(0), SwitchId((n - 1) as u32));
        let by_delay = shortest_path_delay(&net, src, dst).expect("connected");
        let mut rng = seeded_rng(seed);
        let random = random_simple_path(&net, src, dst, &mut rng).expect("connected");
        let d1 = by_delay.total_delay(&net).expect("valid");
        let d2 = random.total_delay(&net).expect("valid");
        prop_assert!(d1 <= d2);
    }

    /// Shifting moves the makespan and the earliest assignment alike.
    #[test]
    fn schedule_shift_algebra(
        pairs in prop::collection::vec((0u32..20, 0i64..50), 1..12),
        delta in 1i64..20,
    ) {
        let flow = chronus::net::FlowId(0);
        let mut s = Schedule::new();
        for (v, t) in &pairs {
            s.set(flow, SwitchId(*v), *t);
        }
        let makespan_before = s.makespan().expect("non-empty");
        let mut shifted = s.clone();
        shifted.shift(delta);
        prop_assert_eq!(shifted.makespan().expect("non-empty"), makespan_before + delta);
        let earliest = |s: &Schedule| s.iter().map(|(_, _, t)| t).min().expect("non-empty");
        prop_assert_eq!(earliest(&shifted), earliest(&s) + delta);
    }

    /// Capacity-1 tables reject a second add but always accept
    /// in-place action modification (the Chronus table-space claim).
    #[test]
    fn tight_tables_support_modify_not_add(port_a in 1u16..100, port_b in 1u16..100) {
        let mut t = FlowTable::with_capacity_limit(1);
        let id = t
            .add(1, Match::default(), vec![Action::Output(port_a)])
            .expect("first rule fits");
        prop_assert!(t.add(1, Match::default(), vec![Action::Output(port_b)]).is_err());
        prop_assert!(t.modify_actions(id, vec![Action::Output(port_b)]).is_ok());
        prop_assert_eq!(t.len(), 1);
    }
}
