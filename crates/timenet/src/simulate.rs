//! The exact dynamic-flow simulator: ground truth for every scheduler.

use crate::arena::SimArena;
use crate::incremental::{trace_cohort, FlowTable, TraceEnd, VisitStamps};
use crate::ledger::{LinkInterner, LoadLedger};
use crate::report::{BlackholeEvent, LoopEvent, SimulationReport};
use crate::Schedule;
use chronus_net::{TimeStep, UpdateInstance};

/// Extra emission steps simulated past the analytical horizon, as a
/// safety margin: the analytical horizon already covers every possible
/// transient overlap (see [`FluidSimulator`]'s horizon notes). Both
/// simulators use it.
pub(crate) const HORIZON_SLACK: TimeStep = 2;

/// Exact discrete-time simulator of the paper's dynamic-flow model
/// (Definitions 1–3).
///
/// # Semantics
///
/// Each flow emits `d` units ("a cohort") at its source at every time
/// step. A cohort departing switch `u` at step `t` on link `⟨u, v⟩`
/// arrives at `v` at step `t + σ(u,v)` and immediately departs on the
/// rule `v` applies *at that arrival step*: the new next-hop if `v`'s
/// scheduled update time has passed, the old one otherwise. Link load
/// `x_{u,v}(t)` is the total demand departing `u` on `⟨u, v⟩` at step
/// `t`; congestion is `x > C` at any step ≥ 0 (updates cannot happen at
/// history steps, and before step 0 the network is in its feasible
/// initial steady state).
///
/// # Horizon
///
/// Cohorts are emitted from `−φ(p_init)` (the oldest cohort that can
/// still be in flight when updates begin) through
/// `makespan + φ(p_fin)` plus a fixed two-step margin (after which
/// every cohort follows the final path and the load pattern repeats
/// verbatim, shifted in time).
/// Within that window *every* possible transient interaction is
/// simulated, so the verdict is exact, not sampled.
///
/// # Example
///
/// ```
/// use chronus_net::motivating_example;
/// use chronus_timenet::{FluidSimulator, Schedule, Verdict};
///
/// let inst = motivating_example();
/// // Updating everything at once creates transient loops (paper Fig. 2a).
/// let naive = Schedule::all_at_zero(&inst);
/// let report = FluidSimulator::new(&inst).run(&naive);
/// assert_eq!(report.verdict(), Verdict::Inconsistent);
/// assert!(!report.loop_free());
/// ```
#[derive(Clone, Debug)]
pub struct FluidSimulator<'a> {
    instance: &'a UpdateInstance,
}

impl<'a> FluidSimulator<'a> {
    /// Creates a simulator for an instance.
    pub fn new(instance: &'a UpdateInstance) -> Self {
        FluidSimulator { instance }
    }

    /// Runs the simulation for `schedule` and returns the full report.
    ///
    /// The schedule is *not* required to cover all switches (running a
    /// deliberately broken schedule is how blackholes are studied); use
    /// [`Schedule::validate`] first if completeness matters.
    pub fn run(&self, schedule: &Schedule) -> SimulationReport {
        let arena = &mut SimArena::default();
        let mut span =
            chronus_trace::span!("timenet.simulate", flows = self.instance.flows.len()).entered();
        let net = &self.instance.network;
        let interner = LinkInterner::for_instance(self.instance);
        let t_lo = self
            .instance
            .flows
            .iter()
            .map(|f| -(f.initial.total_delay(net).unwrap_or(0) as TimeStep))
            .min()
            .unwrap_or(0);
        let mut ledger = LoadLedger::with_arena(&interner, t_lo, arena);
        let mut stamps =
            VisitStamps::with_buffer(net.switch_count(), std::mem::take(&mut arena.stamps));
        let mut hops = arena.take_hops();
        let mut report = SimulationReport::default();
        let makespan = schedule.makespan().unwrap_or(0).max(0);
        // A simple walk visits at most |V| switches before it must
        // revisit one (pigeonhole); the bound is a defensive backstop.
        let max_hops = net.switch_count() + 2;

        for flow in &self.instance.flows {
            let mut table = FlowTable::build(self.instance, &interner, flow);
            table.load_schedule(schedule);
            let first_emit = -table.phi_init;
            let last_emit = makespan + table.phi_fin + HORIZON_SLACK;
            for tau in first_emit..=last_emit {
                match trace_cohort(&table, tau, max_hops, &mut ledger, &mut stamps, &mut hops) {
                    TraceEnd::Delivered => {}
                    TraceEnd::Looped { switch, time } => report.loops.push(LoopEvent {
                        flow: flow.id,
                        emitted_at: tau,
                        switch,
                        time,
                    }),
                    TraceEnd::Blackholed { switch, time } => {
                        report.blackholes.push(BlackholeEvent {
                            flow: flow.id,
                            emitted_at: tau,
                            switch,
                            time,
                        })
                    }
                    TraceEnd::Undelivered => report.undelivered.push((flow.id, tau)),
                }
            }
        }

        // Congestion: any cell at a step ≥ 0 above capacity. Steps < 0
        // are the pre-update steady state, feasible by instance
        // validation.
        report.congestion = ledger.congestion_events(&interner);
        report.link_loads = ledger.link_loads(&interner);

        // Teardown: every buffer returns to the arena, which also
        // refreshes the byte high-water mark and occupancy counters.
        ledger.into_arena(arena);
        arena.stamps = stamps.into_buffer();
        arena.put_hops(hops);
        arena.note_bytes(0);
        span.record("arena_bytes", arena.high_water_bytes());
        report
    }

    /// Convenience one-shot check.
    pub fn check(instance: &UpdateInstance, schedule: &Schedule) -> SimulationReport {
        FluidSimulator::new(instance).run(schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Verdict;
    use chronus_net::{motivating_example, Flow, FlowId, NetworkBuilder, Path, SwitchId};

    fn sid(i: u32) -> SwitchId {
        SwitchId(i)
    }

    /// Old path 0→1→2→3 (unit delays), new path 0→2→3 where the
    /// shortcut 0→2 has delay `shortcut_delay`. The shared tail link
    /// ⟨2,3⟩ has capacity 1 = demand, so old and new flow must never
    /// overlap there.
    fn shared_tail_instance(shortcut_delay: u64) -> UpdateInstance {
        let mut b = NetworkBuilder::with_switches(4);
        b.add_link(sid(0), sid(1), 1, 1).unwrap();
        b.add_link(sid(1), sid(2), 1, 1).unwrap();
        b.add_link(sid(2), sid(3), 1, 1).unwrap();
        b.add_link(sid(0), sid(2), 1, shortcut_delay).unwrap();
        let net = b.build();
        let flow = Flow::new(
            FlowId(0),
            1,
            Path::new(vec![sid(0), sid(1), sid(2), sid(3)]),
            Path::new(vec![sid(0), sid(2), sid(3)]),
        )
        .unwrap();
        UpdateInstance::single(net, flow).unwrap()
    }

    #[test]
    fn steady_state_is_consistent() {
        // A no-update schedule on a consistent instance: nothing happens.
        let inst = shared_tail_instance(1);
        let report = FluidSimulator::check(&inst, &Schedule::new());
        // The required switch 0 is never updated, so new-path cohorts
        // never appear — but old-path forwarding stays clean.
        assert!(report.congestion_free());
        assert!(report.loop_free());
        assert!(report.blackholes.is_empty());
    }

    #[test]
    fn short_shortcut_always_congests() {
        // New prefix delay to the shared link (1) is shorter than the
        // old one (2): the first new cohort catches up with the last
        // old cohort on ⟨2,3⟩ whatever the update time is.
        for t0 in 0..4 {
            let inst = shared_tail_instance(1);
            let s = Schedule::from_pairs(FlowId(0), [(sid(0), t0)]);
            let report = FluidSimulator::check(&inst, &s);
            assert!(
                !report.congestion_free(),
                "update at t{t0} must congest <2,3>"
            );
            let c = &report.congestion[0];
            assert_eq!((c.src, c.dst), (sid(2), sid(3)));
            assert_eq!(c.load, 2);
            assert_eq!(c.capacity, 1);
            assert!(report.loop_free());
        }
    }

    #[test]
    fn long_shortcut_never_congests() {
        // New prefix delay (3) exceeds the old one (2): the new stream
        // arrives at the shared link strictly after the old one drains.
        // This is the φ(p) ≥ φ(q) condition of Algorithm 1.
        let inst = shared_tail_instance(3);
        let s = Schedule::from_pairs(FlowId(0), [(sid(0), 0)]);
        let report = FluidSimulator::check(&inst, &s);
        assert_eq!(report.verdict(), Verdict::Consistent, "{report}");
    }

    #[test]
    fn loads_account_every_cohort_once() {
        let inst = shared_tail_instance(3);
        let s = Schedule::from_pairs(FlowId(0), [(sid(0), 0)]);
        let report = FluidSimulator::check(&inst, &s);
        // Old cohorts occupy <0,1> at steps -3..=-1 (emission up to the
        // last pre-update step); new cohorts occupy <0,2> from 0 on.
        let series = |u: u32, v: u32| &report.link_loads[&(sid(u), sid(v))];
        assert!(series(0, 1).iter().all(|(&t, &l)| t < 0 && l == 1));
        let new_entry = series(0, 2);
        assert!(new_entry.iter().all(|(&t, &l)| t >= 0 && l == 1));
        assert!(!new_entry.is_empty());
        // Shared tail: loaded every step in a contiguous range, never
        // above capacity.
        assert!(series(2, 3).values().all(|&l| l <= 1));
    }

    #[test]
    fn motivating_example_all_at_zero_loops() {
        let inst = motivating_example();
        let report = FluidSimulator::check(&inst, &Schedule::all_at_zero(&inst));
        assert!(!report.loop_free(), "paper Fig. 2(a): loops expected");
        assert!(report.loops.len() >= 2);
    }

    #[test]
    fn motivating_example_staged_schedule_is_consistent() {
        // v2 at t0, v3 at t1, v1 and v4 at t2 — the timed-update plan
        // the paper's Fig. 1(e)-(h) illustrates (adapted to the
        // reconstructed dashed path v1→v4→v3→v2→v6).
        let inst = motivating_example();
        let s = Schedule::from_pairs(
            FlowId(0),
            [(sid(1), 0), (sid(2), 1), (sid(0), 2), (sid(3), 2)],
        );
        assert!(s.validate(&inst).is_ok());
        let report = FluidSimulator::check(&inst, &s);
        assert_eq!(report.verdict(), Verdict::Consistent, "{report}");
    }

    #[test]
    fn motivating_example_wrong_order_breaks() {
        // Updating v4 (new rule v4→v3) before v3 lets old flow bounce
        // v3→v4→v3: a transient loop.
        let inst = motivating_example();
        let s = Schedule::from_pairs(
            FlowId(0),
            [(sid(1), 0), (sid(3), 1), (sid(0), 2), (sid(2), 3)],
        );
        let report = FluidSimulator::check(&inst, &s);
        assert!(!report.loop_free());
        assert!(report
            .loops
            .iter()
            .any(|l| l.switch == sid(3) || l.switch == sid(2)));
    }

    #[test]
    fn missing_new_path_rule_blackholes() {
        // Divert at the source before the fresh switch 2 has its rule:
        // the new path crosses a switch with no old rule.
        let mut b = NetworkBuilder::with_switches(4);
        b.add_link(sid(0), sid(1), 1, 1).unwrap();
        b.add_link(sid(1), sid(3), 1, 1).unwrap();
        b.add_link(sid(0), sid(2), 1, 1).unwrap();
        b.add_link(sid(2), sid(3), 1, 1).unwrap();
        let net = b.build();
        let flow = Flow::new(
            FlowId(0),
            1,
            Path::new(vec![sid(0), sid(1), sid(3)]),
            Path::new(vec![sid(0), sid(2), sid(3)]),
        )
        .unwrap();
        let inst2 = UpdateInstance::single(net, flow).unwrap();
        let bad = Schedule::from_pairs(FlowId(0), [(sid(0), 0), (sid(2), 5)]);
        let report = FluidSimulator::check(&inst2, &bad);
        assert!(!report.blackholes.is_empty());
        assert_eq!(report.blackholes[0].switch, sid(2));
        // Updating the fresh switch no later than the diversion fixes it.
        let good = Schedule::from_pairs(FlowId(0), [(sid(0), 0), (sid(2), 0)]);
        let report = FluidSimulator::check(&inst2, &good);
        assert_eq!(report.verdict(), Verdict::Consistent, "{report}");
    }

    #[test]
    fn two_flows_share_capacity() {
        // Two unit flows move onto the same capacity-1 link: congestion
        // even though each flow alone would be fine.
        let mut b = NetworkBuilder::with_switches(4);
        b.add_link(sid(0), sid(1), 1, 1).unwrap(); // old f0
        b.add_link(sid(2), sid(1), 1, 1).unwrap(); // old f1
        b.add_link(sid(0), sid(3), 2, 1).unwrap();
        b.add_link(sid(2), sid(3), 2, 1).unwrap();
        b.add_link(sid(3), sid(1), 1, 1).unwrap(); // shared new tail, C=1
        let net = b.build();
        let f0 = Flow::new(
            FlowId(0),
            1,
            Path::new(vec![sid(0), sid(1)]),
            Path::new(vec![sid(0), sid(3), sid(1)]),
        )
        .unwrap();
        let f1 = Flow::new(
            FlowId(1),
            1,
            Path::new(vec![sid(2), sid(1)]),
            Path::new(vec![sid(2), sid(3), sid(1)]),
        )
        .unwrap();
        let inst = UpdateInstance::new(net, vec![f0, f1]).unwrap();
        let mut s = Schedule::new();
        s.set(FlowId(0), sid(0), 0);
        s.set(FlowId(0), sid(3), 0);
        s.set(FlowId(1), sid(2), 0);
        s.set(FlowId(1), sid(3), 0);
        let report = FluidSimulator::check(&inst, &s);
        assert!(!report.congestion_free());
        let c = &report.congestion[0];
        assert_eq!((c.src, c.dst), (sid(3), sid(1)));
        assert_eq!(c.load, 2);
    }

    #[test]
    fn congestion_events_sorted() {
        let inst = shared_tail_instance(1);
        let s = Schedule::from_pairs(FlowId(0), [(sid(0), 0)]);
        let report = FluidSimulator::check(&inst, &s);
        assert!(!report.congestion.is_empty());
        assert!(
            report.congestion.windows(2).all(|w| w[0].time <= w[1].time),
            "congestion events must come out time-sorted"
        );
    }
}
