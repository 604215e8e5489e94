//! Integration of the lower substrates with the scheduling stack:
//! clocks × execution plans, OpenFlow tables × schedules, and the
//! network model × routing under migration.

use chronus::clock::{two_way_sync, HardwareClock, ScheduledExecutor, SyncConfig};
use chronus::core::exec::ExecutionPlan;
use chronus::core::greedy::greedy_schedule;
use chronus::net::routing::seeded_rng;
use chronus::net::{motivating_example, SwitchId};
use chronus::openflow::{Action, FlowMod, FlowTable, Ipv4Prefix, Match, Packet};
use std::time::Duration;

#[test]
fn execution_plan_fires_in_schedule_order_on_synced_clocks() {
    // Build the greedy plan, arm one Time4 trigger per update on a
    // per-switch skewed-then-synced clock, and check the realized
    // firing order matches the schedule's step order with error far
    // below one step.
    let inst = motivating_example();
    let out = greedy_schedule(&inst).expect("feasible");
    let plan = ExecutionPlan::from_schedule(&out.schedule);
    let step_ns: i128 = 100_000_000; // 100 ms per model step

    let mut rng = seeded_rng(99);
    let mut firings: Vec<(i128, SwitchId)> = Vec::new();
    for (offset, step) in plan.trigger_offsets(Duration::from_millis(100)) {
        for &(_, switch) in &step.updates {
            // A drifting clock, synchronized Time4-style first.
            let mut clock = HardwareClock::new(
                50_000 + switch.0 as i128 * 13_337,
                5_000 - switch.0 as i64 * 1_000,
            );
            let sync = two_way_sync(&mut clock, 0, SyncConfig::default(), &mut rng);
            assert!(sync.residual_error.abs() < 5_000, "sync within 5 µs");
            let mut ex = ScheduledExecutor::new(clock);
            let local_target = offset.as_nanos() as i128;
            ex.arm(local_target, switch);
            let fired = ex.advance_to(local_target + step_ns);
            assert_eq!(fired.len(), 1);
            let (true_at, s) = fired[0];
            assert!(
                (true_at - local_target).abs() < step_ns / 100,
                "firing error must be tiny vs the step"
            );
            firings.push((true_at, s));
        }
    }
    // Realized order respects schedule steps.
    firings.sort_by_key(|&(t, _)| t);
    let realized: Vec<SwitchId> = firings.iter().map(|&(_, s)| s).collect();
    let mut expected: Vec<SwitchId> = Vec::new();
    for (_, updates) in out.schedule.by_step() {
        for (_, v) in updates {
            expected.push(v);
        }
    }
    // Same multiset, and the first updater (v2) is first in both.
    let mut a = realized.clone();
    let mut b = expected.clone();
    a.sort();
    b.sort();
    assert_eq!(a, b);
    assert_eq!(realized[0], expected[0]);
}

#[test]
fn chronus_flowmods_update_real_tables_in_place() {
    // Apply the greedy schedule's updates to real flow tables keyed by
    // the flow's destination prefix; verify that lookups change from
    // old to new next hops and that table occupancy never grows.
    let inst = motivating_example();
    let flow = inst.flow();
    let out = greedy_schedule(&inst).expect("feasible");
    let dst_ip = u32::from_be_bytes([10, 0, 0, 1]);

    // One table per switch with the old rule installed.
    let mut tables: Vec<FlowTable> = Vec::new();
    let mut rule_ids = Vec::new();
    for s in inst.network.switches() {
        let mut t = FlowTable::with_capacity_limit(1); // table space is tight!
        let id = flow.old_rule(s).map(|nh| {
            t.add(
                10,
                Match::dst_prefix(Ipv4Prefix::host(dst_ip)),
                vec![Action::Output(nh.0 as u16)],
            )
            .expect("first rule fits")
        });
        tables.push(t);
        rule_ids.push(id);
    }

    // Apply updates in schedule order as ModifyActions FlowMods.
    for (_, updates) in out.schedule.by_step() {
        for (_, v) in updates {
            let new_hop = flow.new_rule(v).expect("updated switches have new rules");
            match rule_ids[v.index()] {
                Some(id) => {
                    let fm = FlowMod::modify(1, id, vec![Action::Output(new_hop.0 as u16)]);
                    if let chronus::openflow::FlowModCommand::ModifyActions = fm.command {
                        tables[v.index()]
                            .modify_actions(id, fm.actions)
                            .expect("modify in place");
                    }
                }
                None => {
                    // Fresh switch: the single add still fits.
                    tables[v.index()]
                        .add(
                            10,
                            Match::dst_prefix(Ipv4Prefix::host(dst_ip)),
                            vec![Action::Output(new_hop.0 as u16)],
                        )
                        .expect("fresh rule fits a capacity-1 table");
                }
            }
        }
    }

    // Every final-path switch now forwards along the final path, and
    // no table ever exceeded its single-rule budget (the point of
    // avoiding two-phase duplication).
    let pkt = Packet::new(1, 0, dst_ip);
    for w in flow.fin.hops().windows(2) {
        let rule = tables[w[0].index()].lookup(&pkt).expect("rule present");
        assert_eq!(rule.actions, vec![Action::Output(w[1].0 as u16)]);
        assert_eq!(tables[w[0].index()].len(), 1);
    }
}

#[test]
fn schedule_statistics_match_problem_structure() {
    let inst = motivating_example();
    let out = greedy_schedule(&inst).expect("feasible");
    assert_eq!(out.schedule.len(), 4);
    assert!(out.schedule.distinct_steps() >= 3, "paper needs ≥ 3 steps");
    let earliest = out.schedule.iter().map(|(_, _, t)| t).min();
    assert_eq!(earliest, Some(0), "greedy starts at step 0");
}
