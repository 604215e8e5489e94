//! **TP** — two-phase updates (Reitblatt et al. \[20\]).
//!
//! Phase 1 installs, on every switch of the final path, a duplicate
//! rule matching the *new* version tag (the paper uses VLAN IDs as
//! version numbers); existing traffic still carries the old tag and
//! ignores them. Phase 2 flips the ingress stamp: packets entering
//! from the flip instant on carry the new tag and follow the new
//! rules end-to-end. Old rules are garbage collected once in-flight
//! old-tag packets drain.
//!
//! Per-packet consistency means no packet ever sees a mixed
//! configuration, so TP cannot loop — but during the transition every
//! switch on either path holds rules for *both* versions, doubling
//! flow-table occupancy (the drawback quantified in Fig. 9), and the
//! changeover can still congest shared links when the new path
//! delivers the stamped packets to a shared link sooner than the old
//! path drains it.
// `expect` unwraps the two-generation invariant `tp_plan` creates.
#![allow(clippy::expect_used)]

use chronus_net::{Capacity, Flow, SwitchId, TimeStep, UpdateInstance};
use chronus_timenet::{CongestionEvent, SimulationReport};
use std::collections::{BTreeSet, HashMap};

/// One rule operation in a two-phase plan.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RuleOp {
    /// Install a rule matching the new version tag at this switch.
    InstallTagged(SwitchId),
    /// Flip the ingress stamp at the source switch.
    FlipStamp(SwitchId),
    /// Remove the old-version rule at this switch.
    RemoveOld(SwitchId),
}

/// A two-phase update plan for one flow, plus its rule-space ledger.
#[derive(Clone, Debug)]
pub struct TpPlan {
    /// Phase 1: tagged duplicates on every final-path switch.
    pub phase1: Vec<RuleOp>,
    /// Phase 2: the ingress stamp flip.
    pub phase2: RuleOp,
    /// Cleanup after old packets drain.
    pub cleanup: Vec<RuleOp>,
    peak: usize,
}

impl TpPlan {
    /// Peak rules held *during* the transition: the old generation,
    /// the complete new tagged generation, and the ingress stamp —
    /// the quantity Fig. 9 reports for TP.
    pub fn peak_rule_count(&self) -> usize {
        self.peak
    }
}

/// Builds the two-phase plan for one flow.
pub fn tp_plan(flow: &Flow) -> TpPlan {
    let _span = chronus_trace::span!(
        "baselines.tp_plan",
        initial_hops = flow.initial.len(),
        final_hops = flow.fin.len()
    )
    .entered();
    let phase1: Vec<RuleOp> = flow
        .fin
        .hops()
        .iter()
        .map(|&v| RuleOp::InstallTagged(v))
        .collect();
    let cleanup: Vec<RuleOp> = flow
        .initial
        .hops()
        .iter()
        .map(|&v| RuleOp::RemoveOld(v))
        .collect();
    // Transition: old generation + full tagged new generation + the
    // flipped stamp rule.
    let peak = flow.initial.len() + flow.fin.len() + 1;
    TpPlan {
        phase1,
        phase2: RuleOp::FlipStamp(flow.source()),
        cleanup,
        peak,
    }
}

/// Peak rules Chronus needs for the same migration: one rule per
/// switch on either path — actions are rewritten in place, fresh
/// switches add a single rule, nothing is duplicated (§II-A: "we only
/// modify the action in the flow table during the update process").
pub fn chronus_peak_rule_count(flow: &Flow) -> usize {
    let union: BTreeSet<SwitchId> = flow
        .initial
        .hops()
        .iter()
        .chain(flow.fin.hops())
        .copied()
        .collect();
    union.len()
}

/// Executes the two-phase changeover analytically: old-tag cohorts
/// (emitted before `flip_time`) follow `p_init`, new-tag cohorts
/// follow `p_fin`; the per-link loads of both streams are summed and
/// checked against capacities. Returns a standard
/// [`SimulationReport`] (loops and blackholes are impossible under
/// per-packet consistency, so only congestion events can appear).
// chronus-lint: allow(dead-pub) — read by tests/paper_example.rs
pub fn tp_flip_report(instance: &UpdateInstance, flip_time: TimeStep) -> SimulationReport {
    let mut loads: HashMap<(SwitchId, SwitchId), HashMap<TimeStep, Capacity>> = HashMap::new();

    for flow in &instance.flows {
        let net = &instance.network;
        let phi_init = flow.initial.total_delay(net).unwrap_or(0) as TimeStep;
        let phi_fin = flow.fin.total_delay(net).unwrap_or(0) as TimeStep;
        // Old-tag cohorts still relevant around the flip.
        for tau in (flip_time - phi_init - 2)..flip_time {
            let mut t = tau;
            for (u, v) in flow.initial.edges() {
                *loads.entry((u, v)).or_default().entry(t).or_insert(0) += flow.demand;
                t += net.delay(u, v).unwrap_or(1) as TimeStep;
            }
        }
        // New-tag cohorts until the pattern repeats.
        for tau in flip_time..=(flip_time + phi_fin + phi_init + 2) {
            let mut t = tau;
            for (u, v) in flow.fin.edges() {
                *loads.entry((u, v)).or_default().entry(t).or_insert(0) += flow.demand;
                t += net.delay(u, v).unwrap_or(1) as TimeStep;
            }
        }
    }

    let mut report = SimulationReport::default();
    for (&(u, v), series) in &loads {
        let capacity = instance
            .network
            .capacity(u, v)
            .expect("loads only on real links");
        for (&t, &load) in series {
            if t >= 0 && load > capacity {
                report.congestion.push(CongestionEvent {
                    src: u,
                    dst: v,
                    time: t,
                    load,
                    capacity,
                });
            }
        }
    }
    report.congestion.sort_by_key(|c| (c.time, c.src, c.dst));
    report.link_loads = loads
        .into_iter()
        .map(|(k, m)| (k, m.into_iter().collect()))
        .collect();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronus_net::{motivating_example, Flow, FlowId, NetworkBuilder, Path};

    fn sid(i: u32) -> SwitchId {
        SwitchId(i)
    }

    #[test]
    fn plan_shape_on_motivating_example() {
        let inst = motivating_example();
        let plan = tp_plan(inst.flow());
        // New path has 5 hops → 5 tagged installs.
        assert_eq!(plan.phase1.len(), 5);
        assert_eq!(plan.phase2, RuleOp::FlipStamp(sid(0)));
        assert_eq!(plan.cleanup.len(), 6);
        // 6 old + 5 tagged + 1 stamp = 12 peak.
        assert_eq!(plan.peak_rule_count(), 12);
    }

    #[test]
    fn chronus_needs_fewer_rules() {
        let inst = motivating_example();
        let flow = inst.flow();
        let chronus = chronus_peak_rule_count(flow);
        let tp = tp_plan(flow).peak_rule_count();
        // Union of both paths is 6 switches vs 12 TP rules: the ≥ 50%
        // saving Fig. 9 reports.
        assert_eq!(chronus, 6);
        assert!(tp >= 2 * chronus);
    }

    #[test]
    fn per_packet_consistency_never_loops() {
        let inst = motivating_example();
        let report = tp_flip_report(&inst, 3);
        assert!(report.loops.is_empty());
        assert!(report.blackholes.is_empty());
    }

    #[test]
    fn tp_congests_when_new_prefix_is_faster() {
        // Shared tail with a fast shortcut: the flip cannot avoid
        // overlapping the streams on <2,3> (same analysis as Chronus'
        // infeasible case — TP has no way out either).
        let mut b = NetworkBuilder::with_switches(4);
        b.add_link(sid(0), sid(1), 1, 1).unwrap();
        b.add_link(sid(1), sid(2), 1, 1).unwrap();
        b.add_link(sid(2), sid(3), 1, 1).unwrap();
        b.add_link(sid(0), sid(2), 1, 1).unwrap();
        let flow = Flow::new(
            FlowId(0),
            1,
            Path::new(vec![sid(0), sid(1), sid(2), sid(3)]),
            Path::new(vec![sid(0), sid(2), sid(3)]),
        )
        .unwrap();
        let inst = UpdateInstance::single(b.build(), flow).unwrap();
        let report = tp_flip_report(&inst, 2);
        assert!(!report.congestion_free());
        assert_eq!(report.congestion[0].src, sid(2));
    }

    #[test]
    fn tp_clean_when_new_prefix_is_slower() {
        let mut b = NetworkBuilder::with_switches(4);
        b.add_link(sid(0), sid(1), 1, 1).unwrap();
        b.add_link(sid(1), sid(2), 1, 1).unwrap();
        b.add_link(sid(2), sid(3), 1, 1).unwrap();
        b.add_link(sid(0), sid(2), 1, 3).unwrap();
        let flow = Flow::new(
            FlowId(0),
            1,
            Path::new(vec![sid(0), sid(1), sid(2), sid(3)]),
            Path::new(vec![sid(0), sid(2), sid(3)]),
        )
        .unwrap();
        let inst = UpdateInstance::single(b.build(), flow).unwrap();
        let report = tp_flip_report(&inst, 2);
        assert!(report.congestion_free(), "{report}");
    }

    #[test]
    fn two_phase_certificate_matches_flip_report_exactly() {
        // Differential pin: the independent certifier's two-phase
        // analysis must reproduce tp_flip_report's verdict, congestion
        // events and load surface on randomized instances and flips.
        use chronus_net::{InstanceGenerator, InstanceGeneratorConfig};
        let mut agreed = 0;
        for seed in 0..120u64 {
            let n = 5 + (seed % 7) as usize;
            let Some(inst) =
                InstanceGenerator::new(InstanceGeneratorConfig::paper(n, seed)).generate()
            else {
                continue;
            };
            let flip = (seed % 9) as TimeStep;
            let report = tp_flip_report(&inst, flip);
            match chronus_verify::certify_two_phase(&inst, flip) {
                Ok(cert) => {
                    assert!(
                        report.congestion_free(),
                        "seed {seed} flip {flip}: certifier passed, report congests"
                    );
                    assert_eq!(cert.check(&inst), Ok(()));
                    // Load surfaces agree peak-for-peak on every link.
                    for b in &cert.link_bounds {
                        let sim_peak = report
                            .link_loads
                            .get(&(b.src, b.dst))
                            .map(|m| {
                                m.iter()
                                    .filter(|(&t, _)| t >= 0)
                                    .map(|(_, &l)| l)
                                    .max()
                                    .unwrap_or(0)
                            })
                            .unwrap_or(0);
                        assert_eq!(b.peak, sim_peak, "seed {seed} link {}->{}", b.src, b.dst);
                    }
                }
                Err(v) => {
                    assert!(
                        !report.congestion_free(),
                        "seed {seed} flip {flip}: certifier rejected ({v}), report clean"
                    );
                    // The named link and first instant match the
                    // report's earliest congestion event.
                    if let chronus_verify::Violation::Congestion {
                        src, dst, start, ..
                    } = v
                    {
                        let first = &report.congestion[0];
                        assert_eq!((src, dst, start), (first.src, first.dst, first.time));
                    } else {
                        panic!("two-phase can only congest, got {v}");
                    }
                }
            }
            agreed += 1;
        }
        assert!(agreed >= 40, "need real coverage, got {agreed}");
    }

    #[test]
    fn loads_cover_both_streams() {
        let inst = motivating_example();
        let report = tp_flip_report(&inst, 3);
        // Old path loaded before the changeover, new path after.
        let loaded = |u: u32, v: u32| {
            report.link_loads[&(sid(u), sid(v))]
                .values()
                .any(|&l| l >= 1)
        };
        assert!(loaded(0, 1)); // old first link
        assert!(loaded(0, 3)); // new first link
    }
}
