//! Composition of per-shard certificates into a joint one.
//!
//! The sharded planner (`chronus-core::shard`) plans each shard
//! against a network whose *shared* links are clamped to the shard's
//! capacity reservation, so every per-shard [`Certificate`] proves
//! congestion-freedom only against its own grant. Composition turns
//! those partial proofs into a joint proof for the original instance:
//!
//! * links bounded by a **single** shard are adopted verbatim with
//!   their capacity rewritten to the true network capacity (the
//!   recorded one may be the smaller reservation; the recorded peak is
//!   unchanged, so the bound only gets looser);
//! * links bounded by **two or more** shards — exactly the shared
//!   links reservations coordinate — are re-checked from scratch: the
//!   shard profiles are summed with a boundary sweep and the combined
//!   peak is compared against the true capacity. An overloaded run
//!   here is precisely a reservation conflict, reported as
//!   [`Violation::Congestion`] so the planner can tighten grants and
//!   replan.
//!
//! The composed certificate passes [`Certificate::check`] against the
//! original instance, which is what makes the sharded fast path
//! exactly as trustworthy as the joint one.

use crate::certificate::{BoundaryWitness, Certificate, IntervalLoad, LinkBound, Violation};
use chronus_net::{Capacity, SwitchId, TimeStep, UpdateInstance};
use std::collections::BTreeMap;

/// Composes per-shard certificates into a joint certificate for
/// `instance`, re-checking every link that appears in more than one
/// part (the cross-shard reservation surface).
///
/// Returns the first conflict as a [`Violation::Congestion`] naming
/// the overloaded link and run; the flow list is empty because shard
/// certificates do not attribute load to flows (callers resolve
/// attribution against the instance when they need it).
pub fn compose_certificates(
    instance: &UpdateInstance,
    parts: &[Certificate],
) -> Result<Certificate, Violation> {
    // Group bounds by link across all parts, deterministically.
    let mut by_link: BTreeMap<(SwitchId, SwitchId), Vec<&LinkBound>> = BTreeMap::new();
    for part in parts {
        for bound in &part.link_bounds {
            by_link
                .entry((bound.src, bound.dst))
                .or_default()
                .push(bound);
        }
    }

    let mut link_bounds = Vec::with_capacity(by_link.len());
    for ((src, dst), bounds) in by_link {
        // The shard network shares the instance's topology; a missing
        // link would fail the joint `check` loudly, so fall back to
        // the recorded capacity rather than silently dropping a bound.
        let capacity = instance
            .network
            .capacity(src, dst)
            .or_else(|| bounds.first().map(|b| b.capacity))
            .unwrap_or(0);
        let merged = if let [only] = bounds.as_slice() {
            adopt(only, capacity)?
        } else {
            merge(src, dst, capacity, &bounds)?
        };
        link_bounds.push(merged);
    }

    let mut boundaries: Vec<BoundaryWitness> = parts
        .iter()
        .flat_map(|p| p.boundaries.iter().cloned())
        .collect();
    boundaries.sort_by_key(|b| b.time);

    Ok(Certificate {
        makespan: parts.iter().map(|p| p.makespan).max().unwrap_or(0),
        link_bounds,
        boundaries,
        segments_traced: parts.iter().map(|p| p.segments_traced).sum(),
        cohorts_covered: parts.iter().map(|p| p.cohorts_covered).sum(),
    })
}

/// Adopts a single-shard bound under the true capacity. The shard
/// planned against a reservation no larger than `capacity`, so its
/// peak normally still fits; re-check anyway so a corrupt part cannot
/// seal an overload.
fn adopt(bound: &LinkBound, capacity: Capacity) -> Result<LinkBound, Violation> {
    if bound.peak > capacity {
        return Err(first_overload(
            bound.src,
            bound.dst,
            capacity,
            &bound.segments,
        ));
    }
    Ok(LinkBound {
        src: bound.src,
        dst: bound.dst,
        capacity,
        peak: bound.peak,
        segments: bound.segments.clone(),
    })
}

/// Sums two or more shard profiles for one link with a boundary sweep
/// and re-checks the combined peak against the true capacity.
fn merge(
    src: SwitchId,
    dst: SwitchId,
    capacity: Capacity,
    bounds: &[&LinkBound],
) -> Result<LinkBound, Violation> {
    // Signed load deltas at every segment boundary.
    let mut events: Vec<(TimeStep, i128)> = Vec::new();
    for b in bounds {
        for s in &b.segments {
            events.push((s.start, s.load as i128));
            events.push((s.end, -(s.load as i128)));
        }
    }
    events.sort_unstable_by_key(|&(t, _)| t);

    // Accumulate into maximal constant non-zero segments. Every
    // boundary coalesces all deltas at its instant, so consecutive
    // emitted segments always differ in load and zero-load gaps are
    // simply never emitted.
    let mut segments: Vec<IntervalLoad> = Vec::new();
    let mut load: i128 = 0;
    let mut open: Option<TimeStep> = None;
    let mut i = 0;
    while i < events.len() {
        let t = events.get(i).map(|&(t, _)| t).unwrap_or(TimeStep::MAX);
        let mut next = load;
        while let Some(&(tt, d)) = events.get(i) {
            if tt != t {
                break;
            }
            next += d;
            i += 1;
        }
        if next == load {
            continue;
        }
        if let Some(start) = open.take() {
            segments.push(IntervalLoad {
                start,
                end: t,
                load: load as Capacity,
            });
        }
        if next > 0 {
            open = Some(t);
        }
        load = next;
    }
    // Deltas are balanced (every +load has its -load), so the sweep
    // always returns to zero and closes the last segment.
    debug_assert!(open.is_none() && load == 0);

    let peak = segments
        .iter()
        .filter(|s| s.end > 0)
        .map(|s| s.load)
        .max()
        .unwrap_or(0);
    if peak > capacity {
        return Err(first_overload(src, dst, capacity, &segments));
    }
    Ok(LinkBound {
        src,
        dst,
        capacity,
        peak,
        segments,
    })
}

/// The earliest maximal overloaded run in `segments`, as the
/// congestion counterexample composition reports for a reservation
/// conflict.
fn first_overload(
    src: SwitchId,
    dst: SwitchId,
    capacity: Capacity,
    segments: &[IntervalLoad],
) -> Violation {
    let mut run: Option<(TimeStep, TimeStep, Capacity)> = None;
    for s in segments {
        let overloaded = s.end > 0 && s.load > capacity;
        match run {
            None if overloaded => run = Some((s.start.max(0), s.end, s.load)),
            Some((start, end, peak)) if overloaded && s.start == end => {
                run = Some((start, s.end, peak.max(s.load)));
            }
            Some(_) => break, // past the first maximal overloaded run
            None => {}
        }
    }
    let (start, end, peak) = run.unwrap_or((0, 0, 0));
    Violation::Congestion {
        src,
        dst,
        start,
        end,
        peak,
        capacity,
        flows: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronus_net::{Flow, FlowId, NetworkBuilder, Path};

    fn sid(i: u32) -> SwitchId {
        SwitchId(i)
    }

    /// Two parallel two-hop corridors joined at a shared middle link.
    fn joint_instance(shared_capacity: Capacity) -> UpdateInstance {
        let mut b = NetworkBuilder::with_switches(4);
        b.add_link(sid(0), sid(1), 10, 1).unwrap();
        b.add_link(sid(1), sid(2), shared_capacity, 1).unwrap();
        b.add_link(sid(2), sid(3), 10, 1).unwrap();
        let net = b.build();
        let f0 = Flow::new(
            FlowId(0),
            3,
            Path::new(vec![sid(0), sid(1), sid(2)]),
            Path::new(vec![sid(0), sid(1), sid(2)]),
        )
        .unwrap();
        let f1 = Flow::new(
            FlowId(1),
            4,
            Path::new(vec![sid(1), sid(2), sid(3)]),
            Path::new(vec![sid(1), sid(2), sid(3)]),
        )
        .unwrap();
        UpdateInstance::new(net, vec![f0, f1]).unwrap()
    }

    fn bound(
        src: u32,
        dst: u32,
        capacity: Capacity,
        segs: &[(TimeStep, TimeStep, Capacity)],
    ) -> LinkBound {
        LinkBound {
            src: sid(src),
            dst: sid(dst),
            capacity,
            peak: segs
                .iter()
                .filter(|s| s.1 > 0)
                .map(|s| s.2)
                .max()
                .unwrap_or(0),
            segments: segs
                .iter()
                .map(|&(start, end, load)| IntervalLoad { start, end, load })
                .collect(),
        }
    }

    fn part(bounds: Vec<LinkBound>) -> Certificate {
        Certificate {
            makespan: 2,
            link_bounds: bounds,
            boundaries: Vec::new(),
            segments_traced: 1,
            cohorts_covered: 4,
        }
    }

    #[test]
    fn disjoint_links_are_adopted_with_true_capacities() {
        let inst = joint_instance(10);
        // Shard 0 planned against the shared link clamped to 5.
        let a = part(vec![
            bound(0, 1, 10, &[(-2, 4, 3)]),
            bound(1, 2, 5, &[(-2, 4, 3)]),
        ]);
        let b = part(vec![
            bound(1, 2, 5, &[(-2, 4, 4)]),
            bound(2, 3, 10, &[(-2, 4, 4)]),
        ]);
        let joint = compose_certificates(&inst, &[a, b]).unwrap();
        // The composed artifact passes the joint machine check, which
        // requires capacities to equal the true network's.
        assert_eq!(joint.check(&inst), Ok(()));
        assert_eq!(joint.peak_load(sid(0), sid(1)), 3);
        assert_eq!(joint.peak_load(sid(2), sid(3)), 4);
        // Shared link re-checked as the sum of both shard profiles.
        assert_eq!(joint.peak_load(sid(1), sid(2)), 7);
    }

    #[test]
    fn shared_link_sum_respects_time_structure() {
        let inst = joint_instance(5);
        // The shard loads touch the shared link at disjoint times, so
        // 3 + 4 never coexists and 5 of capacity suffices.
        let a = part(vec![bound(1, 2, 5, &[(-2, 1, 3)])]);
        let b = part(vec![bound(1, 2, 5, &[(1, 4, 4)])]);
        let joint = compose_certificates(&inst, &[a, b]).unwrap();
        assert_eq!(joint.peak_load(sid(1), sid(2)), 4);
        assert_eq!(joint.check(&inst), Ok(()));
        let seg_loads: Vec<Capacity> = joint
            .link_bounds
            .iter()
            .find(|b| b.src == sid(1) && b.dst == sid(2))
            .unwrap()
            .segments
            .iter()
            .map(|s| s.load)
            .collect();
        assert_eq!(seg_loads, vec![3, 4]);
    }

    #[test]
    fn oversubscribed_shared_link_is_a_conflict() {
        let inst = joint_instance(5);
        // Both shards were optimistically granted 5 and both used it
        // at the same time: 3 + 4 = 7 > 5 is a reservation conflict.
        let a = part(vec![bound(1, 2, 5, &[(-2, 4, 3)])]);
        let b = part(vec![bound(1, 2, 5, &[(0, 4, 4)])]);
        match compose_certificates(&inst, &[a, b]) {
            Err(Violation::Congestion {
                src,
                dst,
                start,
                end,
                peak,
                capacity,
                ..
            }) => {
                assert_eq!((src, dst), (sid(1), sid(2)));
                assert_eq!((start, end), (0, 4));
                assert_eq!((peak, capacity), (7, 5));
            }
            other => panic!("expected conflict, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_single_part_cannot_seal_an_overload() {
        let inst = joint_instance(5);
        // A lone part claiming peak 9 against a true capacity of 10 on
        // 0->1 is fine, but 9 over the 5-capacity shared link is not.
        let a = part(vec![bound(1, 2, 9, &[(0, 2, 9)])]);
        assert!(matches!(
            compose_certificates(&inst, &[a]),
            Err(Violation::Congestion { .. })
        ));
    }

    #[test]
    fn composition_of_real_certificates_checks_out() {
        // Split the joint instance into its two single-flow halves
        // (the degenerate sharding) and compose the real certifier's
        // outputs; the result must check against the joint instance.
        let inst = joint_instance(10);
        let mut certs = Vec::new();
        for flow in &inst.flows {
            let sub = UpdateInstance::single(inst.network.clone(), flow.clone()).unwrap();
            let sched = chronus_timenet::Schedule::new();
            certs.push(crate::certify(&sub, &sched).unwrap());
        }
        let joint = compose_certificates(&inst, &certs).unwrap();
        assert_eq!(joint.check(&inst), Ok(()));
        assert_eq!(joint.peak_load(sid(1), sid(2)), 7);
    }
}
