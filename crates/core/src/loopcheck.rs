//! **Algorithm 4** — checking for forwarding loops.
//!
//! The paper's Algorithm 4 decides whether updating switch `v` at time
//! `t` would violate loop-freedom (Definition 2): it takes `v`'s dashed
//! (new) out-edge to `v'` and then walks *backward* along incoming
//! solid (old) links in the time-extended network; if the walk reaches
//! `v'` before reaching the source, then a cohort that is about to be
//! redirected at `v` has already passed through `v'` on its way in —
//! redirecting it back to `v'` makes it visit `v'` twice.
//!
//! The backward walk is time-respecting: a solid in-link from `u`
//! exists only while `u` still applies its old rule at the relevant
//! departure step, so updates already committed in the partial
//! schedule naturally prune the walk (paper Fig. 2: "we do not draw
//! the links in the time-extended network once the update is done").
//!
//! The check is exact for revisits of `v`'s immediate new next-hop
//! (the only case the paper's pseudocode covers); deeper revisits —
//! where the *second* or later hop of the new route lies on the
//! cohort's history — are caught by the exact simulator gate in
//! [`crate::greedy`].
// `expect` unwraps the topological-order invariant the checker
// itself maintains.
#![allow(clippy::expect_used)]

use chronus_net::{Flow, SwitchId, TimeStep, UpdateInstance};
use chronus_timenet::Schedule;

/// Would updating `v` (for `flow`) at step `t` create a forwarding
/// loop, given the updates already committed in `schedule`?
///
/// Implements the paper's Algorithm 4: starting from `v` at step `t`,
/// walk backward along still-active old-path in-links; report a loop
/// if `v`'s new next-hop `v'` appears on that upstream chain before
/// the source is reached.
// chronus-lint: allow(dead-pub) — read by crates/core/src/scan.rs
pub fn creates_forwarding_loop(
    instance: &UpdateInstance,
    flow: &Flow,
    schedule: &Schedule,
    v: SwitchId,
    t: TimeStep,
) -> bool {
    let net = &instance.network;
    let Some(v_prime) = flow.new_rule(v) else {
        // No dashed out-edge at v: the "update" redirects nothing.
        return false;
    };

    let mut cur = v;
    let mut time = t;
    // The old path is simple, so the walk terminates at the source in
    // at most |p_init| steps.
    while let Some(prev) = flow.initial.prev_hop(cur) {
        let sigma = net
            .delay(prev, cur)
            .expect("old path links exist in a validated instance") as TimeStep;
        let departure = time - sigma;
        // The solid in-link from `prev` exists at `departure` only if
        // `prev` still applied its old rule then.
        let diverts = flow.new_rule(prev).is_some() && flow.new_rule(prev) != flow.old_rule(prev);
        if diverts {
            if let Some(t_prev) = schedule.get(flow.id, prev) {
                if t_prev <= departure {
                    // Old flow through this in-link already stopped:
                    // nothing upstream can reach v the old way anymore.
                    return false;
                }
            }
        }
        if prev == v_prime {
            return true;
        }
        cur = prev;
        time = departure;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronus_net::{motivating_example, FlowId};

    fn sid(i: u32) -> SwitchId {
        SwitchId(i)
    }

    #[test]
    fn updating_v4_before_v3_loops() {
        // In the motivating example (old v1→v2→v3→v4→v5→v6, new
        // v1→v4→v3→v2→v6; 0-indexed ids one less) updating v4 (id 3,
        // new rule → v3) while old flow still streams v3→v4 bounces a
        // cohort that already visited v3 back to v3.
        let inst = motivating_example();
        let flow = inst.flow().clone();
        let empty = Schedule::new();
        assert!(creates_forwarding_loop(&inst, &flow, &empty, sid(3), 0));
    }

    #[test]
    fn updating_v2_is_always_loop_free() {
        // v2 (id 1) has new rule → v6 (the destination), which never
        // lies on v2's old upstream chain (v1 only).
        let inst = motivating_example();
        let flow = inst.flow().clone();
        let empty = Schedule::new();
        for t in 0..5 {
            assert!(!creates_forwarding_loop(&inst, &flow, &empty, sid(1), t));
        }
    }

    #[test]
    fn updating_v3_before_v2_loops() {
        // v3 (id 2) has new rule → v2; old flow arriving v3 came
        // through v2 — redirecting it revisits v2.
        let inst = motivating_example();
        let flow = inst.flow().clone();
        let empty = Schedule::new();
        assert!(creates_forwarding_loop(&inst, &flow, &empty, sid(2), 0));
        // Once v2 is committed at step 0, cohorts arriving at v3 at
        // step ≥ 1 departed v2 at step ≥ 0 — but those were already
        // diverted at v2, so no old in-link exists: safe.
        let mut s = Schedule::new();
        s.set(FlowId(0), sid(1), 0);
        assert!(!creates_forwarding_loop(&inst, &flow, &s, sid(2), 1));
    }

    #[test]
    fn respects_scheduled_times_not_just_membership() {
        // v2 committed at step 5: a cohort redirected at v3 at step 1
        // departed v2 at step 0 < 5 via the old rule — loop.
        let inst = motivating_example();
        let flow = inst.flow().clone();
        let mut s = Schedule::new();
        s.set(FlowId(0), sid(1), 5);
        assert!(creates_forwarding_loop(&inst, &flow, &s, sid(2), 1));
        // A redirect at step 5 still catches the cohort that departed
        // v2 at step 4 on the old rule: it revisits v2 (which by then
        // forwards to v6, but Definition 2 counts the revisit itself).
        assert!(creates_forwarding_loop(&inst, &flow, &s, sid(2), 5));
        // At step 6 the upstream old in-link from v2 is gone: safe.
        assert!(!creates_forwarding_loop(&inst, &flow, &s, sid(2), 6));
    }

    #[test]
    fn switch_without_new_rule_never_loops() {
        let inst = motivating_example();
        let flow = inst.flow().clone();
        let empty = Schedule::new();
        // v5 (id 4) is not on the final path: no dashed edge, no loop.
        assert!(!creates_forwarding_loop(&inst, &flow, &empty, sid(4), 0));
    }

    #[test]
    fn source_update_is_loop_free_here() {
        // v1's new rule → v4; v4 is downstream of v1 on the old path,
        // never on v1's (empty) upstream chain.
        let inst = motivating_example();
        let flow = inst.flow().clone();
        let empty = Schedule::new();
        assert!(!creates_forwarding_loop(&inst, &flow, &empty, sid(0), 0));
    }
}
