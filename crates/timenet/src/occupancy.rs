//! A textual Fig. 2: per-step link occupancy during a migration.
//!
//! The paper visualizes its examples in the time-extended network,
//! marking which links carry flow at which step and where capacity is
//! violated. [`render_occupancy`] produces the same view as text: one
//! row per time step, one column per interesting link, each cell the
//! load over capacity (`!` marks an overload, `·` an idle link).

use crate::{FluidSimulator, Schedule};
use chronus_net::{SwitchId, TimeStep, UpdateInstance};
use std::fmt::Write as _;

/// Renders the occupancy table for `schedule` over `instance`,
/// covering the steps `[from, to]` (inclusive). Only links that carry
/// load at some point appear as columns, ordered by endpoints.
pub fn render_occupancy(
    instance: &UpdateInstance,
    schedule: &Schedule,
    from: TimeStep,
    to: TimeStep,
) -> String {
    let report = FluidSimulator::new(instance).run(schedule);

    let links: Vec<(SwitchId, SwitchId)> = report.link_loads.keys().copied().collect();
    let mut out = String::new();

    // Header.
    let _ = write!(out, "{:>5} |", "t");
    for &(u, v) in &links {
        let _ = write!(out, " {:>7} |", format!("{u}>{v}"));
    }
    out.push('\n');
    let width = 8 + links.len() * 10;
    out.push_str(&"-".repeat(width));
    out.push('\n');

    for t in from..=to {
        let _ = write!(out, "{t:>5} |");
        for &(u, v) in &links {
            let load = report
                .link_loads
                .get(&(u, v))
                .and_then(|m| m.get(&t))
                .copied()
                .unwrap_or(0);
            let cap = instance.network.capacity(u, v).unwrap_or(0);
            if load == 0 {
                let _ = write!(out, " {:>7} |", "·");
            } else {
                let marker = if load > cap { "!" } else { "" };
                let _ = write!(out, " {:>7} |", format!("{load}/{cap}{marker}"));
            }
        }
        // Updates firing at this step.
        let firing: Vec<String> = schedule
            .iter()
            .filter(|&(_, _, tv)| tv == t)
            .map(|(_, v, _)| v.to_string())
            .collect();
        if !firing.is_empty() {
            let _ = write!(out, "  << update {}", firing.join(", "));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronus_core_shim::greedy_like_schedule;
    use chronus_net::motivating_example;

    /// The timenet crate cannot depend on chronus-core (it is the
    /// other way round), so the known-good schedule for the motivating
    /// example is written down directly.
    mod chronus_core_shim {
        use chronus_net::{FlowId, SwitchId};

        pub fn greedy_like_schedule() -> crate::Schedule {
            crate::Schedule::from_pairs(
                FlowId(0),
                [
                    (SwitchId(1), 0),
                    (SwitchId(2), 1),
                    (SwitchId(0), 2),
                    (SwitchId(3), 2),
                ],
            )
        }
    }

    #[test]
    fn occupancy_shows_loads_and_updates() {
        let inst = motivating_example();
        let schedule = greedy_like_schedule();
        let text = render_occupancy(&inst, &schedule, -2, 8);
        // Header names links in u>v form.
        assert!(text.contains("s0>s1"));
        // The pre-update steady state loads the old first link.
        assert!(text.contains("1/1"));
        // Update annotations appear at their steps.
        assert!(text.contains("<< update s1"));
        assert!(text.contains("<< update s0, s3"));
        // A consistent schedule shows no overload marker.
        assert!(!text.contains('!'));
    }

    #[test]
    fn occupancy_marks_overloads() {
        let inst = motivating_example();
        // The OR round-1 pattern (v1 and v2 together, v3/v4 pending):
        // the diverted stream meets the draining old one on <v4, v5>.
        let bad = crate::Schedule::from_pairs(
            chronus_net::FlowId(0),
            [(chronus_net::SwitchId(0), 0), (chronus_net::SwitchId(1), 0)],
        );
        let text = render_occupancy(&inst, &bad, 0, 8);
        assert!(text.contains("2/1!"), "expected an overload cell:\n{text}");
    }
}
