//! **Algorithm 5** — performing the timed network update.
//!
//! Algorithm 5 turns a MUTP solution `{⟨v_i, t_j⟩}` into the concrete
//! controller procedure: sort by time, and for every time step send
//! the update messages for that step's switches, send a barrier
//! request to each, wait for all barrier replies, then sleep one time
//! unit. This module produces that plan as data
//! ([`ExecutionPlan`]); `chronus-emu` executes it against the
//! emulated data plane, and `chronus-clock` maps step boundaries onto
//! synchronized wall-clock trigger times (Time4-style).

use chronus_net::{FlowId, SwitchId, TimeStep};
use chronus_timenet::Schedule;
use std::fmt;
use std::time::Duration;

/// One batch of Algorithm 5: all updates sharing a time step, followed
/// by a barrier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecStep {
    /// The model time step `t_j`.
    pub time: TimeStep,
    /// Rule updates to issue at this step.
    pub updates: Vec<(FlowId, SwitchId)>,
}

impl ExecStep {
    /// Number of switches updated in this step.
    pub fn update_count(&self) -> usize {
        self.updates.len()
    }
}

/// The full timed execution plan (Algorithm 5).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecutionPlan {
    steps: Vec<ExecStep>,
}

impl ExecutionPlan {
    /// Builds the plan from a schedule: sorts assignments by time and
    /// groups them into steps (Algorithm 5 lines 1–3).
    pub fn from_schedule(schedule: &Schedule) -> Self {
        let steps = schedule
            .by_step()
            .into_iter()
            .map(|(time, updates)| ExecStep { time, updates })
            .collect();
        ExecutionPlan { steps }
    }

    /// The ordered steps.
    pub fn steps(&self) -> &[ExecStep] {
        &self.steps
    }

    /// Total number of rule updates in the plan.
    // chronus-lint: allow(dead-pub) — read by tests/paper_example.rs
    pub fn total_updates(&self) -> usize {
        self.steps.iter().map(ExecStep::update_count).sum()
    }

    /// Number of controller interaction rounds — the quantity the
    /// order-replacement baseline minimizes.
    pub fn round_count(&self) -> usize {
        self.steps.len()
    }

    /// The latest step in the plan (`t^ = arg max t_j`, Algorithm 5
    /// line 3), or `None` for an empty plan.
    pub fn horizon(&self) -> Option<TimeStep> {
        self.steps.last().map(|s| s.time)
    }

    /// Maps every step to a wall-clock trigger offset, with one model
    /// time unit lasting `step_duration` ("sleep for one time unit",
    /// Algorithm 5 line 9). Offsets are relative to the plan start.
    ///
    /// Steps earlier than 0 cannot occur (schedules are validated to
    /// be non-negative); the offset of step `t` is simply
    /// `t × step_duration`.
    // chronus-lint: allow(dead-pub) — read by tests/substrate_integration.rs
    pub fn trigger_offsets(&self, step_duration: Duration) -> Vec<(Duration, &ExecStep)> {
        self.steps
            .iter()
            .map(|s| (step_duration.saturating_mul(s.time.max(0) as u32), s))
            .collect()
    }
}

impl fmt::Display for ExecutionPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.steps {
            write!(f, "t{}: update", s.time)?;
            for (flow, v) in &s.updates {
                write!(f, " {flow}/{v}")?;
            }
            writeln!(f, "; barrier; sleep 1 unit")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schedule {
        Schedule::from_pairs(
            FlowId(0),
            [
                (SwitchId(1), 0),
                (SwitchId(2), 1),
                (SwitchId(0), 2),
                (SwitchId(3), 2),
            ],
        )
    }

    #[test]
    fn groups_and_sorts_by_time() {
        let plan = ExecutionPlan::from_schedule(&sample());
        assert_eq!(plan.round_count(), 3);
        assert_eq!(plan.total_updates(), 4);
        assert_eq!(plan.horizon(), Some(2));
        assert_eq!(plan.steps()[0].time, 0);
        assert_eq!(plan.steps()[2].updates.len(), 2);
        let times: Vec<_> = plan.steps().iter().map(|s| s.time).collect();
        assert_eq!(times, vec![0, 1, 2]);
    }

    #[test]
    fn empty_schedule_empty_plan() {
        let plan = ExecutionPlan::from_schedule(&Schedule::new());
        assert_eq!(plan.round_count(), 0);
        assert_eq!(plan.horizon(), None);
        assert_eq!(plan.total_updates(), 0);
    }

    #[test]
    fn trigger_offsets_scale_with_step_duration() {
        let plan = ExecutionPlan::from_schedule(&sample());
        let offsets = plan.trigger_offsets(Duration::from_millis(100));
        assert_eq!(offsets.len(), 3);
        assert_eq!(offsets[0].0, Duration::ZERO);
        assert_eq!(offsets[1].0, Duration::from_millis(100));
        assert_eq!(offsets[2].0, Duration::from_millis(200));
    }

    #[test]
    fn display_matches_algorithm5_shape() {
        let plan = ExecutionPlan::from_schedule(&sample());
        let s = plan.to_string();
        assert!(s.contains("t0: update f0/s1; barrier; sleep 1 unit"));
        assert!(s.contains("t2: update f0/s0 f0/s3"));
    }
}
