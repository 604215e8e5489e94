//! Slack-certified recovery decisions.
//!
//! When the controller detects a missed trigger — a switch rebooted
//! away its armed `ScheduledExecutor` entries, a FlowMod exhausted its
//! retries, or the fire report never arrived — it must decide between
//! two recoveries:
//!
//! 1. **Re-arm within slack.** The verify layer's slack certificate
//!    guarantees consistency as long as every switch fires within ±Δ
//!    of its scheduled instant. If the trigger can still be re-armed
//!    to fire inside that window, the timed update proceeds and the
//!    certificate continues to vouch for it.
//! 2. **Rollback.** Past the certified window the timed schedule's
//!    guarantees are void; the only consistent exit is the two-phase
//!    path (version-tagged rules + a flip once every switch acked),
//!    whose correctness does not depend on timing.
//!
//! [`RecoveryPolicy::decide`] is that decision as a pure function of
//! (nominal fire time, current time, certified slack) — no I/O, no
//! clocks, trivially testable.

use chronus_clock::Nanos;

/// The certified per-switch timing tolerance, in true nanoseconds: a
/// trigger may fire anywhere in `[nominal − delta_ns, nominal +
/// delta_ns]` without voiding the consistency certificate. Produced
/// from a `chronus-verify` slack certificate and the emulation's step
/// length (this crate stays independent of the certifier).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlackBudget {
    /// Certified tolerance ±Δ (ns); zero means only exact firing is
    /// certified.
    pub delta_ns: Nanos,
}

impl SlackBudget {
    /// A budget of ±`delta_ns`.
    pub fn new(delta_ns: Nanos) -> Self {
        SlackBudget {
            delta_ns: delta_ns.max(0),
        }
    }

    /// No tolerance at all: any deviation forces rollback.
    pub fn zero() -> Self {
        SlackBudget { delta_ns: 0 }
    }
}

/// What the watchdog should do about one missed trigger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Re-send the update to fire at `at` (true ns): its deviation
    /// from nominal stays within the certified slack.
    Rearm {
        /// Earliest achievable firing instant (ns).
        at: Nanos,
    },
    /// The certified window is unreachable: fall back to the
    /// two-phase rollback path.
    Rollback,
}

/// Pure recovery-decision policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// How long a re-sent update takes to reach the switch and apply
    /// (ns): control-channel delay plus install latency headroom. The
    /// earliest achievable fire time is `now + margin_ns`.
    pub margin_ns: Nanos,
}

impl RecoveryPolicy {
    /// A policy with the given re-arm margin.
    pub fn new(margin_ns: Nanos) -> Self {
        RecoveryPolicy {
            margin_ns: margin_ns.max(0),
        }
    }

    /// Decides recovery for a trigger scheduled to fire at true time
    /// `nominal` that is known un-fired at true time `now`.
    pub fn decide(&self, nominal: Nanos, now: Nanos, slack: SlackBudget) -> RecoveryAction {
        let earliest = now + self.margin_ns;
        if earliest <= nominal {
            // Still ahead of schedule: re-arm for the nominal instant
            // itself (deviation zero).
            return RecoveryAction::Rearm { at: nominal };
        }
        if earliest - nominal <= slack.delta_ns {
            RecoveryAction::Rearm { at: earliest }
        } else {
            RecoveryAction::Rollback
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rearms_at_nominal_when_still_ahead() {
        let p = RecoveryPolicy::new(1_000);
        let slack = SlackBudget::new(500);
        assert_eq!(
            p.decide(10_000, 2_000, slack),
            RecoveryAction::Rearm { at: 10_000 }
        );
    }

    #[test]
    fn rearms_late_within_slack() {
        let p = RecoveryPolicy::new(1_000);
        let slack = SlackBudget::new(5_000);
        // now + margin = 12_000, deviation 2_000 ≤ 5_000.
        assert_eq!(
            p.decide(10_000, 11_000, slack),
            RecoveryAction::Rearm { at: 12_000 }
        );
        // Exactly at the edge still re-arms.
        assert_eq!(
            p.decide(10_000, 14_000, slack),
            RecoveryAction::Rearm { at: 15_000 }
        );
    }

    #[test]
    fn rolls_back_past_the_certified_window() {
        let p = RecoveryPolicy::new(1_000);
        let slack = SlackBudget::new(5_000);
        assert_eq!(p.decide(10_000, 14_001, slack), RecoveryAction::Rollback);
        // Zero slack: any lateness rolls back.
        assert_eq!(
            p.decide(10_000, 10_000, SlackBudget::zero()),
            RecoveryAction::Rollback
        );
    }

    #[test]
    fn budget_clamps_negative_deltas() {
        // Negative construction clamps to zero.
        assert_eq!(SlackBudget::new(-5).delta_ns, 0);
    }
}
