//! Scheduling errors.

use chronus_net::{NetError, SwitchId};
use std::fmt;

/// Errors returned by the Chronus schedulers.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum ScheduleError {
    /// No congestion- and loop-free timed update sequence exists (or
    /// the greedy search could not find one within its horizon). The
    /// payload names a witness switch that could never be updated.
    Infeasible {
        /// A pending switch that blocked progress, if identifiable.
        blocked: Option<SwitchId>,
        /// Human-readable explanation.
        reason: String,
    },
    /// The dependency relation set of Algorithm 3 contained a cycle
    /// (Algorithm 2, lines 7–8): no congestion-free order exists.
    DependencyCycle(Vec<SwitchId>),
    /// The instance itself is malformed.
    Invalid(NetError),
    /// The instance is too large for the exact search to attempt: its
    /// state bitmask holds at most 63 coupled updates. Says nothing
    /// about feasibility.
    TooLarge {
        /// Coupled updates the instance needs.
        items: usize,
    },
    /// A solver exceeded its configured wall-clock budget (the paper
    /// caps OPT/OR at 600 s in Fig. 10).
    TimedOut {
        /// The budget that was exhausted, in milliseconds.
        budget_ms: u64,
    },
    /// The independent static certifier (`chronus-verify`) rejected a
    /// schedule a solver emitted as consistent. The solvers gate every
    /// commit on the exact simulator, so this indicates a bug in the
    /// solver, the simulator, or the certifier — the exact class of
    /// shared-implementation failures the certifier exists to expose.
    CertificationFailed {
        /// The certifier's minimal counterexample.
        violation: Box<chronus_verify::Violation>,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Infeasible { blocked, reason } => match blocked {
                Some(v) => write!(f, "infeasible: {reason} (blocked at {v})"),
                None => write!(f, "infeasible: {reason}"),
            },
            ScheduleError::DependencyCycle(cycle) => {
                write!(f, "dependency cycle:")?;
                for v in cycle {
                    write!(f, " {v}")?;
                }
                Ok(())
            }
            ScheduleError::Invalid(e) => write!(f, "invalid instance: {e}"),
            ScheduleError::TooLarge { items } => write!(
                f,
                "exact search supports at most 63 coupled updates, got {items}"
            ),
            ScheduleError::TimedOut { budget_ms } => {
                write!(f, "solver exceeded its {budget_ms} ms budget")
            }
            ScheduleError::CertificationFailed { violation } => {
                write!(f, "post-hoc certification failed: {violation}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScheduleError::Invalid(e) => Some(e),
            ScheduleError::CertificationFailed { violation } => Some(violation.as_ref()),
            _ => None,
        }
    }
}

impl From<NetError> for ScheduleError {
    fn from(e: NetError) -> Self {
        ScheduleError::Invalid(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = ScheduleError::Infeasible {
            blocked: Some(SwitchId(3)),
            reason: "old flow never drains".into(),
        };
        assert!(e.to_string().contains("blocked at s3"));
        let e = ScheduleError::DependencyCycle(vec![SwitchId(1), SwitchId(2)]);
        assert!(e.to_string().contains("s1 s2"));
        let e = ScheduleError::TimedOut { budget_ms: 600_000 };
        assert!(e.to_string().contains("600000 ms"));
        let e = ScheduleError::TooLarge { items: 70 };
        assert!(e.to_string().contains("at most 63 coupled updates, got 70"));
        let e: ScheduleError = NetError::ZeroDemand.into();
        assert!(e.to_string().contains("invalid instance"));
    }

    #[test]
    fn source_chains_net_errors() {
        use std::error::Error;
        let e: ScheduleError = NetError::PathTooShort.into();
        assert!(e.source().is_some());
        let e = ScheduleError::TimedOut { budget_ms: 1 };
        assert!(e.source().is_none());
    }
}
