//! Update drivers: how each scheme issues its FlowMods.
//!
//! A driver is a *specification*; [`crate::Emulator::install_driver`]
//! translates it into timed `ApplyFlowMod` events using its knowledge
//! of installed rule ids, port maps and per-switch clocks.
// Drivers index the instance's own flow list.
#![allow(clippy::indexing_slicing, clippy::expect_used)]

use chronus_clock::Nanos;
use chronus_net::{SwitchId, UpdateInstance};
use chronus_timenet::Schedule;
use std::sync::Arc;
use std::time::Duration;

/// The Chronus execution model: timed updates fired by each switch's
/// synchronized clock (Algorithm 5 over Time4 triggers).
#[derive(Clone, Debug)]
pub struct ChronusDriver {
    /// The MUTP solution.
    pub schedule: Schedule,
}

/// The OR execution model: rounds fired over the control channel,
/// landing after a random installation latency; a barrier separates
/// rounds ("our algorithm sleeps for a while, which is a random number
/// from the data of \[9\], so as to simulate the asynchronous nature of
/// data plane", §V-A).
#[derive(Clone, Debug)]
pub struct OrDriver {
    /// Rounds of switches.
    pub rounds: Vec<Vec<SwitchId>>,
    /// Per-switch installation latency range (ns).
    pub latency_range: (Nanos, Nanos),
}

/// The TP execution model: install the tagged generation, barrier,
/// flip the ingress stamp, and garbage-collect later.
#[derive(Clone, Debug)]
pub struct TpDriver {
    /// Per-switch installation latency range for phase 1 (ns).
    pub latency_range: (Nanos, Nanos),
    /// Delay between the phase-1 barrier and the stamp flip (ns).
    pub flip_gap: Nanos,
    /// Delay between the flip and old-rule garbage collection (ns).
    pub cleanup_gap: Nanos,
}

impl Default for TpDriver {
    fn default() -> Self {
        TpDriver {
            latency_range: (10_000_000, 100_000_000),
            flip_gap: 50_000_000,
            cleanup_gap: 2_000_000_000,
        }
    }
}

/// The engine execution model: the update plan is not handed in but
/// *produced* at install time by a [`chronus_engine::Engine`] walking
/// its fallback chain under a deadline. A timed plan installs exactly
/// like [`ChronusDriver`]; a two-phase fallback installs like
/// [`TpDriver`] — so deadline pressure degrades the data-plane
/// mechanism, never its consistency.
#[derive(Clone, Debug)]
pub struct EngineDriver {
    /// The instance to plan (must match the instance the emulator was
    /// built from; [`crate::Emulator::install_driver`] asserts this).
    pub instance: Arc<UpdateInstance>,
    /// Planning worker threads.
    pub workers: usize,
    /// Planning deadline for the optimizing stages.
    pub deadline: Duration,
}

/// An update driver specification.
#[derive(Clone, Debug)]
pub enum UpdateDriver {
    /// No update: steady-state baseline run.
    None,
    /// Chronus timed updates.
    Chronus(ChronusDriver),
    /// Order-replacement rounds.
    Or(OrDriver),
    /// Two-phase commit.
    Tp(TpDriver),
    /// Plan-on-install via the chronus-engine fallback chain.
    Engine(EngineDriver),
}

impl UpdateDriver {
    /// Chronus driver from a schedule; `instance` is taken to assert
    /// that the schedule covers it (catching mixed-up arguments
    /// early).
    ///
    /// # Panics
    /// Panics if the schedule does not cover the instance's required
    /// updates.
    pub fn chronus(schedule: Schedule, instance: &UpdateInstance) -> Self {
        schedule
            .validate(instance)
            .expect("schedule must cover the instance");
        UpdateDriver::Chronus(ChronusDriver { schedule })
    }

    /// OR driver with the default Dionysus-flavoured latency range:
    /// rule installations take 100 ms to 1.5 s (Dionysus measured
    /// switch update latencies from tens of milliseconds to multiple
    /// seconds under load).
    pub fn or_rounds(rounds: Vec<Vec<SwitchId>>) -> Self {
        UpdateDriver::Or(OrDriver {
            rounds,
            latency_range: (100_000_000, 1_500_000_000),
        })
    }

    /// TP driver with default gaps.
    pub fn two_phase() -> Self {
        UpdateDriver::Tp(TpDriver::default())
    }

    /// Engine driver with a generous default deadline (the optimizing
    /// stages on emulator-scale instances finish in microseconds).
    pub fn engine(instance: Arc<UpdateInstance>, workers: usize) -> Self {
        UpdateDriver::Engine(EngineDriver {
            instance,
            workers,
            deadline: Duration::from_secs(5),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronus_net::motivating_example;
    use chronus_timenet::Schedule as Sched;

    #[test]
    fn chronus_driver_validates_schedule() {
        let inst = motivating_example();
        let good = Sched::all_at_zero(&inst);
        let d = UpdateDriver::chronus(good, &inst);
        assert!(matches!(d, UpdateDriver::Chronus(_)));
    }

    #[test]
    #[should_panic(expected = "must cover")]
    fn chronus_driver_rejects_incomplete_schedule() {
        let inst = motivating_example();
        let _ = UpdateDriver::chronus(Sched::new(), &inst);
    }

    #[test]
    fn defaults_are_sane() {
        let or = UpdateDriver::or_rounds(vec![vec![SwitchId(1)]]);
        if let UpdateDriver::Or(d) = or {
            assert!(d.latency_range.0 < d.latency_range.1);
        } else {
            panic!("expected OR driver");
        }
        let tp = UpdateDriver::two_phase();
        if let UpdateDriver::Tp(d) = tp {
            assert!(d.flip_gap > 0);
            assert!(d.cleanup_gap > d.flip_gap);
        } else {
            panic!("expected TP driver");
        }
    }
}
