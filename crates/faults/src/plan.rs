//! Seeded fault plans and the injector that executes them.
//!
//! A [`FaultPlan`] is a declarative description of everything that can
//! go wrong between the controller and the switches: control-channel
//! message loss, duplication and delay, per-switch install stragglers,
//! clock-desync spikes, and switch reboots that lose armed triggers.
//! A [`FaultInjector`] owns the plan plus its own seeded RNG, so the
//! same plan over the same seed injects the same faults regardless of
//! what else the host simulation draws from *its* RNG.
//!
//! **Determinism contract:** an injector never consumes randomness for
//! a fault class whose rate is zero. A plan with all rates at zero is
//! therefore not just "no faults in expectation" — it draws nothing at
//! all, so a fault-free run and a zero-rate faulty run are
//! byte-identical (pinned by the differential property test in the
//! workspace test suite).

use chronus_clock::Nanos;
use chronus_net::SwitchId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// A scheduled clock-desync spike: at true time `at`, `switch`'s clock
/// jumps by `offset_ns` (positive = clock suddenly runs ahead).
/// Models a sync-servo glitch or a grandmaster changeover.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClockSpike {
    /// True time of the spike (ns).
    pub at: Nanos,
    /// Afflicted switch.
    pub switch: SwitchId,
    /// Offset jump applied to the local clock (ns).
    pub offset_ns: Nanos,
}

/// A scheduled switch reboot: at true time `at`, `switch`'s control
/// agent restarts — every armed trigger is lost and the control
/// channel is down for `outage_ns`, after which the switch reconnects.
/// The data plane (installed flow table) survives, as TCAM state does
/// across agent restarts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RebootEvent {
    /// True time the agent goes down (ns).
    pub at: Nanos,
    /// Rebooting switch.
    pub switch: SwitchId,
    /// Control-plane outage duration (ns).
    pub outage_ns: Nanos,
}

/// Declarative fault model for one emulation run.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// RNG seed for every probabilistic draw below.
    pub seed: u64,
    /// Probability a control-plane message (either direction) is lost.
    pub drop_prob: f64,
    /// Probability a delivered message is delivered twice.
    pub dup_prob: f64,
    /// Probability a delivered message takes extra delay.
    pub delay_prob: f64,
    /// Extra delay range `[lo, hi]` (ns) when delayed.
    pub delay_range_ns: (Nanos, Nanos),
    /// Probability a switch is a *straggler*: every rule install on it
    /// takes extra latency (Dionysus reports installs stretching from
    /// tens of milliseconds to seconds under load).
    pub straggler_prob: f64,
    /// Extra install latency range `[lo, hi]` (ns) on stragglers.
    pub straggler_extra_ns: (Nanos, Nanos),
    /// Scheduled clock-desync spikes.
    pub spikes: Vec<ClockSpike>,
    /// Scheduled switch reboots.
    pub reboots: Vec<RebootEvent>,
}

impl FaultPlan {
    /// A plan that injects nothing: all rates zero, no scheduled
    /// events. Runs under a quiet plan are byte-identical to runs
    /// without any fault machinery.
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_prob: 0.0,
            dup_prob: 0.0,
            delay_prob: 0.0,
            delay_range_ns: (0, 0),
            straggler_prob: 0.0,
            straggler_extra_ns: (0, 0),
            spikes: Vec::new(),
            reboots: Vec::new(),
        }
    }

    /// A lossy-channel plan: messages drop with `drop_prob`, nothing
    /// else misbehaves.
    pub fn lossy(seed: u64, drop_prob: f64) -> Self {
        FaultPlan {
            drop_prob,
            ..FaultPlan::quiet(seed)
        }
    }

    /// Adds a reboot to the plan (builder style).
    pub fn with_reboot(mut self, at: Nanos, switch: SwitchId, outage_ns: Nanos) -> Self {
        self.reboots.push(RebootEvent {
            at,
            switch,
            outage_ns,
        });
        self
    }

    /// Adds a clock-desync spike to the plan (builder style).
    pub fn with_spike(mut self, at: Nanos, switch: SwitchId, offset_ns: Nanos) -> Self {
        self.spikes.push(ClockSpike {
            at,
            switch,
            offset_ns,
        });
        self
    }

    /// True when no fault class can ever fire.
    pub fn is_quiet(&self) -> bool {
        self.drop_prob <= 0.0
            && self.dup_prob <= 0.0
            && self.delay_prob <= 0.0
            && self.straggler_prob <= 0.0
            && self.spikes.is_empty()
            && self.reboots.is_empty()
    }
}

/// What happened to one control-plane message on the wire: each entry
/// is an extra delay (ns, on top of the base channel delay) for one
/// delivered copy. Empty = the message was lost.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChannelFate {
    /// Extra delay per delivered copy (ns).
    pub deliveries: Vec<Nanos>,
}

impl ChannelFate {
    /// The message was lost outright.
    pub fn lost(&self) -> bool {
        self.deliveries.is_empty()
    }
}

/// Executes a [`FaultPlan`] with its own seeded RNG.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: StdRng,
    stragglers: HashMap<SwitchId, Nanos>,
}

impl FaultInjector {
    /// An injector for `plan`, seeded from `plan.seed`.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = StdRng::seed_from_u64(plan.seed);
        FaultInjector {
            plan,
            rng,
            stragglers: HashMap::new(),
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decides the fate of one control-plane message. Draws randomness
    /// only for fault classes with a non-zero rate.
    pub fn channel_fate(&mut self) -> ChannelFate {
        if self.plan.drop_prob > 0.0 && self.rng.gen::<f64>() < self.plan.drop_prob {
            return ChannelFate {
                deliveries: Vec::new(),
            };
        }
        let mut deliveries = vec![self.extra_delay()];
        if self.plan.dup_prob > 0.0 && self.rng.gen::<f64>() < self.plan.dup_prob {
            deliveries.push(self.extra_delay());
        }
        ChannelFate { deliveries }
    }

    fn extra_delay(&mut self) -> Nanos {
        if self.plan.delay_prob > 0.0 && self.rng.gen::<f64>() < self.plan.delay_prob {
            let (lo, hi) = self.plan.delay_range_ns;
            if hi > lo {
                return self.rng.gen_range(lo..=hi);
            }
            return lo.max(0);
        }
        0
    }

    /// Extra install latency for a rule apply on `switch`. The
    /// straggler decision is made once per switch (first install) and
    /// cached; zero-rate plans never draw.
    pub fn install_extra(&mut self, switch: SwitchId) -> Nanos {
        if self.plan.straggler_prob <= 0.0 {
            return 0;
        }
        if let Some(&extra) = self.stragglers.get(&switch) {
            return extra;
        }
        let extra = if self.rng.gen::<f64>() < self.plan.straggler_prob {
            let (lo, hi) = self.plan.straggler_extra_ns;
            if hi > lo {
                self.rng.gen_range(lo..=hi)
            } else {
                lo.max(0)
            }
        } else {
            0
        };
        self.stragglers.insert(switch, extra);
        extra
    }

    /// Scheduled reboots, in plan order.
    pub fn reboots(&self) -> &[RebootEvent] {
        &self.plan.reboots
    }

    /// Scheduled clock spikes, in plan order.
    pub fn spikes(&self) -> &[ClockSpike] {
        &self.plan.spikes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_never_draws_and_delivers_exactly_once() {
        let mut inj = FaultInjector::new(FaultPlan::quiet(7));
        for _ in 0..100 {
            let fate = inj.channel_fate();
            assert_eq!(fate.deliveries, vec![0]);
            assert!(!fate.lost());
        }
        assert_eq!(inj.install_extra(SwitchId(3)), 0);
        // The RNG was never touched: a fresh injector off the same
        // seed produces an identical stream afterwards.
        let mut probe_a = StdRng::seed_from_u64(7);
        assert_eq!(inj.rng.gen::<u64>(), probe_a.gen::<u64>());
    }

    #[test]
    fn drop_rate_one_loses_everything() {
        let mut inj = FaultInjector::new(FaultPlan::lossy(1, 1.0));
        for _ in 0..50 {
            assert!(inj.channel_fate().lost());
        }
    }

    #[test]
    fn duplication_delivers_twice() {
        let plan = FaultPlan {
            dup_prob: 1.0,
            ..FaultPlan::quiet(2)
        };
        let mut inj = FaultInjector::new(plan);
        let fate = inj.channel_fate();
        assert_eq!(fate.deliveries.len(), 2);
    }

    #[test]
    fn delays_fall_in_range() {
        let plan = FaultPlan {
            delay_prob: 1.0,
            delay_range_ns: (1_000, 2_000),
            ..FaultPlan::quiet(3)
        };
        let mut inj = FaultInjector::new(plan);
        for _ in 0..50 {
            let fate = inj.channel_fate();
            assert_eq!(fate.deliveries.len(), 1);
            let d = fate.deliveries[0];
            assert!((1_000..=2_000).contains(&d), "delay {d}");
        }
    }

    #[test]
    fn straggler_decision_sticks_to_its_switch() {
        let plan = FaultPlan {
            straggler_prob: 1.0,
            straggler_extra_ns: (5_000, 9_000),
            ..FaultPlan::quiet(4)
        };
        let mut inj = FaultInjector::new(plan);
        let first = inj.install_extra(SwitchId(0));
        assert!((5_000..=9_000).contains(&first));
        for _ in 0..10 {
            assert_eq!(inj.install_extra(SwitchId(0)), first);
        }
        // Other switches draw independently but are also sticky.
        let other = inj.install_extra(SwitchId(1));
        assert_eq!(inj.install_extra(SwitchId(1)), other);
    }

    #[test]
    fn same_seed_same_fates() {
        let plan = FaultPlan {
            drop_prob: 0.3,
            dup_prob: 0.2,
            delay_prob: 0.5,
            delay_range_ns: (100, 200),
            ..FaultPlan::quiet(99)
        };
        let mut a = FaultInjector::new(plan.clone());
        let mut b = FaultInjector::new(plan);
        for _ in 0..200 {
            assert_eq!(a.channel_fate(), b.channel_fate());
        }
    }

    #[test]
    fn builders_schedule_events() {
        let plan = FaultPlan::quiet(0)
            .with_reboot(1_000, SwitchId(2), 500)
            .with_spike(2_000, SwitchId(1), -300);
        assert!(!plan.is_quiet());
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.reboots().len(), 1);
        assert_eq!(inj.spikes().len(), 1);
        assert_eq!(inj.reboots()[0].switch, SwitchId(2));
        assert_eq!(inj.spikes()[0].offset_ns, -300);
    }
}
