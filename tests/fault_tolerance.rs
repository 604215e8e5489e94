//! Fault tolerance end to end: the fault layer at rate zero is
//! observationally invisible, lossy control channels recover through
//! retransmission, reboots recover through re-arms, dead channels roll
//! back to two-phase, and every recovery stays inside the slack window
//! certified by `chronus-verify`.

use chronus::clock::{two_way_sync, HardwareClock, Nanos, SyncConfig};
use chronus::core::greedy::greedy_schedule;
use chronus::emu::{EmuConfig, EmuReport, Emulator, UpdateDriver};
use chronus::faults::{FaultPlan, ReliableConfig, SlackBudget};
use chronus::net::motivating_example;
use chronus::net::{InstanceGenerator, InstanceGeneratorConfig, SwitchId, UpdateInstance};
use chronus::timenet::Schedule;
use chronus::verify::slack_certificate;
use chronus_bench::fig6::fig6_instance;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn short_config() -> EmuConfig {
    EmuConfig {
        run_for: 8_000_000_000,
        update_at: 2_000_000_000,
        ..EmuConfig::default()
    }
}

/// Canonical view for the differential test: sorted firing instants,
/// per-flow delivery, and the three loss counters plus peak rules.
type CanonicalReport = (Vec<(Nanos, SwitchId)>, Vec<u64>, u64, u64, u64, usize);

/// The report fields both code paths must agree on byte for byte.
/// The fault-only additions (`faults`, `rolled_back`,
/// `timed_tasks_pending`) are excluded by construction: the legacy
/// path never sets them.
fn canonical(report: &EmuReport) -> CanonicalReport {
    let mut applied = report.applied_updates.clone();
    applied.sort_unstable();
    (
        applied,
        report.delivered_bytes.clone(),
        report.buffer_drops,
        report.ttl_drops,
        report.table_misses,
        report.peak_rule_count,
    )
}

fn run_legacy(inst: &UpdateInstance, schedule: &Schedule, seed: u64) -> EmuReport {
    let mut emu = Emulator::new(inst, short_config(), seed);
    emu.install_driver(UpdateDriver::chronus(schedule.clone(), inst));
    emu.run()
}

fn run_with_faults(
    inst: &UpdateInstance,
    schedule: &Schedule,
    seed: u64,
    plan: FaultPlan,
    reliable: ReliableConfig,
    slack: SlackBudget,
) -> EmuReport {
    let mut emu = Emulator::new(inst, short_config(), seed);
    emu.install_faults(plan, reliable, slack);
    emu.install_driver(UpdateDriver::chronus(schedule.clone(), inst));
    emu.run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Differential property: installing a zero-rate `FaultPlan` turns
    /// on the whole reliable-delivery machinery (Arm envelopes, acks,
    /// trigger executors, watchdog checks) yet the emulation's
    /// observable outcome — firing instants, traffic, loss accounting
    /// — is byte-identical to the legacy fault-free path.
    #[test]
    fn quiet_fault_layer_is_byte_identical_to_the_fault_free_path(
        switches in 6usize..14,
        inst_seed in 0u64..5_000,
        emu_seed in 0u64..1_000,
    ) {
        let cfg = InstanceGeneratorConfig::paper(switches, inst_seed);
        let Some(inst) = InstanceGenerator::new(cfg).generate() else { return Ok(()); };
        let Ok(out) = greedy_schedule(&inst) else { return Ok(()); };

        let baseline = run_legacy(&inst, &out.schedule, emu_seed);
        let quiet = run_with_faults(
            &inst,
            &out.schedule,
            emu_seed,
            FaultPlan::quiet(emu_seed),
            ReliableConfig::default(),
            SlackBudget::zero(),
        );

        prop_assert_eq!(canonical(&baseline), canonical(&quiet));
        prop_assert_eq!(&baseline.bandwidth, &quiet.bandwidth);
        // The fault layer itself confirms it never intervened.
        let f = quiet.faults.expect("faults were installed");
        prop_assert_eq!(f.drops + f.dups + f.delays + f.retransmits + f.exhausted, 0);
        prop_assert_eq!(f.rearms + f.rollbacks, 0);
        prop_assert_eq!(quiet.timed_tasks_pending, 0);
        prop_assert!(!quiet.rolled_back);
        prop_assert!(baseline.faults.is_none(), "legacy path reports no fault layer");
    }
}

/// The fault_sweep gate at test scale: 200 seeds of up to 20% message
/// loss plus one trigger-wiping reboot per run, defended by reliable
/// delivery under a real slack certificate. Every run must end
/// certified and every firing must stay inside the certified ±Δ.
#[test]
fn certified_sweep_over_200_seeds_ends_every_run_certified() {
    let inst = motivating_example();
    let schedule = greedy_schedule(&inst)
        .expect("motivating example is greedy-schedulable")
        .schedule
        .dilated(2);
    let (_, cert) = slack_certificate(&inst, &schedule).expect("dilated schedule certifies");
    assert!(cert.slack_steps >= 1, "dilation buys slack: {cert}");
    let config = short_config();
    let delta = cert.delta_ns(config.step_ns);

    for seed in 0..200u64 {
        let drop_prob = (seed % 21) as f64 / 100.0;
        let reboot_switch = SwitchId((seed % 4) as u32);
        let reboot_at = 1_000_000_000 + (seed % 5) as Nanos * 100_000_000;
        let outage = 200_000_000 + (seed % 3) as Nanos * 100_000_000;
        let plan = FaultPlan::lossy(seed, drop_prob).with_reboot(reboot_at, reboot_switch, outage);

        let mut emu = Emulator::new(&inst, config, seed);
        emu.install_faults_certified(plan, ReliableConfig::default(), &cert);
        emu.install_driver(UpdateDriver::chronus(schedule.clone(), &inst));
        let report = emu.run();

        let f = report.faults.expect("faults were installed");
        assert!(
            report.clean() && !report.rolled_back && report.timed_tasks_pending == 0,
            "seed {seed} (drop {drop_prob:.2}): pending {}, rolled_back {}, \
             ttl {}, misses {}, buffer {}\n  {f}",
            report.timed_tasks_pending,
            report.rolled_back,
            report.ttl_drops,
            report.table_misses,
            report.buffer_drops,
        );
        assert!(
            (f.max_fire_deviation_ns as i128) <= delta,
            "seed {seed}: deviation {} ns outside certified ±{delta} ns",
            f.max_fire_deviation_ns
        );
    }
}

/// The certificate's promise is stated against the *measured* post-sync
/// residual: after a `two_way_sync` round, the remaining clock error
/// must sit inside the certified ±Δ — and an emulated clock
/// perturbation of exactly that magnitude must leave the deployment
/// clean.
#[test]
fn certified_slack_covers_the_measured_sync_residual() {
    let inst = motivating_example();
    let schedule = greedy_schedule(&inst)
        .expect("feasible")
        .schedule
        .dilated(2);
    let (_, cert) = slack_certificate(&inst, &schedule).expect("dilated schedule certifies");
    let config = short_config();
    let delta = cert.delta_ns(config.step_ns);
    assert!(delta > 0, "{cert}");

    for seed in 0..20u64 {
        // A switch clock with realistic error, synced once over a
        // jittery channel: the residual is what deployment must absorb.
        let mut clock = HardwareClock::new(50_000 - (seed as Nanos) * 5_000, 10_000);
        let mut rng = StdRng::seed_from_u64(seed);
        let out = two_way_sync(&mut clock, 0, SyncConfig::default(), &mut rng);
        let residual = out.residual_error;
        assert!(
            cert.covers_residual(residual, config.step_ns),
            "seed {seed}: residual {residual} ns outside certified ±{delta} ns"
        );

        // Re-inject the measured residual as a clock-desync spike on a
        // scheduled switch: the certificate says the run stays clean.
        let spike = residual.max(1);
        let plan = FaultPlan::quiet(seed).with_spike(1_500_000_000, SwitchId(1), spike);
        let mut emu = Emulator::new(&inst, config, seed);
        emu.install_faults_certified(plan, ReliableConfig::default(), &cert);
        emu.install_driver(UpdateDriver::chronus(schedule.clone(), &inst));
        let report = emu.run();
        let f = report.faults.expect("faults were installed");
        assert!(
            report.clean(),
            "seed {seed}: spike of {spike} ns broke the plan"
        );
        assert_eq!(report.timed_tasks_pending, 0);
        assert!(
            (f.max_fire_deviation_ns as i128) <= delta,
            "seed {seed}: deviation {} ns outside certified ±{delta} ns",
            f.max_fire_deviation_ns
        );
    }
}

/// A switch reboot during the distribution window wipes its armed
/// triggers; recovery re-arms them when the agent comes back, and the
/// migration still completes on time — on the paper's Fig. 6 topology,
/// not just the motivating example.
#[test]
fn reboot_during_distribution_recovers_on_fig6() {
    let inst = fig6_instance();
    let schedule = greedy_schedule(&inst).expect("feasible").schedule;
    let expected = inst.flow().switches_to_update().len();
    // Reboot the first scheduled switch after Arms land (lead time is
    // 1 s before the 2 s window) but before any trigger fires.
    let victim = schedule
        .iter()
        .map(|(_, s, _)| s)
        .min()
        .expect("non-empty schedule");
    let plan = FaultPlan::quiet(7).with_reboot(1_200_000_000, victim, 300_000_000);
    let report = run_with_faults(
        &inst,
        &schedule,
        7,
        plan,
        ReliableConfig::default(),
        SlackBudget::new(99_999_999),
    );
    let f = report.faults.expect("faults were installed");
    assert_eq!(f.reboots, 1);
    assert!(f.triggers_lost >= 1, "the reboot wiped armed triggers");
    assert!(
        f.triggers_armed as usize > expected,
        "recovery re-armed the wiped triggers"
    );
    assert_eq!(report.applied_updates.len(), expected);
    assert_eq!(report.timed_tasks_pending, 0);
    assert!(!report.rolled_back);
    assert!(report.clean(), "recovered run stays consistent");
}

/// When the control channel is dead and retries exhaust, the watchdog
/// must abandon the timed plan — exactly once — and the two-phase
/// rollback path must still complete the migration consistently.
#[test]
fn dead_channel_rolls_back_once_and_two_phase_completes() {
    let inst = fig6_instance();
    let schedule = greedy_schedule(&inst).expect("feasible").schedule;
    let timed = inst.flow().switches_to_update().len();
    let reliable = ReliableConfig {
        max_retries: 2,
        ..ReliableConfig::default()
    };
    let report = run_with_faults(
        &inst,
        &schedule,
        13,
        FaultPlan::lossy(13, 1.0),
        reliable,
        SlackBudget::zero(),
    );
    let f = report.faults.expect("faults were installed");
    assert!(report.rolled_back, "dead channel forces rollback");
    assert_eq!(f.rollbacks, 1, "rollback is idempotent");
    assert!(f.exhausted > 0, "retries exhausted on the dead channel");
    assert_eq!(
        report.timed_tasks_pending, timed,
        "no timed task ever applied"
    );
    // Two-phase re-issues the update out-of-band: the migration still
    // lands, and without forwarding loops.
    assert!(
        report.applied_updates.len() > timed,
        "two-phase rollback installed the update (tagged rules + flips)"
    );
    assert_eq!(report.ttl_drops, 0, "rollback path stays loop-free");
}
