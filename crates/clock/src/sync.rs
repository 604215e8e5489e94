//! Two-way time transfer (PTP / ReversePTP flavour).
//!
//! The controller (grandmaster) and a switch exchange timestamped
//! messages over the control channel:
//!
//! ```text
//!   master sends   at true t1   (master stamp: t1)
//!   switch receives at true t1+δ₁ (local stamp: t2)
//!   switch sends   at true t3'  (local stamp: t3)
//!   master receives at true t3'+δ₂ (master stamp: t4)
//! ```
//!
//! Under symmetric delays the classic estimator
//! `offset ≈ ((t2 − t1) − (t4 − t3)) / 2` recovers the switch's clock
//! error exactly; channel jitter makes δ₁ ≠ δ₂ and leaves a residual
//! error of at most half the jitter spread per round. Repeated rounds
//! with a min-filter (taking the exchange with the smallest round-trip
//! time, as hardware PTP stacks do) push the residual toward the
//! microsecond regime Time4 reports.

use crate::clock::{HardwareClock, Nanos};
use rand::rngs::StdRng;
use rand::Rng;

/// Sync-protocol parameters.
#[derive(Clone, Copy, Debug)]
pub struct SyncConfig {
    /// Base one-way control-channel delay (ns).
    pub base_delay: Nanos,
    /// Maximum extra jitter per direction (ns); each leg draws
    /// uniformly from `[0, jitter]`.
    pub jitter: Nanos,
    /// Number of exchange rounds; the best (smallest-RTT) round wins.
    pub rounds: usize,
    /// Spacing between rounds in true time (ns).
    pub round_spacing: Nanos,
}

impl Default for SyncConfig {
    fn default() -> Self {
        SyncConfig {
            base_delay: 10_000, // 10 µs one-way
            jitter: 2_000,      // ±2 µs
            rounds: 8,
            round_spacing: 1_000_000, // 1 ms
        }
    }
}

/// Result of a synchronization run.
#[derive(Clone, Copy, Debug)]
pub struct SyncOutcome {
    /// The offset estimate that was applied to the clock (ns).
    pub applied_estimate: Nanos,
    /// Residual clock error right after correction (ns).
    pub residual_error: Nanos,
    /// Round-trip time of the winning exchange (ns).
    pub best_rtt: Nanos,
}

/// Halves `x` with floor division. Rust's `/ 2` truncates toward
/// zero, which biases the estimator asymmetrically for fast vs slow
/// clocks: the numerator is `2·off + j` (with `j = δ₁ − δ₂` the jitter
/// difference), so truncation rounds fast clocks (`off > 0`) down but
/// slow clocks (`off < 0`) up whenever `j` is odd (3/2 → 1 but
/// −3/2 → −1), skewing residuals by up to 1 ns per round depending on
/// the *sign* of the clock error. Floor division makes the estimator
/// error exactly `floor(j/2)` for either sign.
fn half_floor(x: Nanos) -> Nanos {
    x.div_euclid(2)
}

/// Runs `cfg.rounds` two-way exchanges starting at true time
/// `start`, applies the best round's offset estimate to `clock`, and
/// reports the residual error.
// chronus-lint: allow(dead-pub) — read by tests/fault_tolerance.rs
pub fn two_way_sync(
    clock: &mut HardwareClock,
    start: Nanos,
    cfg: SyncConfig,
    rng: &mut StdRng,
) -> SyncOutcome {
    assert!(cfg.rounds > 0, "at least one exchange round");
    let mut span = chronus_trace::span!("clock.sync", rounds = cfg.rounds as u64).entered();
    let mut best: Option<(Nanos, Nanos)> = None; // (rtt, estimate)
    for round in 0..cfg.rounds {
        let t1 = start + round as Nanos * cfg.round_spacing;
        let d1 = cfg.base_delay + rng.gen_range(0..=cfg.jitter.max(0)) as Nanos;
        let d2 = cfg.base_delay + rng.gen_range(0..=cfg.jitter.max(0)) as Nanos;
        let t2_true = t1 + d1;
        let t2 = clock.read(t2_true); // switch local stamp on receive
        let t3_true = t2_true + 1_000; // 1 µs turnaround
        let t3 = clock.read(t3_true); // switch local stamp on send
        let t4 = t3_true + d2; // master stamp on receive (true time)

        let estimate = half_floor((t2 - t1) - (t4 - t3));
        let rtt = (t4 - t1) - (t3 - t2);
        let better = best.is_none_or(|(b, _)| rtt < b);
        if better {
            best = Some((rtt, estimate));
        }
    }
    // `cfg.rounds` is validated non-zero above, so a best exists.
    #[allow(clippy::expect_used)]
    let (best_rtt, estimate) = best.expect("rounds > 0");
    clock.correct_offset(estimate);
    let after = start + cfg.rounds as Nanos * cfg.round_spacing;
    if span.is_recording() {
        span.record("best_rtt_ns", best_rtt as i64);
        span.record("residual_ns", clock.error_at(after) as i64);
    }
    SyncOutcome {
        applied_estimate: estimate,
        residual_error: clock.error_at(after),
        best_rtt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn symmetric_channel_syncs_exactly() {
        let mut clock = HardwareClock::new(123_456, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = SyncConfig {
            jitter: 0,
            ..Default::default()
        };
        let out = two_way_sync(&mut clock, 0, cfg, &mut rng);
        assert_eq!(out.residual_error, 0, "no jitter, no drift ⇒ exact");
        assert_eq!(out.applied_estimate, 123_456);
    }

    #[test]
    fn jitter_bounds_residual_error() {
        let cfg = SyncConfig::default();
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut clock = HardwareClock::new(987_654, 0);
            let out = two_way_sync(&mut clock, 0, cfg, &mut rng);
            // Estimator error is at most half the jitter asymmetry.
            assert!(
                out.residual_error.abs() <= cfg.jitter / 2 + 1,
                "seed {seed}: residual {} ns",
                out.residual_error
            );
            assert!(out.best_rtt >= 2 * cfg.base_delay);
        }
    }

    #[test]
    fn more_rounds_do_not_hurt() {
        // Min-filtering over more rounds can only pick a better (or
        // equal) exchange in distribution; check a single seed pair.
        let mut rng1 = StdRng::seed_from_u64(42);
        let mut rng2 = StdRng::seed_from_u64(42);
        let mut c1 = HardwareClock::new(50_000, 0);
        let mut c8 = HardwareClock::new(50_000, 0);
        let one = two_way_sync(
            &mut c1,
            0,
            SyncConfig {
                rounds: 1,
                ..Default::default()
            },
            &mut rng1,
        );
        let eight = two_way_sync(
            &mut c8,
            0,
            SyncConfig {
                rounds: 8,
                ..Default::default()
            },
            &mut rng2,
        );
        assert!(eight.best_rtt <= one.best_rtt);
    }

    #[test]
    fn estimator_is_symmetric_for_fast_and_slow_clocks() {
        // Regression: truncating division rounded the estimator toward
        // zero, i.e. *down* for fast clocks but *up* for slow ones, so
        // two clocks off by ±off under identical jitter draws ended up
        // with different residuals whenever the winning round's jitter
        // difference δ₁ − δ₂ was odd. Floor division makes the
        // estimator error floor(j/2) regardless of the offset's sign.
        let off: Nanos = 777_777;
        let cfg = SyncConfig {
            jitter: 3, // odd jitter differences exercise the rounding
            ..Default::default()
        };
        for seed in 0..40 {
            let mut fast = HardwareClock::new(off, 0);
            let mut slow = HardwareClock::new(-off, 0);
            let mut rng_f = StdRng::seed_from_u64(seed);
            let mut rng_s = StdRng::seed_from_u64(seed);
            let out_f = two_way_sync(&mut fast, 0, cfg, &mut rng_f);
            let out_s = two_way_sync(&mut slow, 0, cfg, &mut rng_s);
            // Same jitter draws ⇒ same estimator error for both signs.
            let err_f = out_f.applied_estimate - off;
            let err_s = out_s.applied_estimate + off;
            assert_eq!(err_f, err_s, "seed {seed}: ±offset estimator bias");
            assert_eq!(
                out_f.residual_error, out_s.residual_error,
                "seed {seed}: ±offset residual asymmetry"
            );
        }
    }

    #[test]
    fn halving_rounds_the_same_direction_for_both_signs() {
        // The exact rule the estimator relies on: floor, not
        // truncation (which maps −3 → −1 but 3 → 1).
        assert_eq!(half_floor(3), 1);
        assert_eq!(half_floor(-3), -2);
        assert_eq!(half_floor(4), 2);
        assert_eq!(half_floor(-4), -2);
        assert_eq!(half_floor(0), 0);
        // Shifting the numerator by a whole offset shifts the estimate
        // by exactly that offset — the property truncation violates.
        for j in -7i128..=7 {
            assert_eq!(half_floor(2 * 1_000 + j), 1_000 + half_floor(j));
            assert_eq!(half_floor(-2 * 1_000 + j), -1_000 + half_floor(j));
        }
    }

    #[test]
    fn drifting_clock_keeps_small_error_right_after_sync() {
        let mut clock = HardwareClock::new(1_000_000, 10_000); // 10 ppm
        let mut rng = StdRng::seed_from_u64(3);
        let out = two_way_sync(&mut clock, 0, SyncConfig::default(), &mut rng);
        // Residual = jitter effect + drift accumulated over the sync
        // window (8 ms × 10 ppm = 80 ns).
        assert!(
            out.residual_error.abs() < 10_000,
            "residual {} ns",
            out.residual_error
        );
    }
}
