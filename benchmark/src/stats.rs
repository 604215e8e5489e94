//! Order statistics over latency samples.

/// The value at quantile `q` in `[0, 1]` of `sorted` (nearest rank, so the
/// result is always a sample that was measured). 0 for an empty slice.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted floating-point samples (mean of the middle pair for an
/// even count). 0 for an empty slice.
pub fn median_f64(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The tail quantile a sample of `n` supports: the highest one, at most
/// `cap`, that still has at least ten samples beyond it. With fewer than
/// twenty samples nothing above the median qualifies, so the median is
/// returned.
pub fn tail_quantile(n: usize, cap: f64) -> f64 {
    if n < 20 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).min(cap)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method) gives
/// them; the driver computes spreads the same way. Needs two values or more.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |i: usize| {
        // Cut point i of 4 by the exclusive method: position i*(n+1)/4.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta.clamp(0.0, 1.0)
    };
    Some((at(1), at(2), at(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        // 1 000 samples is the smallest count that supports a p99.
        assert_eq!(tail_quantile(1_000, 0.99), 0.99);
        assert_eq!(tail_quantile(50_000, 0.99), 0.99);
        assert_eq!(tail_quantile(50_000, 0.999), 0.999);
        assert_eq!(tail_quantile(5_000, 0.999), 1.0 - 10.0 / 5_000.0);
        // Below that the reported percentile falls so ten stay beyond it.
        let q = tail_quantile(500, 0.99);
        assert_eq!(q, 0.98);
        let beyond = 500 - (q * 500.0).ceil() as usize;
        assert!(beyond >= 10, "{beyond} samples beyond p{q}");
        assert_eq!(tail_quantile(19, 0.99), 0.5);
    }

    #[test]
    fn quantiles_are_measured_samples() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&sorted, 0.5), 50);
        assert_eq!(quantile_sorted(&sorted, 0.99), 99);
        assert_eq!(quantile_sorted(&sorted, 1.0), 100);
        assert_eq!(quantile_sorted(&sorted, 0.0), 1);
        assert_eq!(quantile_sorted(&[], 0.5), 0);
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
