//! Order statistics for latency samples and run-to-run spreads.

/// Nearest-rank quantile of an ascending slice (`q` in 0..=1).
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted nanosecond samples, in microseconds.
pub fn p50_us(samples: &mut [u64]) -> f64 {
    samples.sort_unstable();
    quantile_sorted(samples, 0.5) as f64 / 1e3
}

/// Quantile `q` (0..=1) of a few floating-point values (windows, set-ups,
/// repeats), interpolated linearly between the two closest ranks; it never
/// leaves the range of the values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let at = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (low, part) = (at.floor() as usize, at.fract());
    let high = (low + 1).min(v.len() - 1);
    v[low] + (v[high] - v[low]) * part
}

/// The mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the default "exclusive" method) — the rule the acceptance
/// driver applies to ten runs, reproduced so `--repeat` judges the same way.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let (n, len) = (4i64, v.len() as i64);
    let cut = |i: i64| {
        let j = (i * (len + 1) / n).clamp(1, len - 1);
        let delta = i * (len + 1) - j * n;
        (v[(j - 1) as usize] * (n - delta) as f64 + v[j as usize] * delta as f64) / n as f64
    };
    (cut(1), cut(3))
}

/// Run-to-run spread as a share of the median: the interquartile distance
/// of four or more values, the whole range of fewer (the quartile rule
/// extrapolates beyond two or three values, to 1.5 times their range).
pub fn spread(values: &[f64]) -> f64 {
    let (low, high) = if values.len() >= 4 {
        quartiles(values)
    } else {
        range(values)
    };
    (high - low) / median(values)
}

/// Smallest and largest of the values.
pub fn range(values: &[f64]) -> (f64, f64) {
    let low = values.iter().copied().fold(f64::INFINITY, f64::min);
    let high = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (low, high)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&v, 0.0), 1);
        assert_eq!(quantile_sorted(&[7], 0.99), 7);
    }

    #[test]
    fn p50_sorts_and_scales() {
        let mut v = vec![3_000, 1_000, 2_000];
        assert_eq!(p50_us(&mut v), 2.0);
    }

    #[test]
    fn quantiles_of_windows_interpolate_and_stay_in_range() {
        let windows = [40.0, 10.0, 30.0, 20.0, 50.0];
        assert_eq!(quantile(&windows, 0.25), 20.0);
        assert_eq!(quantile(&windows, 0.75), 40.0);
        assert_eq!(quantile(&windows, 0.9), 46.0);
        assert_eq!(quantile(&[10.0, 12.0], 0.75), 11.5);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
        // One slow window in five moves the fast-side quartile not at all.
        assert_eq!(quantile(&[100.0, 101.0, 99.0, 100.0, 55.0], 0.75), 100.0);
    }

    #[test]
    fn median_of_windows() {
        // Four windows: the outlier window moves neither middle value.
        assert_eq!(median(&[10.0, 12.0, 11.0, 90.0]), 11.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 12], n=4) == [9.5, 11.0, 12.5]
        assert_eq!(quartiles(&[12.0, 10.0]), (9.5, 12.5));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[12.0, 10.0]), 2.0 / 11.0);
    }
}
