//! Sample statistics: the low percentile the gated timings report,
//! medians, quartiles (computed the way Python's
//! `statistics.quantiles(values, n=4)` computes them) and the tail rule
//! that reports a percentile only when at least ten samples lie beyond it.

/// Samples needed beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank 10th percentile: the smallest value with at least a tenth
/// of the sample at or below it, so the minimum below ten samples.
///
/// Other tenants of a shared host only ever add time to a sample, and
/// their load swings from second to second; the low end of a run's samples
/// is the program's own cost, which a code change controls.
pub fn low(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let rank = (v.len() as f64 / 10.0).ceil() as usize;
    v.get(rank.max(1) - 1).copied()
}

/// Median; `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`; `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// The highest of p50/p90/p99/p99.9 with at least [`MIN_BEYOND`]
/// samples above it, as `(percentile, nearest-rank value)`.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    [99.9, 99.0, 90.0, 50.0].into_iter().find_map(|p| {
        // Nearest rank: the smallest value with at least p% of the sample
        // at or below it.
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        (rank >= 1 && n - rank >= MIN_BEYOND).then(|| (p, v[rank - 1]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_is_nearest_rank_p10() {
        assert_eq!(low(&[]), None);
        assert_eq!(low(&[3.0, 1.0, 2.0]), Some(1.0));
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(low(&v), Some(1.0));
        let v: Vec<f64> = (1..=50).rev().map(f64::from).collect();
        assert_eq!(low(&v), Some(5.0));
        // One quiet outlier among many samples does not set the value.
        let mut v = vec![10.0; 30];
        v[7] = 1.0;
        assert_eq!(low(&v), Some(10.0));
    }

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), Some(0.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 19 samples: p50 has 9 beyond it, so nothing is reportable.
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        // 20 samples: p50 has exactly 10 beyond it.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), Some((50.0, 10.0)));
        // 100 samples: p90 (value 90) has 10 beyond; p99 would have 1.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        // 1000 samples reach p99 but not p99.9.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 990.0)));
    }
}
