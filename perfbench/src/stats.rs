//! Order statistics over timing samples.

/// The nearest-rank `p`-quantile (`p` in `(0, 1]`) of `samples`: the
/// smallest sample with at least a share `p` of all samples at or
/// below it.
///
/// # Panics
///
/// Panics on an empty sample set or a `p` outside `(0, 1]`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 1.0, "percentile rank {p} outside (0, 1]");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median: the middle sample, or the mean of the two middle ones.
///
/// # Panics
///
/// Panics on an empty sample set.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.001), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // 15 samples: p99 is the largest, p50 the 8th smallest.
        let w: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(percentile(&w, 0.99), 15.0);
        assert_eq!(percentile(&w, 0.5), 8.0);
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_percentile_panics() {
        percentile(&[], 0.5);
    }
}
