//! Order statistics for latency samples.
//!
//! A timing is reported as its median and the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it; a percentile
//! resting on fewer samples is one slow job, not a tail.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index (0-based) of percentile `p` in `n` sorted samples.
pub fn rank(p: f64, n: usize) -> usize {
    assert!(n > 0, "percentile of no samples");
    // Multiply before dividing: `p * n` is exact for the percentiles
    // used here, while `p / 100.0` is not (0.9 * 100 may exceed 90).
    let rank = (p * n as f64 / 100.0).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(p: f64, n: usize) -> usize {
    n - 1 - rank(p, n)
}

/// Whether `n` samples support reporting percentile `p`.
pub fn supports(p: f64, n: usize) -> bool {
    n > 0 && beyond(p, n) >= MIN_BEYOND
}

/// Nearest-rank percentile `p` of `sorted` (ascending).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(p, sorted.len())]
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_one_hundred_samples() {
        assert!(supports(90.0, 100));
        assert_eq!(beyond(90.0, 100), 10);
        assert!(!supports(90.0, 99));
        assert_eq!(beyond(90.0, 99), 9);
        assert!(supports(50.0, 20));
        assert!(!supports(50.0, 19));
        assert!(!supports(99.0, 999));
        assert!(supports(99.0, 1000));
        assert!(!supports(90.0, 0));
    }

    #[test]
    fn highest_supported_percentile_grows_with_the_sample() {
        let highest =
            |n: usize| [50.0, 75.0, 90.0, 95.0, 99.0, 99.9].into_iter().rfind(|&p| supports(p, n));
        assert_eq!(highest(15), None);
        assert_eq!(highest(40), Some(75.0));
        assert_eq!(highest(140), Some(90.0));
        assert_eq!(highest(200), Some(95.0));
        assert_eq!(highest(50_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentiles_and_medians() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 90.0), 90.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
