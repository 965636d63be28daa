//! Order statistics used by every workload: medians of repeated
//! measurements and the tail-percentile rule for latency samples.

/// Percentiles tried, highest first, by [`tail_percentile`].
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The median of `values` (mean of the two middle values for an even
/// count); `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `pct`-th percentile of an ascending slice.
fn nearest_rank(sorted: &[f64], pct: f64) -> (usize, f64) {
    let n = sorted.len();
    // The epsilon absorbs binary rounding of `pct` (99.9 is inexact), so
    // 99.9% of 10 000 samples ranks 9990, not 9991.
    let rank = (pct * n as f64 / 100.0 - 1e-9).ceil().max(1.0) as usize;
    let idx = rank.min(n) - 1;
    (n - 1 - idx, sorted[idx])
}

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, as `(percentile, value)`.
/// `None` when even the median has fewer than ten samples beyond it.
///
/// With 1000 samples this is the p99 (ten samples above it); with 999 it
/// falls back to the p95, because a p99 resting on nine samples says
/// nothing about the tail.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return None;
    }
    TAIL_LADDER.iter().find_map(|&pct| {
        let (beyond, value) = nearest_rank(&sorted, pct);
        (beyond >= TAIL_MIN_BEYOND).then_some((pct, value))
    })
}

/// Nearest-rank percentile of `values` (unsorted), `0.0` when empty.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, pct).1
}

/// `num / den`, or `0.0` when `den` is zero (a layer the workload does
/// not exercise).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand), Some((99.0, 990.0)));
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        let (pct, value) = tail_percentile(&short).expect("p95 has 49 beyond");
        assert_eq!(pct, 95.0);
        assert_eq!(value, 950.0);
    }

    #[test]
    fn p999_needs_ten_thousand_samples() {
        let big: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail_percentile(&big), Some((99.9, 9990.0)));
    }

    #[test]
    fn too_few_samples_have_no_tail() {
        let few: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&few), Some((50.0, 10.0)));
        let fewer: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail_percentile(&fewer), None);
        assert_eq!(tail_percentile(&[]), None);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        v.reverse();
        assert_eq!(tail_percentile(&v), Some((99.0, 990.0)));
    }
}
