//! Aggregate reporting helpers: geometric means, MPKI, normalisation.
//!
//! The paper reports every IPC figure as a per-benchmark ratio against a
//! perfect-MDP baseline, summarised by geometric mean (§VI-A), and predictor
//! accuracy as mispredictions per kilo-instruction (MPKI).

/// Geometric mean of a sequence of positive values.
///
/// Returns `None` for an empty input or if any value is non-positive (a
/// non-positive IPC ratio indicates a broken run and should not be silently
/// folded into a summary).
///
/// # Examples
///
/// ```
/// use mascot_stats::summary::geometric_mean;
///
/// let g = geometric_mean([1.0, 4.0]).unwrap();
/// assert!((g - 2.0).abs() < 1e-12);
/// assert!(geometric_mean([]).is_none());
/// ```
pub fn geometric_mean<I>(values: I) -> Option<f64>
where
    I: IntoIterator<Item = f64>,
{
    let mut log_sum = 0.0f64;
    let mut n = 0usize;
    for v in values {
        if v <= 0.0 {
            return None;
        }
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        None
    } else {
        Some((log_sum / n as f64).exp())
    }
}

/// Arithmetic mean; `None` for an empty input.
///
/// # Examples
///
/// ```
/// use mascot_stats::summary::mean;
///
/// assert_eq!(mean([2.0, 4.0]), Some(3.0));
/// ```
pub fn mean<I>(values: I) -> Option<f64>
where
    I: IntoIterator<Item = f64>,
{
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        None
    } else {
        Some(sum / n as f64)
    }
}

/// Mispredictions per kilo-instruction.
///
/// # Examples
///
/// ```
/// use mascot_stats::summary::mpki;
///
/// assert!((mpki(50, 100_000) - 0.5).abs() < 1e-12);
/// ```
pub fn mpki(mispredictions: u64, instructions: u64) -> f64 {
    if instructions == 0 {
        0.0
    } else {
        mispredictions as f64 * 1000.0 / instructions as f64
    }
}

/// Normalises `value` against `baseline` (e.g. IPC vs perfect MDP).
///
/// Returns `None` when the baseline is non-positive.
///
/// # Examples
///
/// ```
/// use mascot_stats::summary::normalize;
///
/// assert_eq!(normalize(1.02, 1.0), Some(1.02));
/// assert_eq!(normalize(1.0, 0.0), None);
/// ```
pub fn normalize(value: f64, baseline: f64) -> Option<f64> {
    if baseline <= 0.0 {
        None
    } else {
        Some(value / baseline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_identical_values_is_value() {
        let g = geometric_mean(std::iter::repeat_n(3.5, 10)).unwrap();
        assert!((g - 3.5).abs() < 1e-12);
    }

    #[test]
    fn geomean_rejects_nonpositive() {
        assert!(geometric_mean([1.0, 0.0]).is_none());
        assert!(geometric_mean([1.0, -2.0]).is_none());
    }

    #[test]
    fn geomean_below_arithmetic_mean() {
        let values = [1.0, 2.0, 8.0];
        let g = geometric_mean(values).unwrap();
        let a = mean(values).unwrap();
        assert!(g < a);
    }

    #[test]
    fn mean_empty_is_none() {
        assert!(mean([]).is_none());
    }

    #[test]
    fn mpki_zero_instructions() {
        assert_eq!(mpki(100, 0), 0.0);
    }
}
