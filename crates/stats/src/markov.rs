//! Markov-chain analysis of saturating counters.
//!
//! §III-A of the paper argues that relying on confidence decay to learn a
//! non-dependence is far too slow: footnote 1 states that a 3-bit counter
//! initialised to its maximum value takes an expected **1,625 predictions**
//! to reach zero when the entry is correct 70 % of the time. This module
//! reproduces that computation exactly.
//!
//! A saturating counter under a Bernoulli correct/incorrect stream is a
//! birth–death Markov chain on states `0..=max`: a correct prediction
//! (probability `p`) increments (saturating at the top), an incorrect one
//! (probability `1 - p`) decrements. The expected number of steps to first
//! hit zero has the classic closed-form recurrence implemented here.

/// Expected number of predictions for a saturating counter to first reach
/// zero.
///
/// * `bits` — counter width; the chain has states `0..=2^bits - 1`.
/// * `start` — initial counter value.
/// * `p_correct` — probability that a prediction is correct (increments).
///
/// Returns `0.0` when `start == 0`. Uses the birth–death hitting-time
/// recurrence: with `q = 1 - p`, the expected time `h_i` to step from state
/// `i` down to `i - 1` satisfies `h_top = 1/q` (increments at the top
/// saturate) and `h_i = (1 + p · h_{i+1}) / q` below the top; the answer is
/// `Σ_{i=1..=start} h_i`.
///
/// # Panics
///
/// Panics if `bits` is not in `1..=7`, `start` exceeds the maximum value, or
/// `p_correct` is not in `[0, 1)` (with `p = 1` the counter never decays).
///
/// # Examples
///
/// ```
/// use mascot_stats::markov::expected_predictions_to_zero;
///
/// // The paper's footnote 1: 3-bit counter, initialised to max, 70 % correct.
/// let n = expected_predictions_to_zero(3, 7, 0.7);
/// assert!((n - 1625.0).abs() < 1.0);
/// ```
pub fn expected_predictions_to_zero(bits: u8, start: u8, p_correct: f64) -> f64 {
    assert!(
        (1..=7).contains(&bits),
        "counter width must be in 1..=7 bits"
    );
    let max = (1u16 << bits) - 1;
    assert!(
        u16::from(start) <= max,
        "start {start} exceeds counter max {max}"
    );
    assert!(
        (0.0..1.0).contains(&p_correct),
        "p_correct must be in [0, 1); got {p_correct}"
    );
    if start == 0 {
        return 0.0;
    }
    let p = p_correct;
    let q = 1.0 - p;
    // h[i] = expected steps to go from state i to i-1, for i in 1..=max.
    let mut h = vec![0.0f64; usize::from(max) + 1];
    h[usize::from(max)] = 1.0 / q;
    for i in (1..usize::from(max)).rev() {
        h[i] = (1.0 + p * h[i + 1]) / q;
    }
    h[1..=usize::from(start)].iter().sum()
}

/// Expected number of predictions for the counter to first *saturate*
/// (reach its maximum) from `start`, the mirror-image question: how quickly
/// can an entry gain enough confidence to be trusted for SMB.
///
/// # Panics
///
/// Panics under the same conditions as [`expected_predictions_to_zero`],
/// except that here `p_correct` must be in `(0, 1]`.
///
/// # Examples
///
/// ```
/// use mascot_stats::markov::expected_predictions_to_saturate;
///
/// // A 2-bit bypass counter allocated at 1 with 95 % bypassable outcomes.
/// let n = expected_predictions_to_saturate(2, 1, 0.95);
/// assert!(n > 2.0 && n < 3.0);
/// ```
pub fn expected_predictions_to_saturate(bits: u8, start: u8, p_correct: f64) -> f64 {
    assert!(
        (1..=7).contains(&bits),
        "counter width must be in 1..=7 bits"
    );
    let max = (1u16 << bits) - 1;
    assert!(
        u16::from(start) <= max,
        "start {start} exceeds counter max {max}"
    );
    assert!(
        p_correct > 0.0 && p_correct <= 1.0,
        "p_correct must be in (0, 1]; got {p_correct}"
    );
    if u16::from(start) == max {
        return 0.0;
    }
    let p = p_correct;
    let q = 1.0 - p;
    // g[i] = expected steps to go from state i to i+1, for i in 0..max.
    // At state 0 a decrement saturates, so g[0] = 1/p; above,
    // g[i] = (1 + q * g[i-1]) / p.
    let mut g = vec![0.0f64; usize::from(max)];
    g[0] = 1.0 / p;
    for i in 1..usize::from(max) {
        g[i] = (1.0 + q * g[i - 1]) / p;
    }
    g[usize::from(start)..].iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The footnote-1 claim, checked tightly: 1,625 expected predictions.
    #[test]
    fn footnote_one_value() {
        let n = expected_predictions_to_zero(3, 7, 0.7);
        assert!((n - 1625.0).abs() < 1.0, "got {n}");
    }

    #[test]
    fn zero_start_needs_zero_steps() {
        assert_eq!(expected_predictions_to_zero(3, 0, 0.7), 0.0);
    }

    #[test]
    fn always_wrong_decays_linearly() {
        // p = 0 means every prediction decrements: exactly `start` steps.
        let n = expected_predictions_to_zero(3, 5, 0.0);
        assert!((n - 5.0).abs() < 1e-12);
    }

    #[test]
    fn decay_time_grows_with_accuracy() {
        let lo = expected_predictions_to_zero(3, 7, 0.5);
        let hi = expected_predictions_to_zero(3, 7, 0.7);
        assert!(hi > lo);
    }

    #[test]
    fn decay_time_grows_with_width() {
        let narrow = expected_predictions_to_zero(2, 3, 0.7);
        let wide = expected_predictions_to_zero(4, 15, 0.7);
        assert!(wide > narrow);
    }

    #[test]
    fn saturate_from_max_is_zero() {
        assert_eq!(expected_predictions_to_saturate(2, 3, 0.9), 0.0);
    }

    #[test]
    fn always_right_saturates_linearly() {
        // p = 1 means every prediction increments: max - start steps.
        let n = expected_predictions_to_saturate(3, 2, 1.0);
        assert!((n - 5.0).abs() < 1e-12);
    }

    #[test]
    fn monte_carlo_agrees_with_closed_form() {
        // Cheap deterministic LCG so the test has no external dependencies.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let p = 0.6;
        let trials = 20_000;
        let mut total_steps = 0u64;
        for _ in 0..trials {
            let mut v: i32 = 7;
            loop {
                total_steps += 1;
                if next() < p {
                    v = (v + 1).min(7);
                } else {
                    v -= 1;
                    if v == 0 {
                        break;
                    }
                }
            }
        }
        let empirical = total_steps as f64 / trials as f64;
        let analytic = expected_predictions_to_zero(3, 7, p);
        let rel = (empirical - analytic).abs() / analytic;
        assert!(rel < 0.05, "empirical {empirical} vs analytic {analytic}");
    }

    #[test]
    #[should_panic(expected = "p_correct")]
    fn decay_with_p_one_panics() {
        let _ = expected_predictions_to_zero(3, 7, 1.0);
    }
}
