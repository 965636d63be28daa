//! Bounded saturating counters.
//!
//! Every predictor in the paper is built from small saturating counters: the
//! 3-bit usefulness and 2-bit bypass counters of a MASCOT entry (Fig. 6), the
//! 4-bit usefulness counter of PHAST, the 7-bit confidence counter of NoSQ
//! and the direction counters of the TAGE branch predictor.

use mascot_snapshot::{SnapError, SnapReader, SnapWriter};

/// An unsigned saturating counter with a compile-time-unknown bit width.
///
/// The counter holds values in `0..=max()` where `max() == 2^bits - 1`.
/// Increments and decrements saturate instead of wrapping.
///
/// # Examples
///
/// ```
/// use mascot_stats::SaturatingCounter;
///
/// let mut c = SaturatingCounter::new(2, 0);
/// assert_eq!(c.max(), 3);
/// c.increment();
/// c.increment();
/// c.increment();
/// c.increment(); // saturates at 3
/// assert!(c.is_saturated());
/// c.reset();
/// assert_eq!(c.value(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SaturatingCounter {
    value: u8,
    max: u8,
}

impl SaturatingCounter {
    /// Creates a counter with the given bit width and initial value.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 7, or if `initial` exceeds the
    /// maximum representable value.
    pub fn new(bits: u8, initial: u8) -> Self {
        assert!(bits > 0 && bits <= 7, "counter width must be in 1..=7 bits");
        let max = (1u8 << bits) - 1;
        assert!(initial <= max, "initial value {initial} exceeds max {max}");
        Self {
            value: initial,
            max,
        }
    }

    /// Current counter value.
    #[inline]
    pub fn value(&self) -> u8 {
        self.value
    }

    /// Largest representable value (`2^bits - 1`).
    #[inline]
    pub fn max(&self) -> u8 {
        self.max
    }

    /// True when the counter is at its maximum value.
    #[inline]
    pub fn is_saturated(&self) -> bool {
        self.value == self.max
    }

    /// True when the counter is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.value == 0
    }

    /// Increments, saturating at the maximum.
    #[inline]
    pub fn increment(&mut self) {
        if self.value < self.max {
            self.value += 1;
        }
    }

    /// Decrements, saturating at zero.
    #[inline]
    pub fn decrement(&mut self) {
        if self.value > 0 {
            self.value -= 1;
        }
    }

    /// Resets the counter to zero.
    #[inline]
    pub fn reset(&mut self) {
        self.value = 0;
    }

    /// Sets the counter to an explicit value, clamping to the valid range.
    #[inline]
    pub fn set(&mut self, value: u8) {
        self.value = value.min(self.max);
    }

    /// Appends the counter to a snapshot payload (value, then max).
    pub fn snap_encode(&self, w: &mut SnapWriter) {
        w.u8(self.value);
        w.u8(self.max);
    }

    /// Decodes a counter from a snapshot payload, fail-closed: the stored
    /// maximum must be of the `2^bits - 1` form for a supported width and
    /// the value must not exceed it, so a corrupt byte can never produce a
    /// counter the constructor would have rejected.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] or [`SnapError::Corrupt`].
    pub fn snap_decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let value = r.u8("counter value")?;
        let max = r.u8("counter max")?;
        let bits = max.count_ones() as u8;
        if bits == 0 || bits > 7 || max != (1u8 << bits) - 1 {
            return Err(SnapError::Corrupt("counter max is not 2^bits - 1"));
        }
        if value > max {
            return Err(SnapError::Corrupt("counter value exceeds max"));
        }
        Ok(Self { value, max })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_respects_bits_and_initial() {
        let c = SaturatingCounter::new(3, 6);
        assert_eq!(c.value(), 6);
        assert_eq!(c.max(), 7);
        assert!(!c.is_saturated());
        assert!(!c.is_zero());
    }

    #[test]
    fn increment_saturates() {
        let mut c = SaturatingCounter::new(2, 3);
        c.increment();
        assert_eq!(c.value(), 3);
        assert!(c.is_saturated());
    }

    #[test]
    fn decrement_saturates_at_zero() {
        let mut c = SaturatingCounter::new(2, 0);
        c.decrement();
        assert_eq!(c.value(), 0);
        assert!(c.is_zero());
    }

    #[test]
    fn set_clamps() {
        let mut c = SaturatingCounter::new(2, 0);
        c.set(17);
        assert_eq!(c.value(), 3);
    }

    #[test]
    fn reset_zeroes() {
        let mut c = SaturatingCounter::new(7, 100);
        c.reset();
        assert!(c.is_zero());
    }

    #[test]
    #[should_panic(expected = "counter width")]
    fn zero_bits_rejected() {
        let _ = SaturatingCounter::new(0, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds max")]
    fn oversized_initial_rejected() {
        let _ = SaturatingCounter::new(2, 4);
    }

    #[test]
    fn snap_roundtrip_and_fail_closed() {
        let c = SaturatingCounter::new(3, 6);
        let mut w = SnapWriter::new();
        c.snap_encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(SaturatingCounter::snap_decode(&mut r).unwrap(), c);
        r.finish().unwrap();
        // value > max
        let mut r = SnapReader::new(&[5, 3]);
        assert!(SaturatingCounter::snap_decode(&mut r).is_err());
        // max not of 2^bits - 1 form
        let mut r = SnapReader::new(&[1, 5]);
        assert!(SaturatingCounter::snap_decode(&mut r).is_err());
        // max = 0 (zero-width counter)
        let mut r = SnapReader::new(&[0, 0]);
        assert!(SaturatingCounter::snap_decode(&mut r).is_err());
        // truncated
        let mut r = SnapReader::new(&[1]);
        assert!(SaturatingCounter::snap_decode(&mut r).is_err());
    }

    #[test]
    fn full_up_down_walk() {
        let mut c = SaturatingCounter::new(3, 0);
        for expected in 1..=7u8 {
            c.increment();
            assert_eq!(c.value(), expected);
        }
        for expected in (0..7u8).rev() {
            c.decrement();
            assert_eq!(c.value(), expected);
        }
    }
}
