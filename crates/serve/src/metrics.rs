//! The service-time histogram behind the `Stats` opcode's per-shard
//! latency fields, and the load generator's client-side latency.
//!
//! Each shard owns one [`Histogram`] next to its
//! [`ShardStats`](crate::wire::ShardStats) counters, under the shard's
//! lock; `Stats` reads both while holding it. The histogram uses
//! **log-linear** nanosecond buckets (HDR-style): each power-of-two octave
//! is split into [`SUB_BUCKETS`] linear sub-buckets, so recording is a
//! `leading_zeros`, a shift, and one increment, and percentile queries
//! are exact to within `1/SUB_BUCKETS` of the value (12.5%). That
//! resolution matters for the p999 numbers `mascot-loadgen --soak` gates
//! on — the plain log2 buckets this replaced could only bound a tail
//! sample to within a factor of two, which would make any SLO check
//! either meaningless or flaky. No allocation.

/// Linear sub-buckets per power-of-two octave (`2^SUB_BITS`). Quantile
/// error is bounded by `1/SUB_BUCKETS` of the reported value.
pub const SUB_BUCKETS: usize = 8;
const SUB_BITS: u32 = 3; // log2(SUB_BUCKETS)

/// Total buckets: values `0..SUB_BUCKETS` get exact unit buckets, then
/// every octave `[2^o, 2^(o+1))` for `o in SUB_BITS..=63` contributes
/// `SUB_BUCKETS` buckets.
pub const NUM_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB_BUCKETS;

/// A fixed-bucket latency histogram; a snapshot is a `clone()`.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; NUM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The bucket index for a sample of `ns` nanoseconds.
fn bucket_of(ns: u64) -> usize {
    if ns < SUB_BUCKETS as u64 {
        ns as usize
    } else {
        // Octave = position of the leading one; the next SUB_BITS bits
        // select the linear sub-bucket within it.
        let octave = 63 - ns.leading_zeros();
        let sub = ((ns >> (octave - SUB_BITS)) as usize) & (SUB_BUCKETS - 1);
        (octave - SUB_BITS + 1) as usize * SUB_BUCKETS + sub
    }
}

/// The exclusive upper bound, in ns, of bucket `i` — what quantile queries
/// report, so the approximation always errs on the pessimistic side.
fn bucket_bound(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        (i + 1) as u64
    } else {
        let group = (i / SUB_BUCKETS) as u32; // >= 1
        let sub = (i % SUB_BUCKETS) as u64;
        let octave = group + SUB_BITS - 1; // 3..=63
        let lo = (SUB_BUCKETS as u64 + sub) << (octave - SUB_BITS);
        lo.saturating_add(1u64 << (octave - SUB_BITS))
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [0; NUM_BUCKETS],
        }
    }

    /// Records one sample, in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.buckets[bucket_of(ns)] += 1;
    }

    /// Total number of samples.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Accumulates another histogram into this one (cross-shard or
    /// cross-thread aggregation).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// The upper bound (exclusive, in ns) of the bucket containing the
    /// `q`-quantile sample, or 0 for an empty histogram. `q` is clamped to
    /// `[0, 1]`; e.g. `quantile_ns(0.999)` is the approximate p999,
    /// overestimating by at most `1/SUB_BUCKETS` of the true value.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return bucket_bound(i);
            }
        }
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log_linear() {
        // Unit buckets below SUB_BUCKETS.
        for ns in 0..SUB_BUCKETS as u64 {
            assert_eq!(bucket_of(ns), ns as usize);
            assert_eq!(bucket_bound(ns as usize), ns + 1);
        }
        // Octave boundaries are continuous: bucket_of(2^o) starts the next
        // group, and every bucket's bound is the next bucket's start.
        assert_eq!(bucket_of(8), 8);
        assert_eq!(bucket_of(15), 15);
        assert_eq!(bucket_of(16), 16);
        assert_eq!(bucket_of(1024), 8 * SUB_BUCKETS);
        assert_eq!(bucket_of(u64::MAX), NUM_BUCKETS - 1);
        for i in 0..NUM_BUCKETS - 1 {
            assert_eq!(
                bucket_of(bucket_bound(i)),
                i + 1,
                "bucket {i} bound must open bucket {}",
                i + 1
            );
        }
    }

    /// The property the SLO gate relies on: the reported quantile bounds
    /// the true sample from above by at most 1/SUB_BUCKETS.
    #[test]
    fn quantile_error_is_bounded() {
        for ns in [1u64, 9, 100, 512, 4_096, 65_000, 1_000_000, 123_456_789] {
            let mut h = Histogram::new();
            h.record_ns(ns);
            let q = h.quantile_ns(1.0);
            assert!(q > ns, "bound is exclusive: {q} vs {ns}");
            assert!(
                (q - ns) as f64 <= (ns as f64 / SUB_BUCKETS as f64) + 1.0,
                "error too large: sample {ns}, reported {q}"
            );
        }
    }

    #[test]
    fn quantiles_walk_the_cumulative_distribution() {
        let mut h = Histogram::new();
        // 90 fast samples (~512 ns), 9 medium (~64 µs), 1 slow (~8 ms).
        for _ in 0..90 {
            h.record_ns(512);
        }
        for _ in 0..9 {
            h.record_ns(64_000);
        }
        h.record_ns(8_000_000);
        assert_eq!(h.total(), 100);
        assert_eq!(h.quantile_ns(0.50), 576); // 512's bucket spans [512, 576)
        assert!(h.quantile_ns(0.99) >= 64_000 && h.quantile_ns(0.99) < 8_000_000);
        assert!(h.quantile_ns(1.0) >= 8_000_000);
        assert_eq!(Histogram::new().quantile_ns(0.5), 0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record_ns(100);
        b.record_ns(100);
        b.record_ns(1_000_000);
        a.merge(&b);
        assert_eq!(a.total(), 3);
    }
}
