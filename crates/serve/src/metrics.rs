//! Per-shard service metrics: lock-free counters plus a fixed-bucket
//! latency histogram.
//!
//! Shard calls update atomics on the hot path; `Stats` requests snapshot
//! them without taking any shard's lock. The
//! histogram uses **log-linear** nanosecond buckets (HDR-style): each
//! power-of-two octave is split into [`SUB_BUCKETS`] linear sub-buckets,
//! so recording is a `leading_zeros`, a shift, and one relaxed
//! `fetch_add`, and percentile queries are exact to within
//! `1/SUB_BUCKETS` of the value (12.5%). That resolution matters for the
//! p999 numbers `mascot-loadgen --soak` gates on — the plain log2 buckets
//! this replaced could only bound a tail sample to within a factor of
//! two, which would make any SLO check either meaningless or flaky. No
//! allocation, no locks.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::wire::ShardStats;

/// Linear sub-buckets per power-of-two octave (`2^SUB_BITS`). Quantile
/// error is bounded by `1/SUB_BUCKETS` of the reported value.
pub const SUB_BUCKETS: usize = 8;
const SUB_BITS: u32 = 3; // log2(SUB_BUCKETS)

/// Total buckets: values `0..SUB_BUCKETS` get exact unit buckets, then
/// every octave `[2^o, 2^(o+1))` for `o in SUB_BITS..=63` contributes
/// `SUB_BUCKETS` buckets.
pub const NUM_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB_BUCKETS;

/// A fixed-bucket, lock-free latency histogram.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
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
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one sample, in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// An owned copy of a [`Histogram`]'s counts.
#[derive(Debug, Clone, Copy)]
pub struct HistogramSnapshot {
    buckets: [u64; NUM_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; NUM_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Total number of samples.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Accumulates another snapshot into this one (cross-shard or
    /// cross-thread aggregation).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
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

/// Counters of one shard, updated by whichever thread runs its work.
#[derive(Debug, Default)]
pub struct ShardMetrics {
    /// Predict + train items processed.
    pub requests: AtomicU64,
    /// Predict items processed.
    pub predicts: AtomicU64,
    /// Train items applied to the predictor.
    pub trains: AtomicU64,
    /// Train items dropped on a stale/mismatched ticket.
    pub stale_trains: AtomicU64,
    /// Pending predictions recycled before their train arrived (the
    /// in-flight window outran `pending_capacity`); fatal under
    /// `strict_tickets`.
    pub evicted_pending: AtomicU64,
    /// Applied trains whose prediction was `NoDependence` on a dependent
    /// outcome.
    pub missed_dependencies: AtomicU64,
    /// Applied trains whose prediction was `Dependence` on an independent
    /// outcome.
    pub false_dependencies: AtomicU64,
    /// Applied trains whose prediction was `Bypass` on an independent
    /// outcome — the squash-causing shape a mistraining attacker induces
    /// (DESIGN.md §12).
    pub false_bypasses: AtomicU64,
    /// Jobs executed: one per predict, train, sync, snapshot or restore
    /// call, each also one `service` sample.
    pub batches: AtomicU64,
    /// Entries restored into this shard's predictor at the last warm start
    /// or `Restore` (0 when the shard started cold).
    pub restored_entries: AtomicU64,
    /// Age of the restored snapshot at restore time, seconds.
    pub snapshot_age_s: AtomicU64,
    /// Checkpoint/restore cycles this predictor state has been through.
    pub restarts: AtomicU64,
    /// Per-job service time.
    pub service: Histogram,
}

impl ShardMetrics {
    /// A zeroed metrics block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshots every counter into the wire representation.
    pub fn snapshot(&self) -> ShardStats {
        let service = self.service.snapshot();
        ShardStats {
            requests: self.requests.load(Ordering::Relaxed),
            predicts: self.predicts.load(Ordering::Relaxed),
            trains: self.trains.load(Ordering::Relaxed),
            stale_trains: self.stale_trains.load(Ordering::Relaxed),
            evicted_pending: self.evicted_pending.load(Ordering::Relaxed),
            missed_dependencies: self.missed_dependencies.load(Ordering::Relaxed),
            false_dependencies: self.false_dependencies.load(Ordering::Relaxed),
            false_bypasses: self.false_bypasses.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            // A shard runs every job it is given; nothing is ever rejected.
            rejected_full: 0,
            service_samples: service.total(),
            service_p50_ns: service.quantile_ns(0.50),
            service_p99_ns: service.quantile_ns(0.99),
            restored_entries: self.restored_entries.load(Ordering::Relaxed),
            snapshot_age_s: self.snapshot_age_s.load(Ordering::Relaxed),
            restarts: self.restarts.load(Ordering::Relaxed),
        }
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
            let h = Histogram::new();
            h.record_ns(ns);
            let q = h.snapshot().quantile_ns(1.0);
            assert!(q > ns, "bound is exclusive: {q} vs {ns}");
            assert!(
                (q - ns) as f64 <= (ns as f64 / SUB_BUCKETS as f64) + 1.0,
                "error too large: sample {ns}, reported {q}"
            );
        }
    }

    #[test]
    fn quantiles_walk_the_cumulative_distribution() {
        let h = Histogram::new();
        // 90 fast samples (~512 ns), 9 medium (~64 µs), 1 slow (~8 ms).
        for _ in 0..90 {
            h.record_ns(512);
        }
        for _ in 0..9 {
            h.record_ns(64_000);
        }
        h.record_ns(8_000_000);
        let s = h.snapshot();
        assert_eq!(s.total(), 100);
        assert_eq!(s.quantile_ns(0.50), 576); // 512's bucket spans [512, 576)
        assert!(s.quantile_ns(0.99) >= 64_000 && s.quantile_ns(0.99) < 8_000_000);
        assert!(s.quantile_ns(1.0) >= 8_000_000);
        assert_eq!(HistogramSnapshot::default().quantile_ns(0.5), 0);
    }

    #[test]
    fn merge_accumulates() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record_ns(100);
        b.record_ns(100);
        b.record_ns(1_000_000);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.total(), 3);
    }

    #[test]
    fn metrics_snapshot_carries_counters() {
        let m = ShardMetrics::new();
        m.requests.fetch_add(5, Ordering::Relaxed);
        m.predicts.fetch_add(4, Ordering::Relaxed);
        m.trains.fetch_add(1, Ordering::Relaxed);
        m.service.record_ns(2_000);
        let s = m.snapshot();
        assert_eq!(s.requests, 5);
        assert_eq!(s.predicts, 4);
        assert_eq!(s.trains, 1);
        assert_eq!(s.service_samples, 1);
        assert!(s.service_p50_ns >= 2_000 && s.service_p50_ns <= 2_304);
    }
}
