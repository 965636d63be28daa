//! Memory-access-vector fingerprints (DESIGN.md §13).
//!
//! An interval's fingerprint is a fixed-length vector of *static* trace
//! features — computable in one linear scan, no simulation — chosen to
//! separate the behaviours that drive MDP/SMB predictor performance: how
//! often loads alias in-flight stores, at what store distance, under how
//! much branch noise, and against how large a data footprint. Identical
//! interval contents produce bit-identical fingerprints (pure integer
//! accumulation followed by the same float normalisation), which is what
//! makes the downstream clustering reproducible.

use std::collections::BTreeMap;

use mascot_sim::{BypassClass, Uop, UopKind};

/// Number of log2 store-distance histogram buckets: distance 1, 2–3, 4–7,
/// …, 64–127, and a final ≥128 bucket (beyond every predictor's
/// 127-distance window).
pub const DISTANCE_BUCKETS: usize = 8;

/// Fingerprint vector length. Layout (see [`fingerprint`]):
/// load/store/branch mix (3), alias rate (1), Fig. 2 class rates (4),
/// log2 store-distance histogram ([`DISTANCE_BUCKETS`]), branch entropy
/// (1), data-footprint scale (1).
pub const FINGERPRINT_DIMS: usize = 3 + 1 + 4 + DISTANCE_BUCKETS + 1 + 1;

/// A memory-access-vector signature for one trace interval. All components
/// are normalised rates in `[0, 1]`, so unweighted Euclidean distance in
/// [`crate::kmeans`](mod@crate::kmeans) treats every axis comparably.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fingerprint(pub [f64; FINGERPRINT_DIMS]);

impl Fingerprint {
    /// Squared Euclidean distance to another fingerprint.
    pub fn dist2(&self, other: &Fingerprint) -> f64 {
        self.0
            .iter()
            .zip(&other.0)
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    }
}

/// Binary entropy of a taken-rate, in bits (0 for p ∈ {0, 1}, 1 at 0.5).
fn binary_entropy(p: f64) -> f64 {
    if p <= 0.0 || p >= 1.0 {
        0.0
    } else {
        -(p * p.log2() + (1.0 - p) * (1.0 - p).log2())
    }
}

/// log2 bucket index for a ground-truth store distance (≥ 1).
fn distance_bucket(distance: u32) -> usize {
    (31 - u32::leading_zeros(distance.max(1)) as usize).min(DISTANCE_BUCKETS - 1)
}

/// Computes the memory-access-vector fingerprint of `uops` (one interval
/// of a trace). Deterministic: the same slice always yields bit-identical
/// output — per-PC branch statistics are accumulated in a [`BTreeMap`], so
/// even the float summation order is fixed.
pub fn fingerprint(uops: &[Uop]) -> Fingerprint {
    let mut loads = 0u64;
    let mut stores = 0u64;
    let mut branches = 0u64;
    let mut aliased = 0u64;
    let mut classes = [0u64; 4];
    let mut dist_hist = [0u64; DISTANCE_BUCKETS];
    // pc → (taken, total) for conditional-branch entropy.
    let mut branch_stats: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    // 64-byte cache lines touched by loads and stores; collected flat and
    // sort+dedup'd once at the end — far cheaper than per-access tree
    // inserts, with the identical (order-independent) distinct count.
    let mut lines: Vec<u64> = Vec::new();

    for uop in uops {
        match uop.kind {
            UopKind::Alu => {}
            UopKind::Load { addr, dep, .. } => {
                loads += 1;
                lines.push(addr >> 6);
                if let Some(dep) = dep {
                    aliased += 1;
                    classes[match dep.class {
                        BypassClass::DirectBypass => 0,
                        BypassClass::NoOffset => 1,
                        BypassClass::Offset => 2,
                        BypassClass::MdpOnly => 3,
                    }] += 1;
                    dist_hist[distance_bucket(dep.distance)] += 1;
                }
            }
            UopKind::Store { addr, .. } => {
                stores += 1;
                lines.push(addr >> 6);
            }
            UopKind::Branch { taken, .. } => {
                branches += 1;
                let e = branch_stats.entry(uop.pc).or_insert((0, 0));
                e.0 += u64::from(taken);
                e.1 += 1;
            }
        }
    }

    let rate = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let total = uops.len() as u64;

    let mut v = [0.0f64; FINGERPRINT_DIMS];
    v[0] = rate(loads, total);
    v[1] = rate(stores, total);
    v[2] = rate(branches, total);
    v[3] = rate(aliased, loads);
    for (i, &c) in classes.iter().enumerate() {
        v[4 + i] = rate(c, loads);
    }
    for (i, &d) in dist_hist.iter().enumerate() {
        v[8 + i] = rate(d, loads);
    }
    // Branch-count-weighted mean per-PC entropy: high when branches are
    // coin-flips, low when each static branch is biased or patterned.
    v[8 + DISTANCE_BUCKETS] = branch_stats
        .values()
        .map(|&(taken, n)| rate(n, branches) * binary_entropy(rate(taken, n)))
        .sum();
    // Data footprint on a log scale, normalised so ~1M distinct lines ≈ 1.
    lines.sort_unstable();
    lines.dedup();
    v[9 + DISTANCE_BUCKETS] = ((1 + lines.len()) as f64).log2() / 20.0;
    Fingerprint(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mascot_sim::TraceDep;

    fn pattern() -> Vec<Uop> {
        let dep = TraceDep {
            distance: 1,
            class: BypassClass::DirectBypass,
            store_pc: 0x10,
            branches_between: 0,
        };
        vec![
            Uop::store(0x10, 0x1000, 8, None, Some(1)),
            Uop::load(0x14, 0x1000, 8, None, 2, Some(dep)),
            Uop::branch(0x18, true, 0x10, None),
            Uop::alu(0x1c, [Some(2), None], Some(3), 1),
            Uop::load(0x20, 0x2000, 8, None, 4, None),
        ]
    }

    #[test]
    fn identical_slices_fingerprint_identically() {
        let a = fingerprint(&pattern());
        let b = fingerprint(&pattern());
        assert_eq!(a, b);
        // Bit-identical, not merely approximately equal.
        for (x, y) in a.0.iter().zip(&b.0) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn rates_reflect_the_mix() {
        let fp = fingerprint(&pattern());
        assert!((fp.0[0] - 0.4).abs() < 1e-12, "2 loads of 5 uops");
        assert!((fp.0[1] - 0.2).abs() < 1e-12, "1 store of 5 uops");
        assert!((fp.0[3] - 0.5).abs() < 1e-12, "1 of 2 loads aliased");
        assert!((fp.0[4] - 0.5).abs() < 1e-12, "the alias is DirectBypass");
        assert!((fp.0[8] - 0.5).abs() < 1e-12, "distance 1 bucket");
        // Always-taken branch: zero entropy.
        assert_eq!(fp.0[8 + DISTANCE_BUCKETS], 0.0);
    }

    #[test]
    fn distance_buckets_are_log2() {
        assert_eq!(distance_bucket(1), 0);
        assert_eq!(distance_bucket(2), 1);
        assert_eq!(distance_bucket(3), 1);
        assert_eq!(distance_bucket(4), 2);
        assert_eq!(distance_bucket(127), 6);
        assert_eq!(distance_bucket(128), 7);
        assert_eq!(distance_bucket(u32::MAX), 7);
    }

    #[test]
    fn coin_flip_branches_score_full_entropy() {
        let mut uops = Vec::new();
        for i in 0..100u64 {
            uops.push(Uop::branch(0x40, i % 2 == 0, 0x10, None));
        }
        let fp = fingerprint(&uops);
        assert!((fp.0[8 + DISTANCE_BUCKETS] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_interval_is_all_zero() {
        let fp = fingerprint(&[]);
        for (i, v) in fp.0.iter().enumerate() {
            assert_eq!(*v, 0.0, "dim {i}");
        }
    }
}
