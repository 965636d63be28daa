//! A minimal Fx-style hasher for the simulator's hot-path maps.
//!
//! The engine keys its bookkeeping maps by small dense integers (ROB ids,
//! store sequence numbers, trace indices). The standard library's default
//! SipHash is DoS-resistant but needlessly slow for that: the keys are not
//! attacker-controlled, and the maps sit on the per-cycle path. This module
//! provides the multiply-rotate hash used by the Firefox and rustc
//! codebases ("FxHash"), hand-rolled here because the build environment is
//! offline and cannot pull the `rustc-hash` crate.
//!
//! Not suitable for untrusted input: the hash is trivially invertible and
//! collision-prone under adversarial keys.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Stateless builder for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// The odd multiplier: truncated golden-ratio constant, as in rustc.
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, non-cryptographic word-at-a-time hasher.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add(v as u64);
        self.add((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_hasher_instances() {
        assert_eq!(hash_of(0xdead_beefu64), hash_of(0xdead_beefu64));
        assert_eq!(hash_of("trace-idx"), hash_of("trace-idx"));
    }

    #[test]
    fn small_dense_keys_do_not_collide() {
        let hashes: FxHashSet<u64> = (0..4096u64).map(hash_of).collect();
        assert_eq!(hashes.len(), 4096);
    }

    #[test]
    fn map_and_set_round_trip() {
        let mut m: FxHashMap<usize, &str> = FxHashMap::default();
        m.insert(7, "seven");
        m.insert(100, "hundred");
        assert_eq!(m.remove(&7), Some("seven"));
        assert_eq!(m.get(&100), Some(&"hundred"));
        let mut s: FxHashSet<u64> = FxHashSet::default();
        assert!(s.insert(42));
        assert!(!s.insert(42));
        assert!(s.contains(&42));
    }

    #[test]
    fn byte_slices_hash_by_content() {
        assert_eq!(hash_of([1u8, 2, 3].as_slice()), hash_of(vec![1u8, 2, 3]));
        assert_ne!(
            hash_of([1u8, 2, 3].as_slice()),
            hash_of([3u8, 2, 1].as_slice())
        );
    }
}
