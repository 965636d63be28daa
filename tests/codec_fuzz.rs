//! Robustness of the trace codec against corrupt input.
//!
//! Decoding is exposed to attacker-controlled bytes once traces travel over
//! the wire (`mascotd --replay`, shipped trace files), so `decode` must fail
//! with a [`CodecError`] — never panic, and never feed an unvalidated length
//! into `Vec::with_capacity` — for *any* byte string. This test mutates a
//! valid encoded trace thousands of ways (bit flips, truncations, splices,
//! and targeted length-field attacks) and decodes every mutant.

use mascot_sim::codec::{decode, encode};
use mascot_workloads::spec;

/// SplitMix64: tiny deterministic generator for mutation positions/values.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn valid_buffer() -> Vec<u8> {
    let profile = spec::profile("perlbench2").expect("known benchmark");
    let trace = mascot_workloads::generate(&profile, 7, 2_000);
    encode(&trace)
}

/// Byte-level mutations: every decode must return, and a changed buffer must
/// either decode to *something* (benign mutation, e.g. a pc bit) or produce
/// a `CodecError` — reaching this assertion at all proves no panic/abort.
#[test]
fn mutated_buffers_never_panic() {
    let base = valid_buffer();
    let mut rng = Rng(0x5eed);
    for round in 0..4_000 {
        let mut buf = base.clone();
        // 1..=4 random single-byte mutations.
        for _ in 0..=rng.below(3) {
            let pos = rng.below(buf.len());
            buf[pos] = rng.next() as u8;
        }
        // Every third round also truncates; every fifth splices a chunk.
        if round % 3 == 0 {
            buf.truncate(rng.below(buf.len() + 1));
        }
        if round % 5 == 0 && !buf.is_empty() {
            let at = rng.below(buf.len());
            let extra = (rng.next() % 16) as usize;
            buf.splice(at..at, std::iter::repeat_n(rng.next() as u8, extra));
        }
        // Must not panic; the Result itself is allowed to be either.
        let _ = decode(&buf);
    }
}

/// Targeted attack on the uop-count field: a huge claimed count with a tiny
/// payload must be rejected before any allocation is attempted.
#[test]
fn inflated_count_is_rejected_not_allocated() {
    let base = valid_buffer();
    // Layout: magic(4) + version(1) + name_len(2) + name + count(8).
    let name_len = u16::from_le_bytes([base[5], base[6]]) as usize;
    let count_at = 7 + name_len;
    for claimed in [u64::MAX, u64::MAX / 13, 1 << 60, 1 << 32, base.len() as u64] {
        let mut buf = base.clone();
        buf[count_at..count_at + 8].copy_from_slice(&claimed.to_le_bytes());
        assert!(
            decode(&buf).is_err(),
            "claimed count {claimed} must be rejected"
        );
    }
}

/// Targeted attack on the name-length field: claiming a name longer than the
/// buffer must fail cleanly.
#[test]
fn inflated_name_length_is_rejected() {
    let base = valid_buffer();
    let mut buf = base.clone();
    buf[5..7].copy_from_slice(&u16::MAX.to_le_bytes());
    assert!(decode(&buf).is_err());
}

/// Exhaustive single-byte corruption over a small trace: cheap enough to
/// cover *every* position × a few values, catching field-specific gaps the
/// random pass might miss.
#[test]
fn exhaustive_single_byte_corruption_on_small_trace() {
    let profile = spec::profile("exchange2").expect("known benchmark");
    let trace = mascot_workloads::generate(&profile, 11, 64);
    let base = encode(&trace);
    for pos in 0..base.len() {
        for val in [0x00, 0x01, 0x7f, 0xff] {
            if base[pos] == val {
                continue;
            }
            let mut buf = base.clone();
            buf[pos] = val;
            let _ = decode(&buf); // must not panic
        }
    }
}

/// The `.mtrc` bytes of a generated trace are frozen: FNV-1a digest and
/// length of `encode` over a trace with every uop kind and bypass class.
/// Traces on disk (`tests/repros/*.mtrc`, `mascotd --replay` inputs) must
/// keep decoding after any codec refactor.
#[test]
fn encoded_trace_is_frozen() {
    let profile = spec::profile("perlbench2").expect("known benchmark");
    let bytes = encode(&mascot_workloads::generate(&profile, 7, 5_000));
    assert_eq!(
        (mascot_snapshot::fnv1a64(&bytes), bytes.len()),
        (0x91f2_bbc8_e806_1578, 97_624),
        "trace encoding drifted"
    );
}
