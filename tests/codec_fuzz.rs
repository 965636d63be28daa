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

/// Freezes the trace generator: every benchmark profile at two seeds must
/// generate exactly the trace it generated when these digests were taken
/// (FNV-1a over the `.mtrc` encoding of 200k uops). Ground-truth labels,
/// the RNG call sequence and every uop field are covered, so a refactor of
/// the generator's bookkeeping cannot move a single emitted byte.
#[test]
fn generated_traces_are_frozen_for_every_profile() {
    const SEEDS: [u64; 2] = [2025, 8191];
    let frozen: [(&str, [u64; 2]); 24] = [
        ("perlbench1", [0xa9f0_eac7_371f_cf20, 0x822f_0bca_d264_3e09]),
        ("perlbench2", [0x57c8_6f75_a734_18b2, 0x537b_77e1_b976_5d20]),
        ("gcc4", [0x5745_fed5_ed8c_a802, 0xcdc9_4f71_e682_fcaf]),
        ("gcc5", [0x5ae3_321e_3f0a_9581, 0x3c16_0d15_02c6_f382]),
        ("bwaves", [0x8f23_95ab_06e8_83f2, 0x76e2_d9c0_58c9_81a7]),
        ("mcf", [0x39fa_1bd5_062e_cce4, 0xd99b_a317_d03c_97d7]),
        ("cactuBSSN", [0x083d_3a2a_9561_2c59, 0xa493_957d_470e_ed20]),
        ("namd", [0x3f33_0b99_5f0b_da34, 0xe83b_f5ee_ef6c_82ee]),
        ("parest", [0xa653_f4ba_8807_dd35, 0x2edf_8d50_13ba_5c12]),
        ("povray", [0x190e_7890_c5bf_3a70, 0xfe67_3106_5894_98e0]),
        ("lbm", [0xbaec_d16a_32e0_a9aa, 0xbaf7_0c3e_38d3_89d7]),
        ("omnetpp", [0x8368_185f_a314_f919, 0x5b44_c0a9_18c2_5849]),
        ("wrf", [0x6013_d31b_4f11_0cd5, 0xb9af_59a5_f5a4_fbe3]),
        ("xalancbmk", [0x44c5_dd7b_4f08_c179, 0x9de5_59d7_e8a3_a314]),
        ("x264", [0xcac9_1888_a0a7_2297, 0xbe46_6810_0834_c425]),
        ("blender", [0xc22c_f5e9_fa86_5077, 0x14a8_d225_2c2e_8660]),
        ("deepsjeng", [0x8b40_a509_16bb_c46f, 0xc273_8013_4be8_45bc]),
        ("imagick", [0x5f22_0859_1d48_c380, 0xff25_d6df_e855_0de8]),
        ("leela", [0x01a7_b953_df5f_4534, 0xb4c6_c658_0cb1_ae77]),
        ("nab", [0x69ea_3c2c_174f_8137, 0x7f59_db6e_46d6_c426]),
        ("exchange2", [0x1173_a706_1856_b22f, 0x9800_6098_9a76_e20f]),
        ("fotonik3d", [0x501f_7c2b_0b3f_22f3, 0x6b36_eb80_6e35_4555]),
        ("roms", [0xd503_7bb1_2feb_6dc4, 0x815e_5e10_164e_f2bc]),
        ("xz", [0x6381_ff45_94c7_b842, 0x6e2c_4c9f_bf8b_fdaf]),
    ];
    let got: Vec<(&str, [u64; 2])> = spec::all_profiles()
        .iter()
        .map(|p| {
            let digest = |seed| {
                mascot_snapshot::fnv1a64(&encode(&mascot_workloads::generate(p, seed, 200_000)))
            };
            (p.name, SEEDS.map(digest))
        })
        .collect();
    let listing: String = got
        .iter()
        .map(|(name, [a, b])| format!("(\"{name}\", [{a:#018x}, {b:#018x}]),\n"))
        .collect();
    assert_eq!(got, frozen, "generated traces drifted; now:\n{listing}");
}

/// A register byte is `0xFF` (none) or a name below `NUM_ARCH_REGS`: any
/// other value is rejected as `Corrupt("register")`, in every register
/// slot. The simulator indexes 64-entry register tables by these bytes, so
/// a decoded out-of-range register would panic it mid-run.
#[test]
fn out_of_range_register_is_rejected() {
    use mascot_sim::codec::CodecError;
    use mascot_sim::uop::NUM_ARCH_REGS;
    use mascot_sim::{Trace, Uop};

    let trace = Trace::new("r", vec![Uop::alu(0x10, [Some(1), Some(2)], Some(3), 1)]);
    let base = encode(&trace);
    // Layout: magic(4) + version(1) + name_len(2) + "r" + count(8) + pc(8),
    // then src0, src1, dst.
    let regs_at = 4 + 1 + 2 + 1 + 8 + 8;
    assert_eq!(&base[regs_at..regs_at + 3], &[1, 2, 3]);
    for slot in 0..3 {
        for (byte, ok) in [
            (63, true),
            (0xff, true),
            (64, false),
            (100, false),
            (0xfe, false),
        ] {
            let mut buf = base.clone();
            buf[regs_at + slot] = byte;
            match decode(&buf) {
                Ok(back) => {
                    assert!(ok, "slot {slot}: register {byte} decoded");
                    back.validate().expect("a decoded trace validates");
                    let uop = back.uops.iter().next().expect("one uop");
                    let regs = [uop.srcs[0], uop.srcs[1], uop.dst];
                    assert!(regs
                        .iter()
                        .flatten()
                        .all(|&r| usize::from(r) < NUM_ARCH_REGS));
                }
                Err(e) => {
                    assert!(!ok, "slot {slot}: register {byte} rejected: {e}");
                    assert!(matches!(e, CodecError::Corrupt("register")), "{e}");
                }
            }
        }
    }
}
