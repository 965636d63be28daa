//! Corrupt-snapshot fuzz over *real* predictor state, and the N→M
//! resharding equivalence property.
//!
//! `crates/snapshot` already fuzzes the bare container over toy payloads;
//! these tests drive warmed predictors through the full stack the serve
//! layer uses (`AnyPredictor::snapshot_bytes` → `SnapshotFile` →
//! `predictors_from_snapshot`) and assert that every corruption — torn
//! writes, bit rot, wrong magic/version, a bad checksum, a smuggled
//! payload of the wrong kind — fails closed, while a clean snapshot
//! reshards onto any target shard count without changing a single
//! prediction.

use mascot::history::{BranchEvent, BranchKind};
use mascot::prediction::{
    BypassClass, LoadOutcome, MemDepPrediction, MemDepPredictor, ObservedDependence, StoreDistance,
};
use mascot_predictors::{AnyPredictor, PredictorKind};
use mascot_serve::predictors_from_snapshot;
use mascot_snapshot::{SnapError, SnapshotFile};

/// Distinct load PCs the cluster is warmed (and later probed) on.
const NUM_PCS: u64 = 48;
/// Base of the load PC range.
const PC_BASE: u64 = 0x4000;
/// Store sequence used for probes: far past anything dispatched during the
/// warmup, so the answer depends only on table state.
const PROBE_SEQ: u64 = u64::MAX / 2;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Warms `n` predictors the way `n` mascotd shards would be warmed:
/// branches and store dispatches broadcast to every shard (predictor
/// history is global), each load predicted and trained only on the shard
/// that owns its PC.
fn warm_cluster(kind: PredictorKind, n: usize, steps: usize, seed: u64) -> Vec<AnyPredictor> {
    let mut preds: Vec<AnyPredictor> = (0..n).map(|_| kind.build()).collect();
    let mut state = seed | 1;
    let mut store_seq = 0u64;
    for _ in 0..steps {
        if xorshift(&mut state).is_multiple_of(3) {
            let event = BranchEvent {
                pc: 0x100 + (xorshift(&mut state) % 32) * 4,
                kind: BranchKind::Conditional,
                taken: xorshift(&mut state).is_multiple_of(2),
                target: 0x800,
            };
            for p in &mut preds {
                p.on_branch(&event);
            }
        }
        if xorshift(&mut state).is_multiple_of(2) {
            let store_pc = 0x9000 + (xorshift(&mut state) % 16) * 8;
            for p in &mut preds {
                p.on_store_dispatch(store_pc, store_seq);
            }
            store_seq += 1;
        }
        let pc = PC_BASE + (xorshift(&mut state) % NUM_PCS) * 4;
        let owner = owner_of(pc, n);
        let (predicted, meta) = preds[owner].predict(pc, store_seq, None);
        let outcome = if xorshift(&mut state).is_multiple_of(2) {
            LoadOutcome::dependent(ObservedDependence {
                distance: StoreDistance::new(1 + (xorshift(&mut state) % 7) as u32)
                    .expect("in range"),
                class: BypassClass::DirectBypass,
                store_pc: 0x9000,
                branches_between: (xorshift(&mut state) % 4) as u32,
            })
        } else {
            LoadOutcome::independent()
        };
        preds[owner].train(pc, meta, predicted, &outcome);
    }
    preds
}

/// The shard that owns `pc` in an `n`-shard cluster (any stable total map
/// works for these tests).
fn owner_of(pc: u64, n: usize) -> usize {
    ((pc / 4) % n as u64) as usize
}

/// What the predictor would answer for every warmed PC, probed on a clone
/// so the probe itself cannot perturb LRU state.
fn probe(pred: &AnyPredictor, pcs: impl Iterator<Item = u64>) -> Vec<MemDepPrediction> {
    let mut clone = pred.clone();
    pcs.map(|pc| clone.predict(pc, PROBE_SEQ, None).0).collect()
}

/// A warmed 3-shard container, exactly as `mascotd` would checkpoint it.
fn warm_container(kind: PredictorKind) -> (Vec<AnyPredictor>, SnapshotFile) {
    let preds = warm_cluster(kind, 3, 1_500, 0x5EED);
    let file = SnapshotFile {
        kind_label: kind.label().into_owned(),
        created_unix_s: 1_754_000_000,
        restarts: 2,
        shards: preds.iter().map(AnyPredictor::snapshot_bytes).collect(),
    };
    (preds, file)
}

/// Indices to corrupt: every byte of a small buffer, a bounded sample of a
/// large one (always covering both ends, where the header and checksum
/// live).
fn sample_indices(len: usize) -> Vec<usize> {
    let step = (len / 400).max(1);
    let mut idxs: Vec<usize> = (0..len).step_by(step).collect();
    idxs.extend((0..len.min(24)).chain(len.saturating_sub(24)..len));
    idxs.sort_unstable();
    idxs.dedup();
    idxs
}

#[test]
fn container_over_real_state_fails_closed_on_any_corruption() {
    let (_, file) = warm_container(PredictorKind::Mascot);
    let bytes = file.encode();
    assert_eq!(
        SnapshotFile::decode(&bytes).unwrap(),
        file,
        "clean roundtrip"
    );

    // Wrong magic and wrong version are named errors, not generic ones.
    let mut magic = bytes.clone();
    magic[0] ^= 0x01;
    assert_eq!(SnapshotFile::decode(&magic), Err(SnapError::BadMagic));
    let mut version = bytes.clone();
    version[4] = 0x7f;
    assert_eq!(
        SnapshotFile::decode(&version),
        Err(SnapError::BadVersion(0x7f))
    );

    // A flipped checksum byte reports the mismatch.
    let mut checksum = bytes.clone();
    *checksum.last_mut().expect("non-empty") ^= 0xff;
    assert!(matches!(
        SnapshotFile::decode(&checksum),
        Err(SnapError::BadChecksum { .. })
    ));

    // Torn write: every truncation point fails.
    for cut in sample_indices(bytes.len()) {
        assert!(
            SnapshotFile::decode(&bytes[..cut]).is_err(),
            "truncation to {cut}/{} bytes must fail",
            bytes.len()
        );
    }

    // Bit rot: every sampled single-byte flip fails (the checksum covers
    // all content bytes, and flips in the trailer break the comparison).
    for i in sample_indices(bytes.len()) {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0x20;
        assert!(
            SnapshotFile::decode(&corrupt).is_err(),
            "byte flip at {i}/{} must fail",
            bytes.len()
        );
    }
}

#[test]
fn predictor_payload_truncation_fails_closed_for_every_kind() {
    for kind in PredictorKind::ALL {
        let preds = warm_cluster(kind, 1, 400, 0xFACE);
        let bytes = preds[0].snapshot_bytes();
        AnyPredictor::from_snapshot_bytes(&bytes).expect("clean payload decodes");
        for cut in sample_indices(bytes.len()) {
            if cut == bytes.len() {
                continue;
            }
            assert!(
                AnyPredictor::from_snapshot_bytes(&bytes[..cut]).is_err(),
                "{}: truncation to {cut}/{} bytes must fail",
                kind.label(),
                bytes.len()
            );
        }
        // Trailing garbage is a lie about the payload length.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(
            AnyPredictor::from_snapshot_bytes(&padded).is_err(),
            "{}: trailing byte must fail",
            kind.label()
        );
    }
}

#[test]
fn mixed_kind_shard_payloads_are_rejected() {
    let mascot = warm_cluster(PredictorKind::Mascot, 1, 200, 1).remove(0);
    let phast = warm_cluster(PredictorKind::Phast, 1, 200, 1).remove(0);
    let shards = vec![mascot.snapshot_bytes(), phast.snapshot_bytes()];
    // Rejected on the exact-count path (no merge would have caught it)...
    let err = predictors_from_snapshot(&shards, 2).expect_err("mixed kinds");
    assert!(err.contains("different predictor kind"), "got: {err}");
    // ...and on the merge path.
    assert!(predictors_from_snapshot(&shards, 1).is_err());
}

#[test]
fn resharding_matches_the_union_merge_on_every_target() {
    let (originals, file) = warm_container(PredictorKind::Mascot);
    let pcs = || (0..NUM_PCS).map(|i| PC_BASE + i * 4);

    // The resharding contract (DESIGN.md §10): an N→M reshard serves
    // exactly like the union merge of the N shards. Per-PC equality with
    // the *pre-merge owner* is deliberately not promised — when two
    // shards' entries overflow one associative set, the merge keeps the
    // higher-usefulness entry, which can change that PC's answer.
    let mut union = AnyPredictor::from_snapshot_bytes(&file.shards[0]).expect("shard 0");
    for payload in &file.shards[1..] {
        let other = AnyPredictor::from_snapshot_bytes(payload).expect("shard payload");
        union.merge_from(&other).expect("homogeneous shards merge");
    }
    let expected = probe(&union, pcs());

    for target in [1usize, 2, 5] {
        let restored =
            predictors_from_snapshot(&file.shards, target).expect("clean snapshot reshards");
        assert_eq!(restored.len(), target);
        for (shard, pred) in restored.iter().enumerate() {
            assert_eq!(
                probe(pred, pcs()),
                expected,
                "target shard {shard}/{target} diverged from the union"
            );
            assert_eq!(pred.entry_count(), union.entry_count());
        }
    }

    // Matching counts skip the merge and transfer bit-exactly.
    let exact = predictors_from_snapshot(&file.shards, 3).expect("exact transfer");
    for (restored, original) in exact.iter().zip(&originals) {
        assert_eq!(restored.snapshot_bytes(), original.snapshot_bytes());
        assert_eq!(restored.entry_count(), original.entry_count());
    }
}

/// Freezes the predictor snapshot format: a warmed predictor of every kind
/// must encode to exactly the bytes it encoded to when these digests were
/// taken. Round-trip tests alone would accept a format drift that still
/// decodes its own output; this one does not.
#[test]
fn snapshot_bytes_are_frozen_for_every_kind() {
    let frozen: [(PredictorKind, u64); 11] = [
        (PredictorKind::Mascot, 0x8f46_e5c5_0ea2_053a),
        (PredictorKind::MascotMdp, 0xeae5_3b41_7ec7_f82b),
        (PredictorKind::MascotOpt(0), 0xbccd_b6f8_e4f3_7791),
        (PredictorKind::TageNoNd, 0xdb31_9ac0_6b0c_5682),
        (PredictorKind::Phast, 0xbcc0_5ace_72c9_f833),
        (PredictorKind::NoSq, 0xbf8d_c734_b83a_c8c5),
        (PredictorKind::MdpTage, 0x67df_5547_756e_b195),
        (PredictorKind::StoreSets, 0x78e3_3171_c3ab_71ba),
        (PredictorKind::PerfectMdp, 0xaf63_bb4c_8601_b479),
        (PredictorKind::PerfectMdpSmb, 0xaf63_ba4c_8601_b2c6),
        (PredictorKind::RandomizedMascot, 0x3e52_9803_9e7e_d90f),
    ];
    assert_eq!(
        frozen.map(|(kind, _)| kind),
        PredictorKind::ALL,
        "every kind is frozen"
    );
    for (kind, digest) in frozen {
        let bytes = warm_cluster(kind, 1, 1_500, 0x5EED)[0].snapshot_bytes();
        assert_eq!(
            mascot_snapshot::fnv1a64(&bytes),
            digest,
            "{}: snapshot format drifted",
            kind.label()
        );
    }
}
