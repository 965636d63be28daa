//! The `MSRV` wire protocol's v3 frames, frozen and fuzzed.
//!
//! `frames_are_frozen` pins the exact bytes of one frame per `Request` and
//! `Response` variant (FNV-1a digest and length), so a codec refactor that
//! shifts a byte fails here before any peer mis-parses it. The fuzz test
//! feeds every payload truncation and every single-bit flip of those frames
//! through `parse_header` and the decoder for the frame's opcode: no mutant
//! may panic, and a mutant that decodes must re-encode to exactly its own
//! bytes — an encoding has one canonical form.

use mascot::prediction::{
    BypassClass, LoadOutcome, MemDepPrediction, ObservedDependence, StoreDistance,
};
use mascot_serve::wire::{
    encode_frame, parse_header, Opcode, PredictItem, PredictReply, Request, Response, ShardStats,
    StatsReport, TrainItem, WireError, HEADER_LEN,
};
use mascot_snapshot::fnv1a64;

fn dist(n: u32) -> StoreDistance {
    StoreDistance::new(n).expect("distance in range")
}

fn dependent(distance: u32, class: BypassClass, store_pc: u64, branches: u32) -> LoadOutcome {
    LoadOutcome::dependent(ObservedDependence {
        distance: dist(distance),
        class,
        store_pc,
        branches_between: branches,
    })
}

/// One request of every variant, batches both empty and non-empty; the
/// train batch carries an independent outcome and one per `BypassClass`.
fn requests() -> Vec<Request> {
    vec![
        Request::Predict(Vec::new()),
        Request::Predict(vec![
            PredictItem {
                pc: 0x40_1000,
                store_seq: 7,
            },
            PredictItem {
                pc: u64::MAX,
                store_seq: 0x0123_4567_89ab_cdef,
            },
        ]),
        Request::Train(Vec::new()),
        Request::Train(vec![
            TrainItem {
                ticket: 1,
                pc: 0x40_1008,
                outcome: LoadOutcome::independent(),
            },
            TrainItem {
                ticket: 2,
                pc: 0x40_1010,
                outcome: dependent(1, BypassClass::DirectBypass, 0x40_0ff0, 0),
            },
            TrainItem {
                ticket: 3,
                pc: 0x40_1018,
                outcome: dependent(42, BypassClass::NoOffset, 0x40_0fe8, 3),
            },
            TrainItem {
                ticket: 0xdead_beef,
                pc: 0x40_1020,
                outcome: dependent(127, BypassClass::Offset, u64::MAX, u32::MAX),
            },
            TrainItem {
                ticket: u32::MAX,
                pc: 0x40_1028,
                outcome: dependent(9, BypassClass::MdpOnly, 0x40_0f00, 17),
            },
        ]),
        Request::Stats,
        Request::Shutdown,
        Request::Snapshot,
        Request::Restore(Vec::new()),
        Request::Restore(b"MSNP\x01opaque-at-this-layer".to_vec()),
    ]
}

/// A shard whose 16 counters are all distinct, so a swapped field shows.
fn distinct_shard() -> ShardStats {
    ShardStats {
        requests: 0x0101,
        predicts: 0x0202,
        trains: 0x0303,
        stale_trains: 0x0404,
        evicted_pending: 0x0505,
        missed_dependencies: 0x0606,
        false_dependencies: 0x0707,
        false_bypasses: 0x0808,
        batches: 0x0909,
        rejected_full: 0x0a0a,
        service_samples: 0x0b0b,
        service_p50_ns: 0x0c0c,
        service_p99_ns: 0x0d0d,
        restored_entries: 0x0e0e,
        snapshot_age_s: 0x0f0f,
        restarts: 0x1010_0000_0000_1010,
    }
}

/// One response of every variant, each paired with the opcode it answers;
/// the predict replies cover every `MemDepPrediction` kind.
fn responses() -> Vec<(Opcode, Response)> {
    vec![
        (Opcode::Predict, Response::Predict(Vec::new())),
        (
            Opcode::Predict,
            Response::Predict(vec![
                PredictReply {
                    ticket: 0,
                    prediction: MemDepPrediction::NoDependence,
                },
                PredictReply {
                    ticket: 0x1234_5678,
                    prediction: MemDepPrediction::Dependence { distance: dist(1) },
                },
                PredictReply {
                    ticket: u32::MAX,
                    prediction: MemDepPrediction::Bypass {
                        distance: dist(127),
                    },
                },
            ]),
        ),
        (
            Opcode::Train,
            Response::Train {
                applied: 5,
                stale: 0x0102_0304,
            },
        ),
        (Opcode::Stats, Response::Stats(StatsReport::default())),
        (
            Opcode::Stats,
            Response::Stats(StatsReport {
                shards: vec![
                    distinct_shard(),
                    ShardStats {
                        requests: 1,
                        ..Default::default()
                    },
                ],
            }),
        ),
        (
            Opcode::Shutdown,
            Response::Shutdown {
                served: 0x00ff_00ff_00ff,
            },
        ),
        (Opcode::Snapshot, Response::Snapshot(Vec::new())),
        (Opcode::Snapshot, Response::Snapshot(vec![0xa5; 33])),
        (
            Opcode::Restore,
            Response::Restore {
                restored_entries: 98_765,
            },
        ),
        (
            Opcode::Train,
            Response::Error("corrupt frame: batch exceeds MAX_BATCH".into()),
        ),
    ]
}

/// Every frame of the corpus: `(opcode the frame belongs to, is a request,
/// encoded bytes)`.
fn frames() -> Vec<(Opcode, bool, Vec<u8>)> {
    let mut out: Vec<_> = requests()
        .into_iter()
        .map(|req| (req.opcode(), true, req.encode_frame().expect("encodable")))
        .collect();
    out.extend(
        responses()
            .into_iter()
            .map(|(op, resp)| (op, false, resp.encode_frame().expect("encodable"))),
    );
    out
}

/// Decodes `frame` as a request or as the response to `op`, then encodes
/// the result again, returning the bytes the frame took up and their
/// re-encoding. `Ok(None)` means the frame was rejected cleanly.
fn decode_and_reencode(
    op: Opcode,
    request: bool,
    frame: &[u8],
) -> Result<Option<(usize, Vec<u8>)>, WireError> {
    let header: &[u8; HEADER_LEN] = frame[..HEADER_LEN].try_into().expect("header");
    let (code, len) = match parse_header(header) {
        Ok(parsed) => parsed,
        Err(_) => return Ok(None),
    };
    // A header that claims more bytes than follow is an incomplete frame
    // (the reader waits for the rest); fewer leaves the tail to the next
    // frame, so only `len` bytes are this frame's payload.
    let Some(payload) = frame[HEADER_LEN..].get(..len) else {
        return Ok(None);
    };
    let encoded = if request {
        match Request::decode(code, payload) {
            Ok(req) => req.encode_frame()?,
            Err(_) => return Ok(None),
        }
    } else {
        match Response::decode(op, code, payload) {
            Ok(resp) => resp.encode_frame()?,
            Err(_) => return Ok(None),
        }
    };
    Ok(Some((HEADER_LEN + len, encoded)))
}

#[test]
fn frames_are_frozen() {
    // (FNV-1a of the frame, frame length), in `frames()` order.
    let frozen: [(u64, usize); 19] = [
        (0x6d99_a5e5_0b60_824b, 12),
        (0xf981_8a08_3838_c186, 44),
        (0x1da2_3346_15e5_09ba, 12),
        (0xf6ee_c805_42aa_d9ca, 147),
        (0x3a1e_98d0_7837_2e6b, 10),
        (0x7989_08a4_eac4_425a, 10),
        (0x8637_ebcf_6813_acbd, 10),
        (0x602b_424f_f025_6d94, 10),
        (0xb53f_898a_c14a_c278, 35),
        (0x35ed_998f_01c5_968c, 12),
        (0x7405_f758_dc1c_8b30, 30),
        (0x3466_7034_a950_c6f3, 18),
        (0xc4ff_a3f2_945c_ac2a, 14),
        (0x0bef_c0fc_b917_d2e6, 270),
        (0x135b_204e_8143_1981, 18),
        (0x46cd_7bfa_f586_98ce, 10),
        (0x1989_31e4_cd84_848e, 43),
        (0x22e2_b86f_e4eb_d4c9, 18),
        (0x401f_12ff_785c_84f4, 48),
    ];
    let frames = frames();
    assert_eq!(frames.len(), frozen.len(), "one pinned digest per frame");
    for (i, ((op, request, frame), (digest, len))) in frames.iter().zip(frozen).enumerate() {
        assert_eq!(
            (fnv1a64(frame), frame.len()),
            (digest, len),
            "frame {i} ({op:?}, request: {request}) drifted from wire v3"
        );
    }
}

#[test]
fn every_truncation_and_bit_flip_fails_closed_or_is_canonical() {
    let mut decoded = 0usize;
    for (op, request, frame) in frames() {
        let (code, len) = parse_header(frame[..HEADER_LEN].try_into().unwrap()).unwrap();
        let payload = &frame[HEADER_LEN..];
        assert_eq!(payload.len(), len);
        // Every shorter payload, re-framed with a matching length so the
        // header is consistent and the decoder sees the cut.
        let truncations = (0..len).map(|cut| encode_frame(code, &payload[..cut]));
        let flips = (0..frame.len() * 8).map(|bit| {
            let mut m = frame.clone();
            m[bit / 8] ^= 1 << (bit % 8);
            m
        });
        for mutant in truncations.chain(flips) {
            let reencoded = decode_and_reencode(op, request, &mutant)
                .unwrap_or_else(|e| panic!("{op:?}: decoded mutant failed to encode: {e}"));
            if let Some((taken, reencoded)) = reencoded {
                decoded += 1;
                assert_eq!(
                    reencoded,
                    mutant[..taken],
                    "{op:?} (request: {request}): a mutant decoded to a value whose \
                     encoding differs from the mutant"
                );
            }
        }
    }
    // Payload bits that carry plain integers must survive a flip; a fuzz
    // that rejects everything proves nothing.
    assert!(decoded > 1_000, "only {decoded} mutants decoded");
}
