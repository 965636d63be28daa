//! The `mascot-serve` binary wire protocol.
//!
//! A versioned little-endian framing in the style of the trace codec
//! (`mascot_sim::codec`): every frame is
//!
//! ```text
//! magic "MSRV" (4) | version (1) | code (1) | payload_len u32 | payload
//! ```
//!
//! Requests carry an [`Opcode`] in the code byte; responses carry a
//! [`Status`]. Predict and Train payloads are length-prefixed micro-batches
//! of fixed-size items, so a frame is validated arithmetically (`payload_len
//! == 2 + count * item_size`) before any allocation, and the claimed batch
//! size is capped at [`MAX_BATCH`] — a hostile header can never drive a
//! large allocation or a panic.
//!
//! Predictor metadata ([`mascot_predictors::AnyMeta`]) never crosses the
//! wire: a `Predict` response returns a per-item *ticket* naming the
//! server-side slot holding the `(prediction, meta)` pair, and the matching
//! `Train` request quotes the ticket back (the service-level analogue of
//! carrying TAGE lookup indices in a ROB payload). See `DESIGN.md` §A.

use std::io::{self, Read, Write};

use mascot::prediction::{
    BypassClass, LoadOutcome, MemDepPrediction, ObservedDependence, StoreDistance,
};

/// Frame magic.
pub const MAGIC: [u8; 4] = *b"MSRV";
/// Protocol version. Version 2 added the `Snapshot`/`Restore` opcodes and
/// three warm-start counters per [`ShardStats`] entry; version 3 added the
/// pending-eviction counter and the per-shard misprediction taxonomy
/// (DESIGN.md §12). Older frames are rejected with
/// [`WireError::BadVersion`] (the stats layout changed, so silent interop
/// would mis-parse).
pub const VERSION: u8 = 3;
/// Bytes in a frame header (magic + version + code + payload length).
pub const HEADER_LEN: usize = 10;
/// Upper bound on a regular frame payload, enforced before allocation.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 20;
/// Upper bound on a frame payload that carries predictor-state snapshot
/// bytes (`Restore` requests and `Ok` responses, which include `Snapshot`
/// replies). Matches `mascot_snapshot`'s own per-shard payload cap.
pub const MAX_SNAPSHOT_FRAME_PAYLOAD: usize = 1 << 26;
/// Upper bound on items per micro-batch.
pub const MAX_BATCH: usize = 4096;
/// Upper bound on shards a `Stats` response may describe.
pub const MAX_SHARDS: usize = 1024;

/// Encoded size of one [`PredictItem`].
const PREDICT_ITEM_BYTES: usize = 16;
/// Encoded size of one [`TrainItem`]: ticket + pc + outcome
/// (flag, distance, class, store_pc, branches_between).
const TRAIN_ITEM_BYTES: usize = 4 + 8 + 1 + 1 + 1 + 8 + 4;
/// Encoded size of one [`PredictReply`].
const PREDICT_REPLY_BYTES: usize = 6;
/// Encoded size of one [`ShardStats`].
const SHARD_STATS_BYTES: usize = 16 * 8;

/// The payload cap for a frame with the given code byte. Snapshot bytes
/// flow in `Restore` requests (code 6) and `Ok` responses (code 0, which is
/// also every `Snapshot` reply); those get the larger cap, everything else
/// keeps the tight one.
pub fn max_payload(code: u8) -> usize {
    match code {
        0 | 6 => MAX_SNAPSHOT_FRAME_PAYLOAD,
        _ => MAX_FRAME_PAYLOAD,
    }
}

/// Request opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// A micro-batch of load predictions.
    Predict = 1,
    /// A micro-batch of commit-time training records.
    Train = 2,
    /// Snapshot of per-shard service metrics.
    Stats = 3,
    /// Graceful shutdown: drain in-flight batches, then exit.
    Shutdown = 4,
    /// Serialize the full predictor state of every shard (v2).
    Snapshot = 5,
    /// Replace the predictor state of every shard from a snapshot (v2).
    Restore = 6,
}

impl Opcode {
    fn from_code(code: u8) -> Result<Self, WireError> {
        Ok(match code {
            1 => Opcode::Predict,
            2 => Opcode::Train,
            3 => Opcode::Stats,
            4 => Opcode::Shutdown,
            5 => Opcode::Snapshot,
            6 => Opcode::Restore,
            other => return Err(WireError::BadOpcode(other)),
        })
    }
}

/// Response status codes. Code 1 (the retired `Busy`) is rejected as
/// [`WireError::BadStatus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// The request was served; payload shape depends on the request opcode.
    Ok = 0,
    /// The request was malformed; payload is a UTF-8 message.
    Error = 2,
}

/// Errors produced while reading or decoding frames.
#[derive(Debug)]
pub enum WireError {
    /// The frame does not start with the `MSRV` magic.
    BadMagic,
    /// The protocol version is not supported.
    BadVersion(u8),
    /// Unknown request opcode.
    BadOpcode(u8),
    /// Unknown response status.
    BadStatus(u8),
    /// The payload length exceeds [`MAX_FRAME_PAYLOAD`].
    TooLarge(u32),
    /// A batch handed to the encoder exceeds the wire limit. Caught at
    /// encode time: the length prefix is a `u16`, so an unchecked cast
    /// would silently truncate (65 536 items would go out as 0).
    BatchTooLarge(usize),
    /// The payload was truncated or a field was out of range.
    Corrupt(&'static str),
    /// The peer closed the connection where a frame was expected.
    Closed,
    /// An underlying I/O error.
    Io(io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "not a mascot-serve frame (bad magic)"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadOpcode(c) => write!(f, "unknown opcode {c}"),
            WireError::BadStatus(c) => write!(f, "unknown response status {c}"),
            WireError::TooLarge(n) => write!(f, "frame payload of {n} bytes exceeds limit"),
            WireError::BatchTooLarge(n) => {
                write!(f, "batch of {n} items exceeds the wire limit of {MAX_BATCH}")
            }
            WireError::Corrupt(what) => write!(f, "corrupt frame: {what}"),
            WireError::Closed => write!(f, "connection closed"),
            WireError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// One load-prediction query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictItem {
    /// PC of the load instruction (also the sharding key).
    pub pc: u64,
    /// Count of stores dispatched before this load (sequence-based
    /// predictors convert absolute store ids to distances with it).
    pub store_seq: u64,
}

/// One prediction result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictReply {
    /// Server-side slot holding the `(prediction, meta)` pair; quote it
    /// back in the matching [`TrainItem`].
    pub ticket: u32,
    /// The three-way prediction.
    pub prediction: MemDepPrediction,
}

/// One commit-time training record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainItem {
    /// Ticket from the [`PredictReply`] this outcome resolves.
    pub ticket: u32,
    /// PC of the load (must match the ticket's; also the sharding key).
    pub pc: u64,
    /// The observed outcome.
    pub outcome: LoadOutcome,
}

/// Point-in-time counters for one shard, as reported by `Stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Predict + train items processed.
    pub requests: u64,
    /// Predict items processed.
    pub predicts: u64,
    /// Train items applied.
    pub trains: u64,
    /// Train items dropped because their ticket had been evicted or did not
    /// match (the prediction outlived the pending window).
    pub stale_trains: u64,
    /// Pending predictions recycled before their train arrived (the
    /// in-flight window outran the shard's pending capacity); fatal when
    /// the pool runs with `strict_tickets`.
    pub evicted_pending: u64,
    /// Applied trains that predicted `NoDependence` on a dependent outcome.
    pub missed_dependencies: u64,
    /// Applied trains that predicted `Dependence` on an independent
    /// outcome.
    pub false_dependencies: u64,
    /// Applied trains that predicted `Bypass` on an independent outcome —
    /// the squash-causing shape a mistraining attacker induces
    /// (DESIGN.md §12).
    pub false_bypasses: u64,
    /// Jobs the shard executed. `mascotd` runs each job on its own, so this
    /// equals `service_samples`.
    pub batches: u64,
    /// Items rejected for a full queue. Always 0: the shards have no
    /// queue; the field stays until the next wire version.
    pub rejected_full: u64,
    /// Number of service-time samples in the histogram.
    pub service_samples: u64,
    /// Approximate p50 service time per job, nanoseconds.
    pub service_p50_ns: u64,
    /// Approximate p99 service time per job, nanoseconds.
    pub service_p99_ns: u64,
    /// Entries restored into this shard's predictor at the last warm start
    /// or `Restore` (0 on a cold start).
    pub restored_entries: u64,
    /// Age of the restored snapshot at restore time, seconds (0 when cold).
    pub snapshot_age_s: u64,
    /// Times this predictor state has been through a checkpoint/restore
    /// cycle (carried in the snapshot itself, so it survives restarts).
    pub restarts: u64,
}

/// The full `Stats` response: one entry per shard.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsReport {
    /// Per-shard counters, indexed by shard id.
    pub shards: Vec<ShardStats>,
}

impl StatsReport {
    /// Total items processed across shards.
    pub fn total_requests(&self) -> u64 {
        self.shards.iter().map(|s| s.requests).sum()
    }

    /// Total predict items across shards.
    pub fn total_predicts(&self) -> u64 {
        self.shards.iter().map(|s| s.predicts).sum()
    }

    /// Total applied train items across shards.
    pub fn total_trains(&self) -> u64 {
        self.shards.iter().map(|s| s.trains).sum()
    }

    /// Total items rejected for a full queue across shards (always 0).
    pub fn total_rejected(&self) -> u64 {
        self.shards.iter().map(|s| s.rejected_full).sum()
    }

    /// Total entries restored across shards at the last warm start.
    pub fn total_restored(&self) -> u64 {
        self.shards.iter().map(|s| s.restored_entries).sum()
    }

    /// Total pending predictions evicted before their train arrived.
    pub fn total_evicted_pending(&self) -> u64 {
        self.shards.iter().map(|s| s.evicted_pending).sum()
    }

    /// Total applied-train mispredictions across shards (missed + false
    /// dependencies + false bypasses) — the serving-side pollution signal.
    pub fn total_mispredictions(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.missed_dependencies + s.false_dependencies + s.false_bypasses)
            .sum()
    }
}

/// A request frame body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Micro-batch of prediction queries.
    Predict(Vec<PredictItem>),
    /// Micro-batch of training records.
    Train(Vec<TrainItem>),
    /// Metrics snapshot.
    Stats,
    /// Graceful shutdown.
    Shutdown,
    /// Serialize the full predictor state of every shard.
    Snapshot,
    /// Replace every shard's predictor state from an encoded
    /// `mascot_snapshot::SnapshotFile` container (opaque at this layer).
    Restore(Vec<u8>),
}

/// A response frame body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Predictions, in request order.
    Predict(Vec<PredictReply>),
    /// Training summary.
    Train {
        /// Items whose ticket matched and trained the predictor.
        applied: u32,
        /// Items dropped on a stale/mismatched ticket.
        stale: u32,
    },
    /// Metrics snapshot.
    Stats(StatsReport),
    /// Shutdown acknowledged.
    Shutdown {
        /// Total items served over the server's lifetime.
        served: u64,
    },
    /// An encoded `mascot_snapshot::SnapshotFile` container holding every
    /// shard's predictor state (opaque at this layer).
    Snapshot(Vec<u8>),
    /// Restore summary.
    Restore {
        /// Entries restored across all shards.
        restored_entries: u64,
    },
    /// The request was malformed.
    Error(String),
}

// ---------------------------------------------------------------------------
// Little-endian payload primitives (same style as mascot_sim::codec).

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(WireError::Corrupt("truncated payload"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Corrupt("trailing bytes"))
        }
    }
}

/// Reads and validates a batch count, bounding the upcoming allocation by
/// the payload the peer actually sent.
fn batch_count(r: &mut Reader<'_>, item_bytes: usize) -> Result<usize, WireError> {
    let count = usize::from(r.u16()?);
    if count > MAX_BATCH {
        return Err(WireError::Corrupt("batch exceeds MAX_BATCH"));
    }
    if r.buf.len() - r.pos != count * item_bytes {
        return Err(WireError::Corrupt("batch length mismatch"));
    }
    Ok(count)
}

/// Validates an outgoing batch size against [`MAX_BATCH`] and returns the
/// `u16` count prefix — the encode-time twin of [`batch_count`].
fn batch_len(len: usize) -> Result<u16, WireError> {
    if len > MAX_BATCH {
        return Err(WireError::BatchTooLarge(len));
    }
    Ok(len as u16)
}

fn class_code(c: BypassClass) -> u8 {
    match c {
        BypassClass::DirectBypass => 0,
        BypassClass::NoOffset => 1,
        BypassClass::Offset => 2,
        BypassClass::MdpOnly => 3,
    }
}

fn class_from(code: u8) -> Result<BypassClass, WireError> {
    Ok(match code {
        0 => BypassClass::DirectBypass,
        1 => BypassClass::NoOffset,
        2 => BypassClass::Offset,
        3 => BypassClass::MdpOnly,
        _ => return Err(WireError::Corrupt("bypass class")),
    })
}

fn put_prediction(out: &mut Vec<u8>, p: MemDepPrediction) {
    let (tag, dist) = match p {
        MemDepPrediction::NoDependence => (0u8, 0u8),
        MemDepPrediction::Dependence { distance } => (1, distance.get()),
        MemDepPrediction::Bypass { distance } => (2, distance.get()),
    };
    out.push(tag);
    out.push(dist);
}

fn get_prediction(tag: u8, dist: u8) -> Result<MemDepPrediction, WireError> {
    let distance = || {
        StoreDistance::new(u32::from(dist)).ok_or(WireError::Corrupt("store distance out of range"))
    };
    Ok(match tag {
        0 if dist == 0 => MemDepPrediction::NoDependence,
        0 => return Err(WireError::Corrupt("distance on no-dependence")),
        1 => MemDepPrediction::Dependence {
            distance: distance()?,
        },
        2 => MemDepPrediction::Bypass {
            distance: distance()?,
        },
        _ => return Err(WireError::Corrupt("prediction tag")),
    })
}

fn put_outcome(out: &mut Vec<u8>, o: &LoadOutcome) {
    match &o.dependence {
        None => {
            out.push(0);
            out.push(0);
            out.push(0);
            out.extend_from_slice(&0u64.to_le_bytes());
            out.extend_from_slice(&0u32.to_le_bytes());
        }
        Some(d) => {
            out.push(1);
            out.push(d.distance.get());
            out.push(class_code(d.class));
            out.extend_from_slice(&d.store_pc.to_le_bytes());
            out.extend_from_slice(&d.branches_between.to_le_bytes());
        }
    }
}

fn get_outcome(r: &mut Reader<'_>) -> Result<LoadOutcome, WireError> {
    let flag = r.u8()?;
    let dist = r.u8()?;
    let class = r.u8()?;
    let store_pc = r.u64()?;
    let branches_between = r.u32()?;
    match flag {
        0 => Ok(LoadOutcome::independent()),
        1 => Ok(LoadOutcome::dependent(ObservedDependence {
            distance: StoreDistance::new(u32::from(dist))
                .ok_or(WireError::Corrupt("outcome distance out of range"))?,
            class: class_from(class)?,
            store_pc,
            branches_between,
        })),
        _ => Err(WireError::Corrupt("outcome flag")),
    }
}

// ---------------------------------------------------------------------------
// Framing.

/// Assembles a complete frame (header + payload) for a single `write_all`.
pub fn encode_frame(code: u8, payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= max_payload(code), "payload exceeds limit");
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(code);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Fills `buf` from `r`.
///
/// Returns `Ok(false)` when the stream closed *before the first byte* (a
/// clean stop); a close once the frame has started is corruption. A read
/// timeout (`WouldBlock` / `TimedOut`) is an error like any other.
fn read_full<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<bool, WireError> {
    let mut pos = 0;
    while pos < buf.len() {
        match r.read(&mut buf[pos..]) {
            Ok(0) => {
                return if pos == 0 {
                    Ok(false)
                } else {
                    Err(WireError::Corrupt("connection closed mid-frame"))
                }
            }
            Ok(n) => pos += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(true)
}

/// Validates a frame header and returns its `(code, payload_len)`. The
/// single source of truth for header checks — the blocking reader
/// ([`read_frame`]) and the event loop's incremental parser
/// ([`crate::conn::RecvBuf`]) both call it, so a malformed stream fails
/// identically whichever front end reads it.
///
/// # Errors
///
/// [`WireError::BadMagic`], [`WireError::BadVersion`], or
/// [`WireError::TooLarge`] when the claimed payload exceeds
/// [`max_payload`] for the code byte.
pub fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(u8, usize), WireError> {
    if header[..4] != MAGIC {
        return Err(WireError::BadMagic);
    }
    if header[4] != VERSION {
        return Err(WireError::BadVersion(header[4]));
    }
    let code = header[5];
    let len = u32::from_le_bytes(header[6..10].try_into().expect("4 bytes"));
    if len as usize > max_payload(code) {
        return Err(WireError::TooLarge(len));
    }
    Ok((code, len as usize))
}

/// Reads one frame, blocking until it arrives. `None` means the peer
/// closed between frames — a clean end of stream.
///
/// # Errors
///
/// A malformed header or a close mid-frame, as [`parse_header`] and
/// [`WireError::Corrupt`]; any read error other than `Interrupted` —
/// including the expiry of a read timeout set on the stream — as
/// [`WireError::Io`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<(u8, Vec<u8>)>, WireError> {
    let mut header = [0u8; HEADER_LEN];
    if !read_full(r, &mut header)? {
        return Ok(None);
    }
    let (code, len) = parse_header(&header)?;
    let mut payload = vec![0u8; len];
    if !read_full(r, &mut payload)? {
        return Err(WireError::Corrupt("connection closed mid-frame"));
    }
    Ok(Some((code, payload)))
}

/// Writes a complete frame.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_frame<W: Write>(w: &mut W, code: u8, payload: &[u8]) -> io::Result<()> {
    w.write_all(&encode_frame(code, payload))
}

// ---------------------------------------------------------------------------
// Request encode/decode.

impl Request {
    /// The opcode carried in this request's frame header.
    pub fn opcode(&self) -> Opcode {
        match self {
            Request::Predict(_) => Opcode::Predict,
            Request::Train(_) => Opcode::Train,
            Request::Stats => Opcode::Stats,
            Request::Shutdown => Opcode::Shutdown,
            Request::Snapshot => Opcode::Snapshot,
            Request::Restore(_) => Opcode::Restore,
        }
    }

    /// Encodes the payload (without the frame header).
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BatchTooLarge`] when a batch exceeds
    /// [`MAX_BATCH`]: the count prefix is a `u16`, and an unchecked cast
    /// would truncate silently (a 65 536-item batch would claim 0 items).
    pub fn encode_payload(&self) -> Result<Vec<u8>, WireError> {
        Ok(match self {
            Request::Predict(items) => {
                let count = batch_len(items.len())?;
                let mut out = Vec::with_capacity(2 + items.len() * PREDICT_ITEM_BYTES);
                out.extend_from_slice(&count.to_le_bytes());
                for item in items {
                    out.extend_from_slice(&item.pc.to_le_bytes());
                    out.extend_from_slice(&item.store_seq.to_le_bytes());
                }
                out
            }
            Request::Train(items) => {
                let count = batch_len(items.len())?;
                let mut out = Vec::with_capacity(2 + items.len() * TRAIN_ITEM_BYTES);
                out.extend_from_slice(&count.to_le_bytes());
                for item in items {
                    out.extend_from_slice(&item.ticket.to_le_bytes());
                    out.extend_from_slice(&item.pc.to_le_bytes());
                    put_outcome(&mut out, &item.outcome);
                }
                out
            }
            Request::Stats | Request::Shutdown | Request::Snapshot => Vec::new(),
            Request::Restore(bytes) => {
                if bytes.len() > MAX_SNAPSHOT_FRAME_PAYLOAD {
                    return Err(WireError::TooLarge(u32::MAX));
                }
                bytes.clone()
            }
        })
    }

    /// Assembles the complete request frame.
    ///
    /// # Errors
    ///
    /// As in [`Request::encode_payload`].
    pub fn encode_frame(&self) -> Result<Vec<u8>, WireError> {
        Ok(encode_frame(self.opcode() as u8, &self.encode_payload()?))
    }

    /// Decodes a request from a frame's code byte and payload.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on an unknown opcode, a length/batch-size
    /// mismatch, or an out-of-range field.
    pub fn decode(code: u8, payload: &[u8]) -> Result<Request, WireError> {
        let mut r = Reader::new(payload);
        match Opcode::from_code(code)? {
            Opcode::Predict => {
                let count = batch_count(&mut r, PREDICT_ITEM_BYTES)?;
                let mut items = Vec::with_capacity(count);
                for _ in 0..count {
                    items.push(PredictItem {
                        pc: r.u64()?,
                        store_seq: r.u64()?,
                    });
                }
                r.finish()?;
                Ok(Request::Predict(items))
            }
            Opcode::Train => {
                let count = batch_count(&mut r, TRAIN_ITEM_BYTES)?;
                let mut items = Vec::with_capacity(count);
                for _ in 0..count {
                    items.push(TrainItem {
                        ticket: r.u32()?,
                        pc: r.u64()?,
                        outcome: get_outcome(&mut r)?,
                    });
                }
                r.finish()?;
                Ok(Request::Train(items))
            }
            Opcode::Stats => {
                r.finish()?;
                Ok(Request::Stats)
            }
            Opcode::Shutdown => {
                r.finish()?;
                Ok(Request::Shutdown)
            }
            Opcode::Snapshot => {
                r.finish()?;
                Ok(Request::Snapshot)
            }
            // The snapshot container validates itself (magic, version,
            // checksum) in `mascot_snapshot`; the wire layer only bounds it.
            Opcode::Restore => Ok(Request::Restore(payload.to_vec())),
        }
    }
}

// ---------------------------------------------------------------------------
// Response encode/decode.

impl Response {
    /// The status code carried in this response's frame header.
    pub fn status(&self) -> Status {
        match self {
            Response::Error(_) => Status::Error,
            _ => Status::Ok,
        }
    }

    /// Encodes the payload (without the frame header).
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BatchTooLarge`] when a reply batch exceeds
    /// [`MAX_BATCH`] or a stats report exceeds [`MAX_SHARDS`] — the count
    /// prefixes are narrow, so oversizes must fail rather than truncate.
    pub fn encode_payload(&self) -> Result<Vec<u8>, WireError> {
        Ok(match self {
            Response::Predict(replies) => {
                let count = batch_len(replies.len())?;
                let mut out = Vec::with_capacity(2 + replies.len() * PREDICT_REPLY_BYTES);
                out.extend_from_slice(&count.to_le_bytes());
                for reply in replies {
                    out.extend_from_slice(&reply.ticket.to_le_bytes());
                    put_prediction(&mut out, reply.prediction);
                }
                out
            }
            Response::Train { applied, stale } => {
                let mut out = Vec::with_capacity(8);
                out.extend_from_slice(&applied.to_le_bytes());
                out.extend_from_slice(&stale.to_le_bytes());
                out
            }
            Response::Stats(report) => {
                if report.shards.len() > MAX_SHARDS {
                    return Err(WireError::BatchTooLarge(report.shards.len()));
                }
                let mut out = Vec::with_capacity(4 + report.shards.len() * SHARD_STATS_BYTES);
                out.extend_from_slice(&(report.shards.len() as u32).to_le_bytes());
                for s in &report.shards {
                    for field in [
                        s.requests,
                        s.predicts,
                        s.trains,
                        s.stale_trains,
                        s.evicted_pending,
                        s.missed_dependencies,
                        s.false_dependencies,
                        s.false_bypasses,
                        s.batches,
                        s.rejected_full,
                        s.service_samples,
                        s.service_p50_ns,
                        s.service_p99_ns,
                        s.restored_entries,
                        s.snapshot_age_s,
                        s.restarts,
                    ] {
                        out.extend_from_slice(&field.to_le_bytes());
                    }
                }
                out
            }
            Response::Shutdown { served } => served.to_le_bytes().to_vec(),
            Response::Snapshot(bytes) => {
                if bytes.len() > MAX_SNAPSHOT_FRAME_PAYLOAD {
                    return Err(WireError::TooLarge(u32::MAX));
                }
                bytes.clone()
            }
            Response::Restore { restored_entries } => restored_entries.to_le_bytes().to_vec(),
            Response::Error(msg) => msg.as_bytes().to_vec(),
        })
    }

    /// Assembles the complete response frame.
    ///
    /// # Errors
    ///
    /// As in [`Response::encode_payload`].
    pub fn encode_frame(&self) -> Result<Vec<u8>, WireError> {
        Ok(encode_frame(self.status() as u8, &self.encode_payload()?))
    }

    /// Decodes a response to a request with opcode `for_op`.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on an unknown status, a length/batch-size
    /// mismatch, or an out-of-range field.
    pub fn decode(for_op: Opcode, code: u8, payload: &[u8]) -> Result<Response, WireError> {
        let status = match code {
            0 => Status::Ok,
            2 => Status::Error,
            other => return Err(WireError::BadStatus(other)),
        };
        let mut r = Reader::new(payload);
        match status {
            Status::Error => Ok(Response::Error(
                String::from_utf8(payload.to_vec())
                    .map_err(|_| WireError::Corrupt("error message is not UTF-8"))?,
            )),
            Status::Ok => match for_op {
                Opcode::Predict => {
                    let count = batch_count(&mut r, PREDICT_REPLY_BYTES)?;
                    let mut replies = Vec::with_capacity(count);
                    for _ in 0..count {
                        let ticket = r.u32()?;
                        let tag = r.u8()?;
                        let dist = r.u8()?;
                        replies.push(PredictReply {
                            ticket,
                            prediction: get_prediction(tag, dist)?,
                        });
                    }
                    r.finish()?;
                    Ok(Response::Predict(replies))
                }
                Opcode::Train => {
                    let applied = r.u32()?;
                    let stale = r.u32()?;
                    r.finish()?;
                    Ok(Response::Train { applied, stale })
                }
                Opcode::Stats => {
                    let count = r.u32()? as usize;
                    if count > MAX_SHARDS {
                        return Err(WireError::Corrupt("shard count exceeds limit"));
                    }
                    if r.buf.len() - r.pos != count * SHARD_STATS_BYTES {
                        return Err(WireError::Corrupt("stats length mismatch"));
                    }
                    let mut shards = Vec::with_capacity(count);
                    for _ in 0..count {
                        shards.push(ShardStats {
                            requests: r.u64()?,
                            predicts: r.u64()?,
                            trains: r.u64()?,
                            stale_trains: r.u64()?,
                            evicted_pending: r.u64()?,
                            missed_dependencies: r.u64()?,
                            false_dependencies: r.u64()?,
                            false_bypasses: r.u64()?,
                            batches: r.u64()?,
                            rejected_full: r.u64()?,
                            service_samples: r.u64()?,
                            service_p50_ns: r.u64()?,
                            service_p99_ns: r.u64()?,
                            restored_entries: r.u64()?,
                            snapshot_age_s: r.u64()?,
                            restarts: r.u64()?,
                        });
                    }
                    r.finish()?;
                    Ok(Response::Stats(StatsReport { shards }))
                }
                Opcode::Shutdown => {
                    let served = r.u64()?;
                    r.finish()?;
                    Ok(Response::Shutdown { served })
                }
                Opcode::Snapshot => Ok(Response::Snapshot(payload.to_vec())),
                Opcode::Restore => {
                    let restored_entries = r.u64()?;
                    r.finish()?;
                    Ok(Response::Restore { restored_entries })
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(n: u32) -> StoreDistance {
        StoreDistance::new(n).unwrap()
    }

    fn roundtrip_request(req: Request) -> Request {
        let frame = req.encode_frame().unwrap();
        let (code, payload) = read_frame(&mut frame.as_slice()).unwrap().unwrap();
        Request::decode(code, &payload).unwrap()
    }

    fn roundtrip_response(for_op: Opcode, resp: Response) -> Response {
        let frame = resp.encode_frame().unwrap();
        let (code, payload) = read_frame(&mut frame.as_slice()).unwrap().unwrap();
        Response::decode(for_op, code, &payload).unwrap()
    }

    #[test]
    fn predict_roundtrip() {
        let req = Request::Predict(vec![
            PredictItem { pc: 0x1000, store_seq: 7 },
            PredictItem { pc: u64::MAX, store_seq: 0 },
        ]);
        assert_eq!(roundtrip_request(req.clone()), req);
        let resp = Response::Predict(vec![
            PredictReply { ticket: 1, prediction: MemDepPrediction::NoDependence },
            PredictReply { ticket: 2, prediction: MemDepPrediction::Dependence { distance: dist(1) } },
            PredictReply { ticket: u32::MAX, prediction: MemDepPrediction::Bypass { distance: dist(127) } },
        ]);
        assert_eq!(roundtrip_response(Opcode::Predict, resp.clone()), resp);
    }

    #[test]
    fn train_roundtrip() {
        let req = Request::Train(vec![
            TrainItem { ticket: 9, pc: 0x2000, outcome: LoadOutcome::independent() },
            TrainItem {
                ticket: 10,
                pc: 0x2008,
                outcome: LoadOutcome::dependent(ObservedDependence {
                    distance: dist(42),
                    class: BypassClass::NoOffset,
                    store_pc: 0x1ff0,
                    branches_between: 3,
                }),
            },
        ]);
        assert_eq!(roundtrip_request(req.clone()), req);
        let resp = Response::Train { applied: 1, stale: 1 };
        assert_eq!(roundtrip_response(Opcode::Train, resp.clone()), resp);
    }

    #[test]
    fn stats_and_shutdown_roundtrip() {
        assert_eq!(roundtrip_request(Request::Stats), Request::Stats);
        assert_eq!(roundtrip_request(Request::Shutdown), Request::Shutdown);
        let report = StatsReport {
            shards: vec![
                ShardStats { requests: 10, predicts: 8, trains: 2, ..Default::default() },
                ShardStats { service_p50_ns: 512, service_p99_ns: 4096, ..Default::default() },
            ],
        };
        let resp = roundtrip_response(Opcode::Stats, Response::Stats(report.clone()));
        assert_eq!(resp, Response::Stats(report.clone()));
        assert_eq!(report.total_requests(), 10);
        assert_eq!(report.total_predicts(), 8);
        let resp = roundtrip_response(Opcode::Shutdown, Response::Shutdown { served: 12345 });
        assert_eq!(resp, Response::Shutdown { served: 12345 });
    }

    #[test]
    fn snapshot_and_restore_roundtrip() {
        assert_eq!(roundtrip_request(Request::Snapshot), Request::Snapshot);
        let blob = vec![0xAB_u8; 4096];
        assert_eq!(
            roundtrip_request(Request::Restore(blob.clone())),
            Request::Restore(blob.clone())
        );
        assert_eq!(
            roundtrip_response(Opcode::Snapshot, Response::Snapshot(blob.clone())),
            Response::Snapshot(blob)
        );
        assert_eq!(
            roundtrip_response(
                Opcode::Restore,
                Response::Restore {
                    restored_entries: 777
                }
            ),
            Response::Restore {
                restored_entries: 777
            }
        );
        // Snapshot frames get the larger cap; a predict frame does not.
        assert_eq!(max_payload(Opcode::Restore as u8), MAX_SNAPSHOT_FRAME_PAYLOAD);
        assert_eq!(max_payload(Status::Ok as u8), MAX_SNAPSHOT_FRAME_PAYLOAD);
        assert_eq!(max_payload(Opcode::Predict as u8), MAX_FRAME_PAYLOAD);
        assert!(matches!(
            Request::Restore(vec![0; MAX_SNAPSHOT_FRAME_PAYLOAD + 1]).encode_payload(),
            Err(WireError::TooLarge(_))
        ));
    }

    #[test]
    fn warm_start_counters_roundtrip() {
        let report = StatsReport {
            shards: vec![ShardStats {
                requests: 5,
                restored_entries: 1234,
                snapshot_age_s: 60,
                restarts: 3,
                ..Default::default()
            }],
        };
        let resp = roundtrip_response(Opcode::Stats, Response::Stats(report.clone()));
        assert_eq!(resp, Response::Stats(report.clone()));
        assert_eq!(report.total_restored(), 1234);
    }

    /// Version-3 fields: the pending-eviction counter and the per-shard
    /// misprediction taxonomy must survive the wire and feed the report
    /// helpers.
    #[test]
    fn pollution_taxonomy_roundtrip() {
        let report = StatsReport {
            shards: vec![
                ShardStats {
                    evicted_pending: 7,
                    missed_dependencies: 3,
                    false_dependencies: 2,
                    false_bypasses: 1,
                    ..Default::default()
                },
                ShardStats {
                    false_bypasses: 4,
                    ..Default::default()
                },
            ],
        };
        let resp = roundtrip_response(Opcode::Stats, Response::Stats(report.clone()));
        assert_eq!(resp, Response::Stats(report.clone()));
        assert_eq!(report.total_evicted_pending(), 7);
        assert_eq!(report.total_mispredictions(), 10);
    }

    /// Version-1 peers must be rejected outright: v2 changed the
    /// `ShardStats` layout, so parsing a v1 stats frame as v2 would read
    /// garbage rather than fail.
    #[test]
    fn rejects_version_one_frames() {
        let mut frame = Request::Stats.encode_frame().unwrap();
        frame[4] = 1;
        assert!(matches!(
            read_frame(&mut frame.as_slice()),
            Err(WireError::BadVersion(1))
        ));
    }

    #[test]
    fn error_roundtrip() {
        let resp = roundtrip_response(Opcode::Train, Response::Error("bad frame".into()));
        assert_eq!(resp, Response::Error("bad frame".into()));
    }

    /// Status 1 was `Busy`, which no server sends any more; it is retired,
    /// and a frame carrying it is rejected rather than read as a response.
    #[test]
    fn retired_busy_status_is_rejected() {
        for op in [Opcode::Predict, Opcode::Train] {
            assert!(matches!(
                Response::decode(op, 1, &[]),
                Err(WireError::BadStatus(1))
            ));
        }
    }

    /// A read timeout surfaces as an I/O error instead of being retried: a
    /// reader that stalls once and would then deliver a valid frame gets
    /// the error, so a caller's timeout on a hung peer actually fires.
    #[test]
    fn read_timeout_is_an_error() {
        struct StallOnce<'a> {
            stalled: bool,
            rest: &'a [u8],
        }
        impl Read for StallOnce<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if !self.stalled {
                    self.stalled = true;
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                self.rest.read(buf)
            }
        }
        let frame = Request::Stats.encode_frame().unwrap();
        let mut reader = StallOnce {
            stalled: false,
            rest: &frame,
        };
        assert!(matches!(read_frame(&mut reader), Err(WireError::Io(_))));
    }

    #[test]
    fn rejects_bad_magic_version_opcode_status() {
        let mut frame = Request::Stats.encode_frame().unwrap();
        frame[0] = b'X';
        assert!(matches!(
            read_frame(&mut frame.as_slice()),
            Err(WireError::BadMagic)
        ));
        let mut frame = Request::Stats.encode_frame().unwrap();
        frame[4] = 99;
        assert!(matches!(
            read_frame(&mut frame.as_slice()),
            Err(WireError::BadVersion(99))
        ));
        assert!(matches!(Request::decode(77, &[]), Err(WireError::BadOpcode(77))));
        assert!(matches!(
            Response::decode(Opcode::Stats, 9, &[]),
            Err(WireError::BadStatus(9))
        ));
    }

    #[test]
    fn rejects_oversized_and_mismatched_batches() {
        // Claimed batch larger than MAX_BATCH.
        let mut payload = Vec::new();
        payload.extend_from_slice(&u16::MAX.to_le_bytes());
        assert!(Request::decode(Opcode::Predict as u8, &payload).is_err());
        // Count does not match the payload length.
        let mut payload = Vec::new();
        payload.extend_from_slice(&2u16.to_le_bytes());
        payload.extend_from_slice(&[0u8; PREDICT_ITEM_BYTES]); // only one item
        assert!(Request::decode(Opcode::Predict as u8, &payload).is_err());
        // Oversized frame length in the header.
        let mut frame = encode_frame(Opcode::Stats as u8, &[]);
        frame[6..10].copy_from_slice(&(MAX_FRAME_PAYLOAD as u32 + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut frame.as_slice()),
            Err(WireError::TooLarge(_))
        ));
    }

    /// The count prefix is a `u16`. Before the encoder became fallible a
    /// 65 535-item batch encoded a full prefix and a 65 536-item batch
    /// wrapped to a claimed count of 0 — both silently. Every oversize must
    /// now fail at encode time, before a byte reaches the stream.
    #[test]
    fn encode_rejects_oversized_batches() {
        let item = PredictItem { pc: 0, store_seq: 0 };
        assert!(Request::Predict(vec![item; MAX_BATCH]).encode_frame().is_ok());
        for n in [MAX_BATCH + 1, 65_535, 65_536] {
            match Request::Predict(vec![item; n]).encode_payload() {
                Err(WireError::BatchTooLarge(m)) => assert_eq!(m, n),
                other => panic!("expected BatchTooLarge for {n} items, got {other:?}"),
            }
        }
        let train = TrainItem {
            ticket: 0,
            pc: 0,
            outcome: LoadOutcome::independent(),
        };
        assert!(matches!(
            Request::Train(vec![train; 65_535]).encode_payload(),
            Err(WireError::BatchTooLarge(65_535))
        ));
        let reply = PredictReply {
            ticket: 0,
            prediction: MemDepPrediction::NoDependence,
        };
        assert!(Response::Predict(vec![reply; MAX_BATCH]).encode_payload().is_ok());
        assert!(matches!(
            Response::Predict(vec![reply; 65_536]).encode_payload(),
            Err(WireError::BatchTooLarge(65_536))
        ));
        let report = StatsReport {
            shards: vec![ShardStats::default(); MAX_SHARDS + 1],
        };
        assert!(matches!(
            Response::Stats(report).encode_payload(),
            Err(WireError::BatchTooLarge(_))
        ));
    }

    #[test]
    fn rejects_truncation_and_close() {
        let frame = Request::Predict(vec![PredictItem { pc: 1, store_seq: 2 }])
            .encode_frame()
            .unwrap();
        for cut in [1, HEADER_LEN - 1, HEADER_LEN + 3, frame.len() - 1] {
            assert!(
                read_frame(&mut &frame[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        // Clean close between frames is Ok(None), not an error.
        assert!(read_frame(&mut [].as_slice()).unwrap().is_none());
    }

    #[test]
    fn rejects_corrupt_prediction_fields() {
        assert!(get_prediction(3, 0).is_err());
        assert!(get_prediction(1, 0).is_err()); // dependence needs distance >= 1
        assert!(get_prediction(1, 200).is_err()); // distance > 127
        assert!(get_prediction(0, 5).is_err()); // no-dependence with distance
        assert!(get_prediction(2, 127).is_ok());
    }

    /// `parse_header` is the shared validator for both front ends; check
    /// it standalone (the blocking-reader tests above exercise it via
    /// `read_frame`).
    #[test]
    fn parse_header_matches_reader_checks() {
        let frame = Request::Snapshot.encode_frame().unwrap();
        let header: [u8; HEADER_LEN] = frame[..HEADER_LEN].try_into().unwrap();
        assert_eq!(parse_header(&header).unwrap(), (Opcode::Snapshot as u8, 0));
        let mut bad = header;
        bad[0] = b'Z';
        assert!(matches!(parse_header(&bad), Err(WireError::BadMagic)));
        let mut bad = header;
        bad[4] = 1;
        assert!(matches!(parse_header(&bad), Err(WireError::BadVersion(1))));
        // The per-code payload cap: a predict frame may not claim a
        // snapshot-sized payload, but a restore frame may.
        let mut big = header;
        big[5] = Opcode::Predict as u8;
        big[6..10].copy_from_slice(&((MAX_FRAME_PAYLOAD + 1) as u32).to_le_bytes());
        assert!(matches!(parse_header(&big), Err(WireError::TooLarge(_))));
        big[5] = Opcode::Restore as u8;
        assert_eq!(
            parse_header(&big).unwrap(),
            (Opcode::Restore as u8, MAX_FRAME_PAYLOAD + 1)
        );
    }

    #[test]
    fn error_display_is_informative() {
        assert!(WireError::BadMagic.to_string().contains("magic"));
        assert!(WireError::BadVersion(7).to_string().contains('7'));
        assert!(WireError::TooLarge(9).to_string().contains("exceeds"));
        assert!(WireError::Corrupt("x").to_string().contains('x'));
    }
}
