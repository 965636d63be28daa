//! The `mascot-serve` binary wire protocol.
//!
//! A versioned little-endian framing; every frame is
//!
//! ```text
//! magic "MSRV" (4) | version (1) | code (1) | payload_len u32 | payload
//! ```
//!
//! Frames are written and read with the strict cursor that predictor
//! snapshots and `.mtrc` traces (`mascot_sim::codec`) use too
//! ([`mascot_snapshot::SnapWriter`] / [`mascot_snapshot::SnapReader`]), and
//! a bypass class travels as its [`BypassClass::code`] byte.
//!
//! Requests carry an [`Opcode`] in the code byte; responses carry a
//! [`Status`]. Predict and Train payloads and the `Stats` reply are counted
//! lists of fixed-size records, all encoded and decoded by one generic list
//! codec: a list is validated arithmetically
//! (`payload_len == prefix + count * record_size`) before any allocation,
//! and its claimed count is capped ([`MAX_BATCH`] for batches,
//! [`MAX_SHARDS`] for stats) — a hostile header can never drive a large
//! allocation or a panic. Every encoding is
//! canonical: a frame that decodes re-encodes to exactly its own bytes
//! (`tests/wire_fuzz.rs` checks this under every truncation and bit flip).
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
use mascot_snapshot::{SnapError, SnapReader, SnapWriter};

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

/// The cursor's errors in this protocol's words: a short payload is
/// `truncated payload`, whatever is left over is `trailing bytes` (the
/// cursor raises no other kind on the fields read here).
impl From<SnapError> for WireError {
    fn from(e: SnapError) -> Self {
        WireError::Corrupt(match e {
            SnapError::TrailingBytes(_) => "trailing bytes",
            SnapError::Corrupt(what) | SnapError::TooLarge(what) => what,
            _ => "truncated payload",
        })
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

/// Declares [`ShardStats`] and its wire record from one field list, in
/// wire order; every field travels as a little-endian `u64`.
macro_rules! shard_stats {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// Point-in-time counters for one shard, as reported by `Stats`.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct ShardStats {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl Record for ShardStats {
            const BYTES: usize = 8 * [$(stringify!($field)),*].len();
            const LIST: Counted = SHARDS;

            fn put(&self, w: &mut SnapWriter) {
                $(w.u64(self.$field);)*
            }

            fn get(r: &mut SnapReader<'_>) -> Result<Self, WireError> {
                Ok(Self {
                    $($field: r.u64(stringify!($field))?,)*
                })
            }
        }
    };
}

shard_stats! {
    /// Predict + train items processed.
    requests,
    /// Predict items processed.
    predicts,
    /// Train items applied.
    trains,
    /// Train items dropped because their ticket had been evicted or did not
    /// match (the prediction outlived the pending window).
    stale_trains,
    /// Pending predictions recycled before their train arrived (the
    /// in-flight window outran the shard's pending capacity); fatal when
    /// the pool runs with `strict_tickets`.
    evicted_pending,
    /// Applied trains that predicted `NoDependence` on a dependent outcome.
    missed_dependencies,
    /// Applied trains that predicted `Dependence` on an independent
    /// outcome.
    false_dependencies,
    /// Applied trains that predicted `Bypass` on an independent outcome —
    /// the squash-causing shape a mistraining attacker induces
    /// (DESIGN.md §12).
    false_bypasses,
    /// Jobs the shard executed. `mascotd` runs each job on its own, so this
    /// equals `service_samples`.
    batches,
    /// Items rejected for a full queue. Always 0: the shards have no
    /// queue; the field stays until the next wire version.
    rejected_full,
    /// Number of service-time samples in the histogram.
    service_samples,
    /// Approximate p50 service time per job, nanoseconds.
    service_p50_ns,
    /// Approximate p99 service time per job, nanoseconds.
    service_p99_ns,
    /// Entries restored into this shard's predictor at the last warm start
    /// or `Restore` (0 on a cold start).
    restored_entries,
    /// Age of the restored snapshot at restore time, seconds (0 when cold).
    snapshot_age_s,
    /// Times this predictor state has been through a checkpoint/restore
    /// cycle (carried in the snapshot itself, so it survives restarts).
    restarts,
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
// Records and the counted-list codec.

/// How a counted list is prefixed and capped.
struct Counted {
    /// Bytes in the count prefix: 2 (`u16`) or 4 (`u32`).
    prefix: usize,
    /// Most records a list may hold, on encode and on decode.
    max: usize,
    /// Decode error for a count above `max`.
    too_many: &'static str,
    /// Decode error for a payload that is not `prefix + count * BYTES` long.
    mismatch: &'static str,
}

/// Micro-batches: a `u16` count up to [`MAX_BATCH`].
const BATCH: Counted = Counted {
    prefix: 2,
    max: MAX_BATCH,
    too_many: "batch exceeds MAX_BATCH",
    mismatch: "batch length mismatch",
};

/// Per-shard stats: a `u32` count up to [`MAX_SHARDS`].
const SHARDS: Counted = Counted {
    prefix: 4,
    max: MAX_SHARDS,
    too_many: "shard count exceeds limit",
    mismatch: "stats length mismatch",
};

/// A fixed-size record that travels in a counted list filling a whole
/// payload.
trait Record: Sized {
    /// Encoded size of one record.
    const BYTES: usize;
    /// The list the record travels in.
    const LIST: Counted = BATCH;

    /// Appends the record's `BYTES` bytes.
    fn put(&self, w: &mut SnapWriter);

    /// Reads one record, rejecting any field out of range.
    fn get(r: &mut SnapReader<'_>) -> Result<Self, WireError>;
}

impl Record for PredictItem {
    const BYTES: usize = 16;

    fn put(&self, w: &mut SnapWriter) {
        w.u64(self.pc);
        w.u64(self.store_seq);
    }

    fn get(r: &mut SnapReader<'_>) -> Result<Self, WireError> {
        Ok(PredictItem {
            pc: r.u64("pc")?,
            store_seq: r.u64("store seq")?,
        })
    }
}

impl Record for PredictReply {
    /// Ticket, prediction tag, distance.
    const BYTES: usize = 4 + 1 + 1;

    fn put(&self, w: &mut SnapWriter) {
        let (tag, dist) = match self.prediction {
            MemDepPrediction::NoDependence => (0, 0),
            MemDepPrediction::Dependence { distance } => (1, distance.get()),
            MemDepPrediction::Bypass { distance } => (2, distance.get()),
        };
        w.u32(self.ticket);
        w.u8(tag);
        w.u8(dist);
    }

    fn get(r: &mut SnapReader<'_>) -> Result<Self, WireError> {
        let ticket = r.u32("ticket")?;
        let (tag, dist) = (r.u8("prediction tag")?, r.u8("distance")?);
        Ok(PredictReply {
            ticket,
            prediction: get_prediction(tag, dist)?,
        })
    }
}

impl Record for TrainItem {
    /// Ticket, pc, then the outcome: flag, distance, class, store pc and
    /// branches between.
    const BYTES: usize = 4 + 8 + 1 + 1 + 1 + 8 + 4;

    fn put(&self, w: &mut SnapWriter) {
        w.u32(self.ticket);
        w.u64(self.pc);
        match &self.outcome.dependence {
            // Flag 0 and every outcome field zero.
            None => w.bytes(&[0; 15]),
            Some(d) => {
                w.u8(1);
                w.u8(d.distance.get());
                w.u8(d.class.code());
                w.u64(d.store_pc);
                w.u32(d.branches_between);
            }
        }
    }

    fn get(r: &mut SnapReader<'_>) -> Result<Self, WireError> {
        let (ticket, pc) = (r.u32("ticket")?, r.u64("pc")?);
        let (flag, dist, class) = (r.u8("outcome flag")?, r.u8("distance")?, r.u8("class")?);
        let (store_pc, branches_between) = (r.u64("store pc")?, r.u32("branches between")?);
        let outcome = match flag {
            // An independent outcome has one encoding: all fields zero.
            0 if (dist, class, store_pc, branches_between) == (0, 0, 0, 0) => {
                LoadOutcome::independent()
            }
            0 => return Err(WireError::Corrupt("fields on an independent outcome")),
            1 => LoadOutcome::dependent(ObservedDependence {
                distance: StoreDistance::new(u32::from(dist))
                    .ok_or(WireError::Corrupt("outcome distance out of range"))?,
                class: BypassClass::from_code(class).ok_or(WireError::Corrupt("bypass class"))?,
                store_pc,
                branches_between,
            }),
            _ => return Err(WireError::Corrupt("outcome flag")),
        };
        Ok(TrainItem {
            ticket,
            pc,
            outcome,
        })
    }
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

/// Encodes `items` as a whole frame: the count prefix, then each record.
/// The count is checked against the list's cap first: the prefix is
/// narrow, and an unchecked cast would truncate silently (65 536 items
/// would go out as 0).
fn list_frame<T: Record>(code: u8, items: &[T]) -> Result<Vec<u8>, WireError> {
    let (list, n) = (T::LIST, items.len());
    if n > list.max {
        return Err(WireError::BatchTooLarge(n));
    }
    Ok(frame(code, list.prefix + n * T::BYTES, |w| {
        if list.prefix == 2 {
            w.u16(n as u16);
        } else {
            w.u32(n as u32);
        }
        for item in items {
            item.put(w);
        }
    }))
}

/// Decodes a payload that is one counted list. The count is checked
/// against the cap and the payload length before anything is allocated.
fn get_list<T: Record>(payload: &[u8]) -> Result<Vec<T>, WireError> {
    let list = T::LIST;
    let mut r = SnapReader::new(payload);
    let n = if list.prefix == 2 {
        usize::from(r.u16("count")?)
    } else {
        r.u32("count")? as usize
    };
    if n > list.max {
        return Err(WireError::Corrupt(list.too_many));
    }
    if r.remaining() != n * T::BYTES {
        return Err(WireError::Corrupt(list.mismatch));
    }
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        items.push(T::get(&mut r)?);
    }
    r.finish()?;
    Ok(items)
}

/// Decodes a fixed-layout payload with `get`, which must consume all of it.
fn fixed<T>(
    payload: &[u8],
    get: impl FnOnce(&mut SnapReader<'_>) -> Result<T, SnapError>,
) -> Result<T, WireError> {
    let mut r = SnapReader::new(payload);
    let value = get(&mut r)?;
    r.finish()?;
    Ok(value)
}

// ---------------------------------------------------------------------------
// Framing.

/// Writes a frame's header and then, through `put`, its payload into one
/// buffer sized for `len` payload bytes; the header's length field is
/// filled in from what `put` wrote.
fn frame(code: u8, len: usize, put: impl FnOnce(&mut SnapWriter)) -> Vec<u8> {
    let mut w = SnapWriter::with_capacity(HEADER_LEN + len);
    w.bytes(&MAGIC);
    w.u8(VERSION);
    w.u8(code);
    w.u32(0);
    put(&mut w);
    let mut out = w.into_bytes();
    let len = out.len() - HEADER_LEN;
    assert!(len <= max_payload(code), "payload exceeds limit");
    out[6..HEADER_LEN].copy_from_slice(&(len as u32).to_le_bytes());
    out
}

/// Assembles a complete frame (header + payload) for a single `write_all`.
pub fn encode_frame(code: u8, payload: &[u8]) -> Vec<u8> {
    frame(code, payload.len(), |w| w.bytes(payload))
}

/// A frame whose payload is an opaque snapshot container.
fn blob_frame(code: u8, bytes: &[u8]) -> Result<Vec<u8>, WireError> {
    if bytes.len() > MAX_SNAPSHOT_FRAME_PAYLOAD {
        return Err(WireError::TooLarge(u32::MAX));
    }
    Ok(encode_frame(code, bytes))
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

    /// Assembles the complete request frame.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BatchTooLarge`] when a batch exceeds
    /// [`MAX_BATCH`] (the count prefix is a `u16`, and an unchecked cast
    /// would truncate silently), and [`WireError::TooLarge`] when a
    /// `Restore` container exceeds [`MAX_SNAPSHOT_FRAME_PAYLOAD`].
    pub fn encode_frame(&self) -> Result<Vec<u8>, WireError> {
        let code = self.opcode() as u8;
        match self {
            Request::Predict(items) => list_frame(code, items),
            Request::Train(items) => list_frame(code, items),
            Request::Stats | Request::Shutdown | Request::Snapshot => Ok(encode_frame(code, &[])),
            Request::Restore(bytes) => blob_frame(code, bytes),
        }
    }

    /// Decodes a request from a frame's code byte and payload.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on an unknown opcode, a length/batch-size
    /// mismatch, or an out-of-range field.
    pub fn decode(code: u8, payload: &[u8]) -> Result<Request, WireError> {
        match Opcode::from_code(code)? {
            Opcode::Predict => get_list(payload).map(Request::Predict),
            Opcode::Train => get_list(payload).map(Request::Train),
            Opcode::Stats => fixed(payload, |_| Ok(Request::Stats)),
            Opcode::Shutdown => fixed(payload, |_| Ok(Request::Shutdown)),
            Opcode::Snapshot => fixed(payload, |_| Ok(Request::Snapshot)),
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

    /// Assembles the complete response frame.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BatchTooLarge`] when a reply batch exceeds
    /// [`MAX_BATCH`] or a stats report exceeds [`MAX_SHARDS`] (the count
    /// prefixes are narrow, so oversizes must fail rather than truncate),
    /// and [`WireError::TooLarge`] when a snapshot exceeds
    /// [`MAX_SNAPSHOT_FRAME_PAYLOAD`].
    pub fn encode_frame(&self) -> Result<Vec<u8>, WireError> {
        let code = self.status() as u8;
        match self {
            Response::Predict(replies) => list_frame(code, replies),
            Response::Train { applied, stale } => Ok(frame(code, 8, |w| {
                w.u32(*applied);
                w.u32(*stale);
            })),
            Response::Stats(report) => list_frame(code, &report.shards),
            Response::Shutdown { served } => Ok(frame(code, 8, |w| w.u64(*served))),
            Response::Snapshot(bytes) => blob_frame(code, bytes),
            Response::Restore { restored_entries } => {
                Ok(frame(code, 8, |w| w.u64(*restored_entries)))
            }
            Response::Error(msg) => Ok(encode_frame(code, msg.as_bytes())),
        }
    }

    /// Decodes a response to a request with opcode `for_op`.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on an unknown status, a length/batch-size
    /// mismatch, or an out-of-range field.
    pub fn decode(for_op: Opcode, code: u8, payload: &[u8]) -> Result<Response, WireError> {
        match code {
            0 => {}
            2 => {
                return String::from_utf8(payload.to_vec())
                    .map(Response::Error)
                    .map_err(|_| WireError::Corrupt("error message is not UTF-8"))
            }
            other => return Err(WireError::BadStatus(other)),
        }
        match for_op {
            Opcode::Predict => get_list(payload).map(Response::Predict),
            Opcode::Train => fixed(payload, |r| {
                Ok(Response::Train {
                    applied: r.u32("applied")?,
                    stale: r.u32("stale")?,
                })
            }),
            Opcode::Stats => {
                get_list(payload).map(|shards| Response::Stats(StatsReport { shards }))
            }
            Opcode::Shutdown => fixed(payload, |r| {
                Ok(Response::Shutdown {
                    served: r.u64("served")?,
                })
            }),
            Opcode::Snapshot => Ok(Response::Snapshot(payload.to_vec())),
            Opcode::Restore => fixed(payload, |r| {
                Ok(Response::Restore {
                    restored_entries: r.u64("restored entries")?,
                })
            }),
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
            Request::Restore(vec![0; MAX_SNAPSHOT_FRAME_PAYLOAD + 1]).encode_frame(),
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
        payload.extend_from_slice(&[0u8; PredictItem::BYTES]); // only one item
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
            match Request::Predict(vec![item; n]).encode_frame() {
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
            Request::Train(vec![train; 65_535]).encode_frame(),
            Err(WireError::BatchTooLarge(65_535))
        ));
        let reply = PredictReply {
            ticket: 0,
            prediction: MemDepPrediction::NoDependence,
        };
        assert!(Response::Predict(vec![reply; MAX_BATCH]).encode_frame().is_ok());
        assert!(matches!(
            Response::Predict(vec![reply; 65_536]).encode_frame(),
            Err(WireError::BatchTooLarge(65_536))
        ));
        let report = StatsReport {
            shards: vec![ShardStats::default(); MAX_SHARDS + 1],
        };
        assert!(matches!(
            Response::Stats(report).encode_frame(),
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

    /// An independent outcome has one encoding: flag 0 and every outcome
    /// field zero. A non-zero field under flag 0 used to decode and be
    /// dropped, so 112 one-bit corruptions of a one-item train batch read
    /// as the same item.
    #[test]
    fn independent_outcome_rejects_nonzero_fields() {
        let item = TrainItem {
            ticket: 1,
            pc: 2,
            outcome: LoadOutcome::independent(),
        };
        let frame = Request::Train(vec![item]).encode_frame().unwrap();
        let payload = &frame[HEADER_LEN..];
        let flag_at = 2 + 4 + 8; // count, ticket, pc
        assert_eq!(payload.len(), flag_at + 1 + 14);
        for at in flag_at + 1..payload.len() {
            let mut bad = payload.to_vec();
            bad[at] = 1;
            assert!(
                matches!(
                    Request::decode(Opcode::Train as u8, &bad),
                    Err(WireError::Corrupt("fields on an independent outcome"))
                ),
                "a non-zero byte {at} on an independent outcome must be rejected"
            );
        }
        assert_eq!(
            Request::decode(Opcode::Train as u8, payload).unwrap(),
            Request::Train(vec![item])
        );
    }

    /// The server sends these messages back in `Error` frames; they are
    /// part of the protocol's observable behaviour.
    #[test]
    fn malformed_payloads_keep_their_error_text() {
        let request = |op: Opcode, payload: &[u8]| {
            Request::decode(op as u8, payload).unwrap_err().to_string()
        };
        let stats = |payload: &[u8]| {
            Response::decode(Opcode::Stats, 0, payload)
                .unwrap_err()
                .to_string()
        };
        assert_eq!(
            request(Opcode::Predict, &u16::MAX.to_le_bytes()),
            "corrupt frame: batch exceeds MAX_BATCH"
        );
        assert_eq!(
            request(Opcode::Predict, &[1, 0]),
            "corrupt frame: batch length mismatch"
        );
        assert_eq!(request(Opcode::Train, &[1]), "corrupt frame: truncated payload");
        assert_eq!(request(Opcode::Stats, &[0]), "corrupt frame: trailing bytes");
        assert_eq!(
            stats(&u32::MAX.to_le_bytes()),
            "corrupt frame: shard count exceeds limit"
        );
        assert_eq!(stats(&[1, 0, 0, 0]), "corrupt frame: stats length mismatch");
        assert_eq!(
            Response::decode(Opcode::Train, 0, &[0; 7])
                .unwrap_err()
                .to_string(),
            "corrupt frame: truncated payload"
        );
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
