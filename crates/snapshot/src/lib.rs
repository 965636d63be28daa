//! The MASCOT predictor snapshot format.
//!
//! A versioned, length-prefixed, checksummed little-endian container:
//!
//! ```text
//! magic "MSNP" (4) | version (1) | label_len u16 | label (UTF-8)
//! | created_unix_s u64 | restarts u64
//! | shard_count u32 | shard_count x (len u32 | payload)
//! | fnv1a64 checksum u64 over every preceding byte
//! ```
//!
//! Each shard payload is an opaque predictor-state blob produced by the
//! predictor's own `snap_encode` (the payload layout is private to the type
//! that owns the fields — this crate only frames, checksums and versions).
//!
//! Decoding is **strict and fail-closed**: a bad magic, an unknown version,
//! a truncated buffer, trailing bytes, an out-of-range length or a checksum
//! mismatch all return a descriptive [`SnapError`]; no partially decoded
//! state is ever produced. A corrupt snapshot must cold-start the predictor,
//! never warm-start it with garbage.
//!
//! This crate is dependency-free so that every layer can share one strict
//! little-endian cursor ([`SnapWriter`] / [`SnapReader`]) without cycles:
//! stats counters, core tables and baseline predictors encode their state
//! with it, and so do the trace codec (`mascot_sim::codec`) and the serve
//! wire protocol (`mascot_serve::wire`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

/// Container magic.
pub const MAGIC: [u8; 4] = *b"MSNP";
/// Container format version.
pub const VERSION: u8 = 1;
/// Upper bound on one shard payload (64 MiB), enforced before allocation.
pub const MAX_SHARD_PAYLOAD: usize = 1 << 26;
/// Upper bound on shards in one container.
pub const MAX_SHARDS: usize = 1024;
/// Upper bound on the predictor-kind label length.
pub const MAX_LABEL: usize = 256;

/// Errors produced while decoding a snapshot. Every variant is terminal:
/// the caller must discard the snapshot and cold-start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer does not start with the `MSNP` magic.
    BadMagic,
    /// The container version is not supported by this build.
    BadVersion(u8),
    /// The trailing checksum does not match the content.
    BadChecksum {
        /// Checksum recorded in the snapshot.
        stored: u64,
        /// Checksum recomputed from the content.
        computed: u64,
    },
    /// The buffer ended before the named field.
    Truncated(&'static str),
    /// A field held an out-of-range or internally inconsistent value.
    Corrupt(&'static str),
    /// A length prefix exceeds its hard limit (hostile or damaged header).
    TooLarge(&'static str),
    /// Decoding finished with unconsumed bytes (length lies).
    TrailingBytes(usize),
    /// The snapshot was taken by a different predictor kind than the one
    /// restoring it.
    KindMismatch {
        /// Label recorded in the snapshot.
        stored: String,
        /// Label of the predictor attempting the restore.
        expected: String,
    },
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::BadMagic => write!(f, "not a mascot snapshot (bad magic)"),
            SnapError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapError::BadChecksum { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            SnapError::Truncated(what) => write!(f, "snapshot truncated at {what}"),
            SnapError::Corrupt(what) => write!(f, "corrupt snapshot field: {what}"),
            SnapError::TooLarge(what) => write!(f, "snapshot field exceeds limit: {what}"),
            SnapError::TrailingBytes(n) => write!(f, "snapshot has {n} trailing bytes"),
            SnapError::KindMismatch { stored, expected } => write!(
                f,
                "snapshot was taken by predictor {stored:?}, not {expected:?}"
            ),
        }
    }
}

impl std::error::Error for SnapError {}

/// 64-bit FNV-1a over `bytes` — the container's integrity checksum. Not
/// cryptographic; it detects the truncations, bit flips and torn writes a
/// crash mid-checkpoint can produce.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Little-endian append-only writer: snapshot payloads, traces and wire
/// frames.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty writer with room for `n` bytes, for callers that know
    /// their encoded size up front.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            buf: Vec::with_capacity(n),
        }
    }

    /// Appends one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a boolean as a single `0`/`1` byte.
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes (no length prefix).
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a `u32` length prefix followed by the bytes.
    pub fn len_bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.bytes(v);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Strict little-endian reader: snapshot payloads, traces and wire frames.
/// Every accessor fails on a short buffer; [`SnapReader::finish`] fails on
/// trailing bytes, so a decoder that completes has consumed exactly the
/// payload it was given.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader over `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] when fewer than `n` bytes remain.
    #[inline]
    pub fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SnapError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(SnapError::Truncated(what))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of buffer.
    #[inline]
    pub fn u8(&mut self, what: &'static str) -> Result<u8, SnapError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a one-byte boolean, rejecting anything other than `0` or `1`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of buffer, [`SnapError::Corrupt`]
    /// when the byte is not a valid boolean.
    #[inline]
    pub fn bool(&mut self, what: &'static str) -> Result<bool, SnapError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt(what)),
        }
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of buffer.
    #[inline]
    pub fn u16(&mut self, what: &'static str) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(
            self.take(2, what)?.try_into().expect("2 bytes"),
        ))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of buffer.
    #[inline]
    pub fn u32(&mut self, what: &'static str) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of buffer.
    #[inline]
    pub fn u64(&mut self, what: &'static str) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a `u32` length prefix, then that many bytes. The claimed
    /// length is validated against both `limit` and the bytes actually
    /// remaining, so a hostile prefix can never drive a large allocation.
    ///
    /// # Errors
    ///
    /// [`SnapError::TooLarge`] past `limit`, [`SnapError::Truncated`] when
    /// the buffer is shorter than claimed.
    pub fn len_bytes(&mut self, limit: usize, what: &'static str) -> Result<&'a [u8], SnapError> {
        let len = self.u32(what)? as usize;
        if len > limit {
            return Err(SnapError::TooLarge(what));
        }
        self.take(len, what)
    }

    /// Asserts the payload was consumed exactly.
    ///
    /// # Errors
    ///
    /// [`SnapError::TrailingBytes`] when bytes remain.
    #[inline]
    pub fn finish(self) -> Result<(), SnapError> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            n => Err(SnapError::TrailingBytes(n)),
        }
    }
}

/// A decoded snapshot container: metadata plus one opaque state payload per
/// shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotFile {
    /// Registry label of the predictor kind that produced the payloads.
    pub kind_label: String,
    /// Wall-clock seconds since the Unix epoch when the snapshot was taken
    /// (0 when the clock was unavailable).
    pub created_unix_s: u64,
    /// How many warm restarts preceded this snapshot (0 for the first
    /// process generation).
    pub restarts: u64,
    /// One opaque predictor-state payload per shard, indexed by shard id.
    pub shards: Vec<Vec<u8>>,
}

impl SnapshotFile {
    /// Encodes the container, appending the trailing checksum.
    ///
    /// # Panics
    ///
    /// Panics if the label or a shard payload exceeds its hard limit —
    /// those are producer bugs, not recoverable conditions.
    pub fn encode(&self) -> Vec<u8> {
        assert!(self.kind_label.len() <= MAX_LABEL, "label too long");
        assert!(self.shards.len() <= MAX_SHARDS, "too many shards");
        let mut w = SnapWriter::new();
        w.bytes(&MAGIC);
        w.u8(VERSION);
        w.u16(self.kind_label.len() as u16);
        w.bytes(self.kind_label.as_bytes());
        w.u64(self.created_unix_s);
        w.u64(self.restarts);
        w.u32(self.shards.len() as u32);
        for shard in &self.shards {
            assert!(shard.len() <= MAX_SHARD_PAYLOAD, "shard payload too large");
            w.len_bytes(shard);
        }
        let checksum = fnv1a64(&w.buf);
        w.u64(checksum);
        w.into_bytes()
    }

    /// Decodes and fully validates a container.
    ///
    /// # Errors
    ///
    /// Any [`SnapError`]; the checksum is verified first so that every
    /// later field error implies real corruption rather than bit rot.
    pub fn decode(bytes: &[u8]) -> Result<SnapshotFile, SnapError> {
        if bytes.len() < MAGIC.len() + 1 + 8 {
            return Err(SnapError::Truncated("container header"));
        }
        if bytes[..4] != MAGIC {
            return Err(SnapError::BadMagic);
        }
        if bytes[4] != VERSION {
            return Err(SnapError::BadVersion(bytes[4]));
        }
        let (content, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
        let computed = fnv1a64(content);
        if stored != computed {
            return Err(SnapError::BadChecksum { stored, computed });
        }
        let mut r = SnapReader::new(&content[5..]);
        let label_len = usize::from(r.u16("label length")?);
        if label_len > MAX_LABEL {
            return Err(SnapError::TooLarge("kind label"));
        }
        let kind_label = std::str::from_utf8(r.take(label_len, "kind label")?)
            .map_err(|_| SnapError::Corrupt("kind label is not UTF-8"))?
            .to_string();
        let created_unix_s = r.u64("created timestamp")?;
        let restarts = r.u64("restart counter")?;
        let shard_count = r.u32("shard count")? as usize;
        if shard_count > MAX_SHARDS {
            return Err(SnapError::TooLarge("shard count"));
        }
        let mut shards = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            shards.push(r.len_bytes(MAX_SHARD_PAYLOAD, "shard payload")?.to_vec());
        }
        r.finish()?;
        Ok(SnapshotFile {
            kind_label,
            created_unix_s,
            restarts,
            shards,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SnapshotFile {
        SnapshotFile {
            kind_label: "mascot".to_string(),
            created_unix_s: 1_754_000_000,
            restarts: 3,
            shards: vec![vec![1, 2, 3], Vec::new(), vec![0xff; 100]],
        }
    }

    #[test]
    fn container_roundtrip() {
        let file = sample();
        let bytes = file.encode();
        assert_eq!(SnapshotFile::decode(&bytes).unwrap(), file);
    }

    #[test]
    fn empty_container_roundtrip() {
        let file = SnapshotFile {
            kind_label: String::new(),
            created_unix_s: 0,
            restarts: 0,
            shards: Vec::new(),
        };
        let bytes = file.encode();
        assert_eq!(SnapshotFile::decode(&bytes).unwrap(), file);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        assert_eq!(SnapshotFile::decode(&bytes), Err(SnapError::BadMagic));
        let mut bytes = sample().encode();
        bytes[4] = 99;
        assert_eq!(SnapshotFile::decode(&bytes), Err(SnapError::BadVersion(99)));
    }

    #[test]
    fn rejects_every_truncation_point() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(
                SnapshotFile::decode(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes must fail"
            );
        }
    }

    #[test]
    fn rejects_every_single_byte_flip() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            assert!(
                SnapshotFile::decode(&corrupt).is_err(),
                "flip at byte {i} must fail"
            );
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        // Appending bytes invalidates the checksum position; re-seal to
        // test the TrailingBytes path specifically.
        let file = sample();
        let mut w = SnapWriter::new();
        w.bytes(&file.encode()[..file.encode().len() - 8]);
        w.u8(0); // smuggled extra byte before the checksum
        let checksum = fnv1a64(&w.buf);
        w.u64(checksum);
        assert!(matches!(
            SnapshotFile::decode(&w.into_bytes()),
            Err(SnapError::TrailingBytes(1))
        ));
    }

    #[test]
    fn reader_is_strict() {
        let mut w = SnapWriter::new();
        w.u32(7);
        w.u64(9);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u32("a").unwrap(), 7);
        assert_eq!(r.u64("b").unwrap(), 9);
        assert_eq!(r.u8("c"), Err(SnapError::Truncated("c")));
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u32("a").unwrap(), 7);
        assert!(matches!(r.finish(), Err(SnapError::TrailingBytes(8))));
    }

    #[test]
    fn len_bytes_rejects_hostile_prefix() {
        let mut w = SnapWriter::new();
        w.u32(u32::MAX); // claims 4 GiB
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.len_bytes(1 << 20, "blob"), Err(SnapError::TooLarge("blob")));
        // Claim within the limit but beyond the buffer: truncated.
        let mut w = SnapWriter::new();
        w.u32(100);
        w.bytes(&[0; 10]);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.len_bytes(1 << 20, "blob"), Err(SnapError::Truncated("blob")));
    }

    #[test]
    fn checksum_is_fnv1a() {
        // Reference vectors for 64-bit FNV-1a.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn errors_display_a_cause() {
        for (err, needle) in [
            (SnapError::BadMagic, "magic"),
            (SnapError::BadVersion(9), "9"),
            (
                SnapError::BadChecksum {
                    stored: 1,
                    computed: 2,
                },
                "checksum",
            ),
            (SnapError::Truncated("history"), "history"),
            (SnapError::Corrupt("counter"), "counter"),
            (SnapError::TooLarge("label"), "label"),
            (SnapError::TrailingBytes(4), "4"),
            (
                SnapError::KindMismatch {
                    stored: "phast".into(),
                    expected: "mascot".into(),
                },
                "phast",
            ),
        ] {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }
}
