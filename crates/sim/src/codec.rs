//! A compact binary codec for [`Trace`]s.
//!
//! Workload generation is deterministic but not free (ground-truth
//! bookkeeping walks a byte-granular last-writer map); long experiment
//! campaigns can encode each generated trace once and reload it from disk.
//! The format is self-contained little-endian with a magic/version header,
//! read and written with the strict cursor that predictor snapshots and the
//! serve wire protocol share ([`mascot_snapshot::SnapReader`] /
//! [`mascot_snapshot::SnapWriter`]); a dependence's bypass class is its
//! [`BypassClass::code`] byte.

use std::io::{self, Read, Write};

use mascot::history::BranchKind;
use mascot::prediction::BypassClass;
use mascot_snapshot::{SnapError, SnapReader, SnapWriter};

use crate::uop::{Trace, TraceDep, Uop, UopBuf, UopKind, NO_REG, NUM_ARCH_REGS};

const MAGIC: &[u8; 4] = b"MTRC";
const VERSION: u8 = 1;

/// Errors produced while decoding a trace.
#[derive(Debug)]
pub enum CodecError {
    /// The buffer does not start with the `MTRC` magic.
    BadMagic,
    /// The format version is not supported.
    BadVersion(u8),
    /// The buffer ended prematurely or a field was out of range.
    Corrupt(&'static str),
    /// An underlying I/O error.
    Io(io::Error),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not a MASCOT trace (bad magic)"),
            CodecError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            CodecError::Corrupt(what) => write!(f, "corrupt trace: {what}"),
            CodecError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

/// The cursor's errors in this format's words: a short buffer is
/// `truncated`, whatever is left over is `trailing bytes`, and a bad flag
/// keeps the name of its field (the cursor raises no other kind).
impl From<SnapError> for CodecError {
    fn from(e: SnapError) -> Self {
        CodecError::Corrupt(match e {
            SnapError::TrailingBytes(_) => "trailing bytes",
            SnapError::Corrupt(what) | SnapError::TooLarge(what) => what,
            _ => "truncated",
        })
    }
}

/// A register byte: [`NO_REG`] or a name below [`NUM_ARCH_REGS`].
fn get_reg(r: &mut SnapReader<'_>, what: &'static str) -> Result<Option<u8>, CodecError> {
    match r.u8(what)? {
        NO_REG => Ok(None),
        reg if usize::from(reg) < NUM_ARCH_REGS => Ok(Some(reg)),
        _ => Err(CodecError::Corrupt("register")),
    }
}

/// Encodes a trace into the binary format.
///
/// The name field holds at most 65,535 bytes: a longer name is cut at the
/// last character boundary within that limit, so the stored name is always
/// valid UTF-8 and [`decode`] reads it back as a prefix of the original.
pub fn encode(trace: &Trace) -> Vec<u8> {
    let name = &trace.name;
    let name = &name.as_bytes()[..name.floor_char_boundary(usize::from(u16::MAX))];
    let mut w = SnapWriter::with_capacity(32 + trace.len() * 16);
    w.bytes(MAGIC);
    w.u8(VERSION);
    w.u16(name.len() as u16);
    w.bytes(name);
    w.u64(trace.len() as u64);
    for uop in &trace.uops {
        w.u64(uop.pc);
        for reg in [uop.srcs[0], uop.srcs[1], uop.dst] {
            w.u8(reg.unwrap_or(NO_REG));
        }
        w.u8(uop.latency);
        match uop.kind {
            UopKind::Alu => w.u8(0),
            UopKind::Load { addr, size, dep } => {
                w.u8(1);
                w.u64(addr);
                w.u8(size);
                w.bool(dep.is_some());
                if let Some(d) = dep {
                    w.u32(d.distance);
                    w.u8(d.class.code());
                    w.u64(d.store_pc);
                    w.u32(d.branches_between);
                }
            }
            UopKind::Store { addr, size } => {
                w.u8(2);
                w.u64(addr);
                w.u8(size);
            }
            UopKind::Branch {
                kind,
                taken,
                target,
            } => {
                w.u8(3);
                w.u8(match kind {
                    BranchKind::Conditional => 0,
                    BranchKind::Indirect => 1,
                });
                w.bool(taken);
                w.u64(target);
            }
        }
    }
    w.into_bytes()
}

/// Decodes a trace from the binary format.
///
/// # Errors
///
/// Returns a [`CodecError`] on bad magic, unsupported version, truncation,
/// or out-of-range field values (a register outside `0..NUM_ARCH_REGS` is
/// `Corrupt("register")`).
pub fn decode(bytes: &[u8]) -> Result<Trace, CodecError> {
    let mut r = SnapReader::new(bytes);
    if r.take(4, "magic")? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = r.u8("version")?;
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let name_len = usize::from(r.u16("name length")?);
    let name = std::str::from_utf8(r.take(name_len, "name")?)
        .map_err(|_| CodecError::Corrupt("name is not UTF-8"))?
        .to_string();
    let count = r.u64("uop count")?;
    // Every uop occupies at least 13 bytes (pc + regs + latency + kind tag);
    // bound the claimed count by the bytes actually remaining *before*
    // allocating, so an attacker-controlled header can never drive
    // `Vec::with_capacity` beyond the input's own size.
    const MIN_UOP_BYTES: u64 = 13;
    let remaining = r.remaining() as u64;
    if count
        .checked_mul(MIN_UOP_BYTES)
        .is_none_or(|need| need > remaining)
    {
        return Err(CodecError::Corrupt("count exceeds payload"));
    }
    let mut uops = UopBuf::with_capacity(count as usize);
    for _ in 0..count {
        let pc = r.u64("pc")?;
        let srcs = [get_reg(&mut r, "src")?, get_reg(&mut r, "src")?];
        let dst = get_reg(&mut r, "dst")?;
        let latency = r.u8("latency")?;
        let kind = match r.u8("uop kind")? {
            0 => UopKind::Alu,
            1 => {
                let addr = r.u64("addr")?;
                let size = r.u8("size")?;
                let dep = if r.bool("dep flag")? {
                    Some(TraceDep {
                        distance: r.u32("distance")?,
                        class: BypassClass::from_code(r.u8("bypass class")?)
                            .ok_or(CodecError::Corrupt("bypass class"))?,
                        store_pc: r.u64("store pc")?,
                        branches_between: r.u32("branches between")?,
                    })
                } else {
                    None
                };
                UopKind::Load { addr, size, dep }
            }
            2 => {
                let addr = r.u64("addr")?;
                let size = r.u8("size")?;
                UopKind::Store { addr, size }
            }
            3 => {
                let kind = match r.u8("branch kind")? {
                    0 => BranchKind::Conditional,
                    1 => BranchKind::Indirect,
                    _ => return Err(CodecError::Corrupt("branch kind")),
                };
                let taken = r.bool("taken flag")?;
                let target = r.u64("target")?;
                UopKind::Branch {
                    kind,
                    taken,
                    target,
                }
            }
            _ => return Err(CodecError::Corrupt("uop kind")),
        };
        uops.push(Uop {
            pc,
            kind,
            srcs,
            dst,
            latency,
        });
    }
    r.finish()?;
    Ok(Trace { name, uops })
}

/// Writes a trace to any writer (e.g. a file). A mutable reference works
/// too: `save(&trace, &mut file)`.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn save<W: Write>(trace: &Trace, mut w: W) -> io::Result<()> {
    w.write_all(&encode(trace))
}

/// Reads a trace from any reader.
///
/// # Errors
///
/// Returns a [`CodecError`] for I/O failures or malformed content.
pub fn load<R: Read>(mut r: R) -> Result<Trace, CodecError> {
    let mut buf = Vec::new();
    r.read_to_end(&mut buf)?;
    decode(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::new(
            "sample",
            vec![
                Uop::alu(0x100, [Some(1), None], Some(2), 3),
                Uop::store(0x104, 0x9000, 8, Some(1), Some(2)),
                Uop::load(
                    0x108,
                    0x9000,
                    4,
                    Some(3),
                    4,
                    Some(TraceDep {
                        distance: 1,
                        class: BypassClass::NoOffset,
                        store_pc: 0x104,
                        branches_between: 2,
                    }),
                ),
                Uop::branch(0x10c, true, 0x200, None),
                Uop::indirect_branch(0x110, 0x300, Some(5)),
                Uop::load(0x114, 0xa000, 8, None, 6, None),
            ],
        )
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample();
        let bytes = encode(&t);
        let back = decode(&bytes).unwrap();
        assert_eq!(t.name, back.name);
        assert_eq!(t.uops, back.uops);
    }

    #[test]
    fn roundtrip_through_io() {
        let t = sample();
        let mut buf = Vec::new();
        save(&t, &mut buf).unwrap();
        let back = load(buf.as_slice()).unwrap();
        assert_eq!(t.uops, back.uops);
    }

    #[test]
    fn roundtrip_generated_workload() {
        // A realistic trace (exercises every uop kind and dep class).
        let t = crate::uop::Trace::new("mix", sample().uops.iter().cycle().take(1000).collect());
        let back = decode(&encode(&t)).unwrap();
        assert_eq!(t.uops, back.uops);
    }

    /// Over-long names are cut on a character boundary: a two-byte `é`
    /// straddling the 65,535-byte limit is dropped whole, and a 70,000-byte
    /// name keeps exactly its first 65,535 bytes.
    #[test]
    fn long_names_are_cut_on_a_char_boundary() {
        let straddling = format!("{}é", "a".repeat(65_534));
        let long = "b".repeat(70_000);
        for (name, kept) in [(straddling, "a".repeat(65_534)), (long, "b".repeat(65_535))] {
            let t = Trace::new(&name, sample().uops.iter().collect());
            let back = decode(&encode(&t)).expect("an encoded trace decodes");
            assert_eq!(back.name, kept);
            assert_eq!(back.uops, t.uops);
        }
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(matches!(decode(b"NOPE"), Err(CodecError::BadMagic)));
    }

    #[test]
    fn rejects_bad_version() {
        let mut bytes = encode(&sample());
        bytes[4] = 99;
        assert!(matches!(decode(&bytes), Err(CodecError::BadVersion(99))));
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let bytes = encode(&sample());
        for cut in [5, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = encode(&sample());
        bytes.push(0);
        assert!(matches!(decode(&bytes), Err(CodecError::Corrupt(_))));
    }

    /// Decode errors read the same whatever cursor produced them.
    #[test]
    fn errors_keep_their_text() {
        let bytes = encode(&sample());
        let text = |b: &[u8]| decode(b).unwrap_err().to_string();
        assert_eq!(text(&bytes[..6]), "corrupt trace: truncated");
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(text(&trailing), "corrupt trace: trailing bytes");
        let mut taken = bytes.clone();
        // The indirect branch's taken flag: behind it sit its 8-byte target
        // and the final 23-byte load.
        let at = bytes.len() - 23 - 8 - 1;
        assert_eq!(taken[at], 1);
        taken[at] = 2;
        assert_eq!(text(&taken), "corrupt trace: taken flag");
    }

    #[test]
    fn rejects_corrupt_kind() {
        let t = Trace::new("t", vec![Uop::alu(0, [None, None], None, 1)]);
        let mut bytes = encode(&t);
        let kind_pos = bytes.len() - 1; // last byte is the ALU kind tag
        bytes[kind_pos] = 42;
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn error_display_is_informative() {
        assert!(CodecError::BadMagic.to_string().contains("magic"));
        assert!(CodecError::BadVersion(7).to_string().contains('7'));
        assert!(CodecError::Corrupt("x").to_string().contains('x'));
    }
}
