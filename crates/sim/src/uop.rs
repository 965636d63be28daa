//! Micro-op and trace model.
//!
//! The simulator is trace-driven, mirroring the paper's methodology (§V):
//! the core is fed a stream of micro-ops on the committed path (the Sniper
//! frontend in the paper; our synthetic generators in this reproduction).
//! Each load carries *ground-truth* dependence annotations computed by the
//! trace producer — the youngest prior store writing any byte the load
//! reads — which the simulator uses both to model memory-order violations
//! and to implement the perfect-predictor oracles.
//!
//! A [`Trace`] stores its micro-ops packed ([`UopBuf`]): each distinct
//! static micro-op (PC, kind, size, registers, latency) once, then 16 bytes
//! a uop for what varies per instance (address or target, direction, a
//! reference to the dependence that only a few loads carry, kept in a side
//! table). Readers get each micro-op as a by-value [`Uop`] view.

use std::ops::RangeBounds;

use mascot::history::BranchKind;
use mascot::prediction::{BypassClass, LoadOutcome, ObservedDependence, StoreDistance};

/// An architectural register name (the generator uses 0..=63).
pub type ArchReg = u8;

/// Number of architectural registers the trace format supports.
pub const NUM_ARCH_REGS: usize = 64;

/// Static ground truth about a load's memory dependence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceDep {
    /// Program-order store distance to the youngest prior store writing any
    /// byte this load reads (1 = immediately preceding store). May exceed
    /// the predictors' 127-distance window; the simulator treats such
    /// dependencies as out of reach (the store cannot still be in a
    /// 114-entry store buffer).
    pub distance: u32,
    /// Size/alignment relation of the pair (Fig. 2 classification).
    pub class: BypassClass,
    /// PC of the source store.
    pub store_pc: u64,
    /// Branches between the store and the load in program order (PHAST's
    /// allocation context).
    pub branches_between: u32,
}

impl TraceDep {
    /// The commit-time outcome that trains a predictor on this dependence.
    /// A distance beyond the predictors' 127-store window trains as
    /// independent: no in-flight store can be that far back.
    pub fn outcome(&self) -> LoadOutcome {
        match StoreDistance::new(self.distance) {
            Some(distance) => LoadOutcome::dependent(ObservedDependence {
                distance,
                class: self.class,
                store_pc: self.store_pc,
                branches_between: self.branches_between,
            }),
            None => LoadOutcome::independent(),
        }
    }
}

/// The operation class of a micro-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UopKind {
    /// An arithmetic/logic operation (execution latency in [`Uop::latency`]).
    Alu,
    /// A memory load.
    Load {
        /// Effective address.
        addr: u64,
        /// Access size in bytes.
        size: u8,
        /// Ground-truth dependence, if any.
        dep: Option<TraceDep>,
    },
    /// A memory store. `srcs[0]` is the address operand, `srcs[1]` the data
    /// operand.
    Store {
        /// Effective address.
        addr: u64,
        /// Access size in bytes.
        size: u8,
    },
    /// A control transfer.
    Branch {
        /// Conditional or indirect (unconditional-direct branches are
        /// recorded as always-taken conditionals).
        kind: BranchKind,
        /// Actual direction.
        taken: bool,
        /// Actual target.
        target: u64,
    },
}

impl UopKind {
    /// True for stores.
    pub fn is_store(&self) -> bool {
        matches!(self, UopKind::Store { .. })
    }
}

/// One micro-op of the committed path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Uop {
    /// Instruction address.
    pub pc: u64,
    /// Operation class and operands.
    pub kind: UopKind,
    /// Source registers (up to two; a store uses `[address, data]`).
    pub srcs: [Option<ArchReg>; 2],
    /// Destination register.
    pub dst: Option<ArchReg>,
    /// Execution latency in cycles for ALU ops (memory latency comes from
    /// the cache model; branches resolve with this latency too).
    pub latency: u8,
}

impl Uop {
    /// Builds an ALU micro-op.
    pub fn alu(pc: u64, srcs: [Option<ArchReg>; 2], dst: Option<ArchReg>, latency: u8) -> Self {
        Self {
            pc,
            kind: UopKind::Alu,
            srcs,
            dst,
            latency,
        }
    }

    /// Builds a load micro-op. `addr_reg` produces the address.
    pub fn load(
        pc: u64,
        addr: u64,
        size: u8,
        addr_reg: Option<ArchReg>,
        dst: ArchReg,
        dep: Option<TraceDep>,
    ) -> Self {
        Self {
            pc,
            kind: UopKind::Load { addr, size, dep },
            srcs: [addr_reg, None],
            dst: Some(dst),
            latency: 1,
        }
    }

    /// Builds a store micro-op with address and data operands.
    pub fn store(
        pc: u64,
        addr: u64,
        size: u8,
        addr_reg: Option<ArchReg>,
        data_reg: Option<ArchReg>,
    ) -> Self {
        Self {
            pc,
            kind: UopKind::Store { addr, size },
            srcs: [addr_reg, data_reg],
            dst: None,
            latency: 1,
        }
    }

    /// Builds a conditional branch micro-op.
    pub fn branch(pc: u64, taken: bool, target: u64, cond_reg: Option<ArchReg>) -> Self {
        Self {
            pc,
            kind: UopKind::Branch {
                kind: BranchKind::Conditional,
                taken,
                target,
            },
            srcs: [cond_reg, None],
            dst: None,
            latency: 1,
        }
    }

    /// Builds an indirect branch micro-op (always taken).
    pub fn indirect_branch(pc: u64, target: u64, target_reg: Option<ArchReg>) -> Self {
        Self {
            pc,
            kind: UopKind::Branch {
                kind: BranchKind::Indirect,
                taken: true,
                target,
            },
            srcs: [target_reg, None],
            dst: None,
            latency: 1,
        }
    }
}

/// The register byte that means "no register", in a static entry and in
/// the `.mtrc` codec alike.
pub(crate) const NO_REG: u8 = 0xff;

/// A load record's `aux` when the load carries no dependence.
const NO_DEP: u32 = u32::MAX;

/// An empty slot of [`UopBuf`]'s intern index; never a static's index.
const NO_OP: u32 = u32::MAX;

/// A static entry's tag byte: the low two bits hold the kind, then a
/// branch's kind. A branch's direction varies per instance and lives in its
/// record's `aux`.
const TAG_KIND: u8 = 0b11;
const TAG_ALU: u8 = 0;
const TAG_LOAD: u8 = 1;
const TAG_STORE: u8 = 2;
const TAG_BRANCH: u8 = 3;
const TAG_INDIRECT: u8 = 1 << 2;

/// The part of a micro-op that stays the same across its dynamic
/// instances: everything but the address or target, a branch's direction
/// and a load's dependence. [`UopBuf`] stores each distinct one once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Static {
    pc: u64,
    /// One byte each, in order: the access size of a load or store (zero
    /// otherwise), the two sources and the destination ([`NO_REG`] for
    /// `None`), the latency and the tag; then two zero bytes. One word, so
    /// interning compares and hashes a static in two.
    bytes: [u8; 8],
}

/// One dynamic micro-op as a trace stores it: 16 bytes that name its
/// [`Static`] entry and hold what varies per instance.
#[derive(Debug, Clone, Copy)]
struct Record {
    /// A load's or store's address, a branch's target; zero for an ALU op.
    addr: u64,
    /// Index into the static table.
    op: u32,
    /// A load's index into the dependence table or [`NO_DEP`]; a branch's
    /// direction (1 = taken); zero otherwise.
    aux: u32,
}

const _: () = assert!(std::mem::size_of::<Record>() == 16);
const _: () = assert!(std::mem::size_of::<Static>() == 16);

/// Packs a register name; a name outside the trace format's 64 registers
/// would index past the simulator's register tables.
fn pack_reg(reg: Option<ArchReg>) -> u8 {
    match reg {
        None => NO_REG,
        Some(r) => {
            assert!(
                usize::from(r) < NUM_ARCH_REGS,
                "register {r} outside the {NUM_ARCH_REGS} architectural registers"
            );
            r
        }
    }
}

fn unpack_reg(reg: u8) -> Option<ArchReg> {
    (reg != NO_REG).then_some(reg)
}

impl Static {
    fn new(pc: u64, size: u8, srcs: [u8; 2], dst: u8, latency: u8, tag: u8) -> Self {
        Self {
            pc,
            bytes: [size, srcs[0], srcs[1], dst, latency, tag, 0, 0],
        }
    }

    fn size(&self) -> u8 {
        self.bytes[0]
    }

    fn srcs(&self) -> [u8; 2] {
        [self.bytes[1], self.bytes[2]]
    }

    fn dst(&self) -> u8 {
        self.bytes[3]
    }

    fn latency(&self) -> u8 {
        self.bytes[4]
    }

    fn tag(&self) -> u8 {
        self.bytes[5]
    }

    fn kind_tag(&self) -> u8 {
        self.tag() & TAG_KIND
    }

    /// The intern index's slot for this static in an index of `mask + 1`
    /// slots: both words, multiply-mixed; the product's upper half picks.
    #[inline]
    fn slot(&self, mask: usize) -> usize {
        const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        let h = (self.pc.wrapping_mul(K) ^ u64::from_le_bytes(self.bytes)).wrapping_mul(K);
        h.rotate_left(32) as usize & mask
    }
}

impl Record {
    /// The by-value view of this record; `statics` and `deps` are its
    /// buffer's static and dependence tables.
    #[inline]
    fn unpack(&self, statics: &[Static], deps: &[TraceDep]) -> Uop {
        let s = &statics[self.op as usize];
        let kind = match s.kind_tag() {
            TAG_ALU => UopKind::Alu,
            TAG_LOAD => UopKind::Load {
                addr: self.addr,
                size: s.size(),
                dep: (self.aux != NO_DEP).then(|| deps[self.aux as usize]),
            },
            TAG_STORE => UopKind::Store {
                addr: self.addr,
                size: s.size(),
            },
            _ => UopKind::Branch {
                kind: if s.tag() & TAG_INDIRECT != 0 {
                    BranchKind::Indirect
                } else {
                    BranchKind::Conditional
                },
                taken: self.aux != 0,
                target: self.addr,
            },
        };
        Uop {
            pc: s.pc,
            kind,
            srcs: s.srcs().map(unpack_reg),
            dst: unpack_reg(s.dst()),
            latency: s.latency(),
        }
    }
}

/// A trace's micro-ops, packed: a table of the distinct static micro-ops,
/// one 16-byte record per dynamic uop naming its static entry, and a table
/// of the dependences that only a few loads carry. Reading hands out
/// [`Uop`] by value ([`get`](Self::get), [`iter`](Self::iter),
/// `for uop in &buf`); nothing outside this module sees the tables.
#[derive(Clone, Default)]
pub struct UopBuf {
    recs: Vec<Record>,
    statics: Vec<Static>,
    deps: Vec<TraceDep>,
    /// Open-addressed (linear-probing) index from a static's contents to
    /// its position in `statics`, [`NO_OP`] for an empty slot: empty, or a
    /// power of two at least four times as long as `statics`, so most
    /// lookups read one slot.
    index: Vec<u32>,
}

impl UopBuf {
    /// Bytes one record takes, the static and dependence tables aside.
    pub const RECORD_BYTES: usize = std::mem::size_of::<Record>();

    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty buffer with room for `uops` records.
    pub fn with_capacity(uops: usize) -> Self {
        Self {
            recs: Vec::with_capacity(uops),
            ..Self::default()
        }
    }

    /// Appends a micro-op.
    ///
    /// # Panics
    ///
    /// Panics if a register is outside `0..NUM_ARCH_REGS`.
    #[inline(always)] // see `intern`
    pub fn push(&mut self, uop: Uop) {
        let (tag, addr, size, aux) = match uop.kind {
            UopKind::Alu => (TAG_ALU, 0, 0, 0),
            UopKind::Load { addr, size, dep } => {
                let aux = match dep {
                    None => NO_DEP,
                    Some(d) => self.push_dep(d),
                };
                (TAG_LOAD, addr, size, aux)
            }
            UopKind::Store { addr, size } => (TAG_STORE, addr, size, 0),
            UopKind::Branch {
                kind,
                taken,
                target,
            } => {
                let indirect = if kind == BranchKind::Indirect {
                    TAG_INDIRECT
                } else {
                    0
                };
                (TAG_BRANCH | indirect, target, 0, u32::from(taken))
            }
        };
        let op = self.intern(Static::new(
            uop.pc,
            size,
            uop.srcs.map(pack_reg),
            pack_reg(uop.dst),
            uop.latency,
            tag,
        ));
        self.recs.push(Record { addr, op, aux });
    }

    fn push_dep(&mut self, dep: TraceDep) -> u32 {
        let index = u32::try_from(self.deps.len())
            .ok()
            .filter(|&i| i != NO_DEP)
            .expect("dependence table outgrew its 32-bit index");
        self.deps.push(dep);
        index
    }

    /// The static table's index of `s`, appending it if it is new. It and
    /// `push` are always inlined into each producer's call sites: left to
    /// the compiler, `generate` kept some pushes out of line, and trace
    /// generation measured slower than with 32-byte records (EXPERIMENTS.md,
    /// "Static uop table").
    #[inline(always)]
    fn intern(&mut self, s: Static) -> u32 {
        let mask = self.index.len().wrapping_sub(1);
        let mut slot = s.slot(mask);
        while let Some(&op) = self.index.get(slot) {
            match self.statics.get(op as usize) {
                Some(key) if *key == s => return op,
                None => break,
                _ => slot = (slot + 1) & mask,
            }
        }
        self.insert(s)
    }

    /// Appends `s` to the static table and files it in the index, which
    /// doubles (64 slots at first) to stay at most a quarter full.
    #[cold]
    fn insert(&mut self, s: Static) -> u32 {
        let op = u32::try_from(self.statics.len())
            .ok()
            .filter(|&i| i != NO_OP)
            .expect("static table outgrew its 32-bit index");
        self.statics.push(s);
        if self.index.len() < 4 * self.statics.len() {
            let len = (self.index.len() * 2).max(64);
            self.index = vec![NO_OP; len];
            for (op, s) in self.statics.iter().enumerate() {
                Self::file(&mut self.index, s, op as u32);
            }
        } else {
            Self::file(&mut self.index, &s, op);
        }
        op
    }

    /// Files static `op`, whose contents are `s`, in the first empty slot
    /// of its probe sequence.
    fn file(index: &mut [u32], s: &Static, op: u32) {
        let mask = index.len() - 1;
        let mut slot = s.slot(mask);
        while index[slot] != NO_OP {
            slot = (slot + 1) & mask;
        }
        index[slot] = op;
    }

    /// Number of micro-ops.
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// True when the buffer holds no micro-op.
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Number of entries in the dependence table (loads that carry one).
    pub fn dep_count(&self) -> usize {
        self.deps.len()
    }

    /// Number of distinct static micro-ops: everything of a [`Uop`] but
    /// its address or target, its branch direction and its dependence.
    pub fn static_count(&self) -> usize {
        self.statics.len()
    }

    /// Bytes the buffer's contents take: records, static entries,
    /// dependences and the intern index's slots, by length (spare capacity
    /// aside).
    pub fn packed_bytes(&self) -> usize {
        use std::mem::size_of;
        self.recs.len() * size_of::<Record>()
            + self.statics.len() * size_of::<Static>()
            + self.deps.len() * size_of::<TraceDep>()
            + self.index.len() * size_of::<u32>()
    }

    /// The whole buffer as a borrowed view.
    pub fn as_slice(&self) -> UopSlice<'_> {
        UopSlice {
            recs: &self.recs,
            statics: &self.statics,
            deps: &self.deps,
        }
    }

    /// The micro-ops in `range`.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> UopSlice<'_> {
        self.as_slice().slice(range)
    }

    /// Micro-op `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> Uop {
        self.recs[i].unpack(&self.statics, &self.deps)
    }

    /// Micro-op `i`'s static entry.
    #[inline]
    fn static_of(&self, i: usize) -> &Static {
        &self.statics[self.recs[i].op as usize]
    }

    /// Micro-op `i`'s PC, without building the whole view.
    #[inline]
    pub fn pc(&self, i: usize) -> u64 {
        self.static_of(i).pc
    }

    /// Micro-op `i`'s execution latency, without building the whole view.
    #[inline]
    pub fn latency(&self, i: usize) -> u8 {
        self.static_of(i).latency()
    }

    /// The micro-ops in order, by value.
    pub fn iter(&self) -> UopIter<'_> {
        self.as_slice().iter()
    }

    /// Number of micro-ops of the kind whose tag is `tag`.
    fn count_kind(&self, tag: u8) -> usize {
        self.recs
            .iter()
            .filter(|r| self.statics[r.op as usize].kind_tag() == tag)
            .count()
    }
}

impl std::fmt::Debug for UopBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self).finish()
    }
}

/// Two buffers are equal when they hold the same micro-ops.
impl PartialEq for UopBuf {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other)
    }
}

impl Eq for UopBuf {}

impl Extend<Uop> for UopBuf {
    fn extend<I: IntoIterator<Item = Uop>>(&mut self, iter: I) {
        for uop in iter {
            self.push(uop);
        }
    }
}

impl FromIterator<Uop> for UopBuf {
    fn from_iter<I: IntoIterator<Item = Uop>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut buf = Self::with_capacity(iter.size_hint().0);
        buf.extend(iter);
        buf
    }
}

impl<'a> IntoIterator for &'a UopBuf {
    type Item = Uop;
    type IntoIter = UopIter<'a>;

    fn into_iter(self) -> UopIter<'a> {
        self.iter()
    }
}

/// A borrowed run of a [`UopBuf`]'s micro-ops, as a slice is of a `Vec`:
/// cheap to copy, read by value.
#[derive(Debug, Clone, Copy)]
pub struct UopSlice<'a> {
    recs: &'a [Record],
    /// The whole buffer's static and dependence tables: records index
    /// them absolutely.
    statics: &'a [Static],
    deps: &'a [TraceDep],
}

impl<'a> UopSlice<'a> {
    /// Number of micro-ops.
    pub fn len(self) -> usize {
        self.recs.len()
    }

    /// True when the view holds no micro-op.
    pub fn is_empty(self) -> bool {
        self.recs.is_empty()
    }

    /// The micro-ops in `range` of this view.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds.
    pub fn slice(self, range: impl RangeBounds<usize>) -> UopSlice<'a> {
        let bounds = (range.start_bound().cloned(), range.end_bound().cloned());
        UopSlice {
            recs: &self.recs[bounds],
            ..self
        }
    }

    /// The micro-ops in order, by value.
    pub fn iter(self) -> UopIter<'a> {
        UopIter {
            recs: self.recs.iter(),
            statics: self.statics,
            deps: self.deps,
        }
    }
}

impl<'a> IntoIterator for UopSlice<'a> {
    type Item = Uop;
    type IntoIter = UopIter<'a>;

    fn into_iter(self) -> UopIter<'a> {
        self.iter()
    }
}

/// Iterator over packed micro-ops, yielding each as a [`Uop`].
#[derive(Debug, Clone)]
pub struct UopIter<'a> {
    recs: std::slice::Iter<'a, Record>,
    statics: &'a [Static],
    deps: &'a [TraceDep],
}

impl Iterator for UopIter<'_> {
    type Item = Uop;

    #[inline]
    fn next(&mut self) -> Option<Uop> {
        self.recs.next().map(|r| r.unpack(self.statics, self.deps))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.recs.size_hint()
    }
}

/// A committed-path micro-op trace with a name for reporting.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Workload name (e.g. `"perlbench2"`).
    pub name: String,
    /// The micro-ops in program order.
    pub uops: UopBuf,
}

impl Trace {
    /// Creates a named trace from unpacked micro-ops (tests and small
    /// traces; producers of long ones fill a [`UopBuf`] directly).
    pub fn new(name: impl Into<String>, uops: Vec<Uop>) -> Self {
        Self {
            name: name.into(),
            uops: uops.into_iter().collect(),
        }
    }

    /// Number of micro-ops.
    pub fn len(&self) -> usize {
        self.uops.len()
    }

    /// True when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.uops.is_empty()
    }

    /// Count of load micro-ops.
    pub fn num_loads(&self) -> usize {
        self.uops.count_kind(TAG_LOAD)
    }

    /// Count of store micro-ops.
    pub fn num_stores(&self) -> usize {
        self.uops.count_kind(TAG_STORE)
    }

    /// Count of branch micro-ops.
    pub fn num_branches(&self) -> usize {
        self.uops.count_kind(TAG_BRANCH)
    }

    /// Validates internal consistency of the trace annotations.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency: a register outside
    /// `0..NUM_ARCH_REGS`, a load whose ground-truth distance points before
    /// the start of the trace or at a non-store, or a store-distance of
    /// zero.
    pub fn validate(&self) -> Result<(), String> {
        let mut stores_before = 0u64;
        let mut store_positions: Vec<usize> = Vec::new();
        for (i, uop) in self.uops.iter().enumerate() {
            if let Some(reg) = [uop.srcs[0], uop.srcs[1], uop.dst]
                .into_iter()
                .flatten()
                .find(|&r| usize::from(r) >= NUM_ARCH_REGS)
            {
                return Err(format!("uop {i}: register {reg} out of range"));
            }
            if let UopKind::Load { dep: Some(dep), .. } = &uop.kind {
                if dep.distance == 0 {
                    return Err(format!("uop {i}: dependence distance of 0"));
                }
                if u64::from(dep.distance) > stores_before {
                    return Err(format!(
                        "uop {i}: distance {} exceeds {} prior stores",
                        dep.distance, stores_before
                    ));
                }
                let src = store_positions[store_positions.len() - dep.distance as usize];
                let src_uop = self.uops.get(src);
                if !src_uop.kind.is_store() {
                    return Err(format!("uop {i}: dependence target {src} is not a store"));
                }
                if src_uop.pc != dep.store_pc {
                    return Err(format!(
                        "uop {i}: store_pc {:#x} does not match store at {src} ({:#x})",
                        dep.store_pc, src_uop.pc
                    ));
                }
            }
            if uop.kind.is_store() {
                stores_before += 1;
                store_positions.push(i);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_window_dependences_train_independent() {
        let mut dep = TraceDep {
            distance: 500, // beyond StoreDistance::MAX
            class: BypassClass::DirectBypass,
            store_pc: 0x10,
            branches_between: 2,
        };
        assert_eq!(dep.outcome(), LoadOutcome::independent());
        dep.distance = 127;
        let observed = dep.outcome().dependence.expect("in-window dependence");
        assert_eq!(observed.distance.get(), 127);
        assert_eq!((observed.store_pc, observed.branches_between), (0x10, 2));
    }

    #[test]
    fn constructors_set_kinds() {
        let l = Uop::load(0x10, 0x1000, 8, Some(1), 2, None);
        assert!(matches!(l.kind, UopKind::Load { .. }));
        assert_eq!(l.dst, Some(2));
        let s = Uop::store(0x14, 0x1000, 8, Some(1), Some(3));
        assert!(s.kind.is_store());
        assert_eq!(s.srcs, [Some(1), Some(3)]);
        let b = Uop::branch(0x18, true, 0x30, None);
        assert!(matches!(b.kind, UopKind::Branch { .. }));
        let a = Uop::alu(0x1c, [None, None], Some(4), 3);
        assert_eq!(a.latency, 3);
    }

    #[test]
    fn trace_counts() {
        let t = Trace::new(
            "t",
            vec![
                Uop::store(0, 0x100, 8, None, None),
                Uop::load(4, 0x100, 8, None, 1, None),
                Uop::branch(8, true, 0, None),
                Uop::alu(12, [None, None], None, 1),
            ],
        );
        assert_eq!(t.len(), 4);
        assert_eq!(t.num_loads(), 1);
        assert_eq!(t.num_stores(), 1);
        assert_eq!(t.num_branches(), 1);
    }

    #[test]
    fn validate_accepts_consistent_dep() {
        let dep = TraceDep {
            distance: 1,
            class: BypassClass::DirectBypass,
            store_pc: 0,
            branches_between: 0,
        };
        let t = Trace::new(
            "t",
            vec![
                Uop::store(0, 0x100, 8, None, None),
                Uop::load(4, 0x100, 8, None, 1, Some(dep)),
            ],
        );
        t.validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_distance() {
        let dep = TraceDep {
            distance: 2,
            class: BypassClass::DirectBypass,
            store_pc: 0,
            branches_between: 0,
        };
        let t = Trace::new(
            "t",
            vec![
                Uop::store(0, 0x100, 8, None, None),
                Uop::load(4, 0x100, 8, None, 1, Some(dep)),
            ],
        );
        assert!(t.validate().is_err());
    }

    /// A register the simulator's 64-entry tables cannot index never
    /// enters a trace.
    #[test]
    #[should_panic(expected = "register 64 outside the 64 architectural registers")]
    fn push_rejects_out_of_range_registers() {
        let _ = Trace::new("r", vec![Uop::alu(0x10, [None, None], Some(64), 1)]);
    }

    #[test]
    fn validate_reports_out_of_range_registers() {
        let mut t = Trace::new("r", vec![Uop::alu(0x10, [Some(1), None], Some(2), 1)]);
        t.validate().unwrap();
        // Only a static entry written around `push` can hold one.
        t.uops.statics[0].bytes[2] = 100;
        assert_eq!(
            t.validate(),
            Err("uop 0: register 100 out of range".to_string())
        );
    }

    #[test]
    fn views_agree_with_the_unpacked_uops() {
        let dep = TraceDep {
            distance: 1,
            class: BypassClass::Offset,
            store_pc: 0x4,
            branches_between: 1,
        };
        let uops = vec![
            Uop::store(0x4, 0x100, 8, Some(1), Some(2)),
            Uop::branch(0x8, false, 0x40, Some(3)),
            Uop::load(0xc, 0x104, 4, Some(1), 5, Some(dep)),
            Uop::alu(0x10, [Some(5), None], Some(6), 7),
        ];
        let t = Trace::new("v", uops.clone());
        assert_eq!(t.uops.dep_count(), 1);
        for (i, &u) in uops.iter().enumerate() {
            assert_eq!(t.uops.get(i), u);
            assert_eq!((t.uops.pc(i), t.uops.latency(i)), (u.pc, u.latency));
        }
        let tail = t.uops.slice(2..);
        assert_eq!(tail.len(), 2);
        assert_eq!(
            tail.iter().collect::<Vec<_>>(),
            uops[2..],
            "a sub-view keeps its dependences"
        );
        assert_ne!(t.uops, Trace::new("v", uops[..3].to_vec()).uops);
    }

    /// Every field of a static part keys its entry: one PC with two
    /// latencies, two sizes, two register sets, and a load and a store
    /// makes one entry each, and a repeat makes none.
    #[test]
    fn one_pc_interns_each_static_part_apart() {
        let uops = [
            Uop::alu(0x40, [Some(1), None], Some(2), 1),
            Uop::alu(0x40, [Some(1), None], Some(2), 4),
            Uop::alu(0x40, [Some(3), Some(4)], Some(2), 1),
            Uop::alu(0x40, [Some(1), None], None, 1),
            Uop::load(0x40, 0x100, 8, Some(1), 2, None),
            Uop::load(0x40, 0x100, 4, Some(1), 2, None),
            Uop::store(0x40, 0x100, 8, Some(1), Some(2)),
            Uop::branch(0x40, true, 0x80, Some(1)),
            Uop::indirect_branch(0x40, 0x80, Some(1)),
        ];
        let mut buf: UopBuf = uops.iter().copied().collect();
        assert_eq!(buf.static_count(), uops.len());
        buf.extend(uops.iter().rev().copied());
        assert_eq!(buf.static_count(), uops.len(), "a repeat reuses its entry");
        let back: Vec<Uop> = buf.iter().collect();
        let expected: Vec<Uop> = uops.iter().chain(uops.iter().rev()).copied().collect();
        assert_eq!(back, expected);
    }

    /// A branch's direction and target, a load's address and dependence
    /// and a store's address live in the record: one static serves every
    /// instance.
    #[test]
    fn per_instance_fields_share_one_static() {
        let dep = TraceDep {
            distance: 1,
            class: BypassClass::NoOffset,
            store_pc: 0x10,
            branches_between: 3,
        };
        let mut uops = Vec::new();
        for i in 0..8u64 {
            uops.push(Uop::branch(0x8, i % 3 == 0, 0x100 + 64 * i, Some(5)));
            uops.push(Uop::store(0x10, 0x1000 + 8 * i, 8, Some(1), Some(2)));
            let dep = (i % 2 == 1).then_some(TraceDep {
                distance: 1 + i as u32,
                ..dep
            });
            uops.push(Uop::load(0x14, 0x1000 + 8 * i, 8, Some(1), 3, dep));
        }
        let t = Trace::new("b", uops.clone());
        assert_eq!(t.uops.static_count(), 3);
        assert_eq!(t.uops.dep_count(), 4);
        for (i, &u) in uops.iter().enumerate() {
            assert_eq!(t.uops.get(i), u, "uop {i}");
        }
    }

    /// Static indices are 32-bit: more than 65,536 distinct statics read
    /// back as pushed, and each repeat finds its own.
    #[test]
    fn more_than_65536_statics_read_back() {
        const N: u64 = 70_000;
        let uop = |i: u64| Uop::alu(0x1000 + 4 * i, [None, None], Some((i % 64) as u8), 1);
        let buf: UopBuf = (0..N).chain(0..N).map(uop).collect();
        assert_eq!(buf.static_count(), N as usize);
        assert_eq!(buf.len(), 2 * N as usize);
        for (i, u) in buf.iter().enumerate() {
            assert_eq!(u, uop(i as u64 % N), "uop {i}");
        }
        assert_eq!(buf.recs[N as usize].op, 0);
        assert_eq!(buf.recs[2 * N as usize - 1].op, N as u32 - 1);
    }

    /// A sub-view read into another buffer is interned there: `slice`,
    /// `extend` and `collect` across buffers keep every field.
    #[test]
    fn slices_extend_and_collect_across_buffers() {
        let dep = TraceDep {
            distance: 1,
            class: BypassClass::DirectBypass,
            store_pc: 0x4,
            branches_between: 0,
        };
        let a_uops = vec![
            Uop::store(0x4, 0x100, 8, Some(1), Some(2)),
            Uop::load(0x8, 0x100, 8, Some(1), 3, Some(dep)),
            Uop::branch(0xc, true, 0x4, Some(3)),
            Uop::alu(0x10, [Some(3), None], Some(4), 3),
        ];
        let b_uops = vec![
            Uop::alu(0x10, [Some(3), None], Some(4), 1),
            Uop::branch(0xc, false, 0x4, Some(3)),
        ];
        let a = Trace::new("a", a_uops.clone()).uops;
        let mut b = Trace::new("b", b_uops.clone()).uops;
        b.extend(a.slice(1..3));
        let mut expected = b_uops.clone();
        expected.extend_from_slice(&a_uops[1..3]);
        assert_eq!(b.iter().collect::<Vec<_>>(), expected);
        assert_eq!(b.static_count(), 3, "the branch's static is shared");
        assert_eq!(b.dep_count(), 1);
        let c: UopBuf = a.slice(1..).iter().chain(&b).collect();
        let expected: Vec<Uop> = a_uops[1..].iter().chain(&expected).copied().collect();
        assert_eq!(c.iter().collect::<Vec<_>>(), expected);
        assert_eq!(
            a.slice(1..).iter().collect::<UopBuf>(),
            Trace::new("a1", a_uops[1..].to_vec()).uops
        );
    }

    #[test]
    fn validate_rejects_wrong_store_pc() {
        let dep = TraceDep {
            distance: 1,
            class: BypassClass::DirectBypass,
            store_pc: 0xbad,
            branches_between: 0,
        };
        let t = Trace::new(
            "t",
            vec![
                Uop::store(0, 0x100, 8, None, None),
                Uop::load(4, 0x100, 8, None, 1, Some(dep)),
            ],
        );
        assert!(t.validate().is_err());
    }
}
