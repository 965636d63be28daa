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
//! A [`Trace`] stores its micro-ops packed ([`UopBuf`]): 32 bytes a uop,
//! with the dependence that only a few loads carry kept in a side table.
//! Readers get each micro-op as a by-value [`Uop`] view.

use std::ops::RangeBounds;

use mascot::history::BranchKind;
use mascot::prediction::{BypassClass, LoadOutcome, ObservedDependence, StoreDistance};
use serde::{Deserialize, Serialize};

/// An architectural register name (the generator uses 0..=63).
pub type ArchReg = u8;

/// Number of architectural registers the trace format supports.
pub const NUM_ARCH_REGS: usize = 64;

/// Static ground truth about a load's memory dependence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
    /// True for loads.
    pub fn is_load(&self) -> bool {
        matches!(self, UopKind::Load { .. })
    }

    /// True for stores.
    pub fn is_store(&self) -> bool {
        matches!(self, UopKind::Store { .. })
    }

    /// True for branches.
    pub fn is_branch(&self) -> bool {
        matches!(self, UopKind::Branch { .. })
    }
}

/// One micro-op of the committed path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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

/// The register byte that means "no register", in a packed record and in
/// the `.mtrc` codec alike.
pub(crate) const NO_REG: u8 = 0xff;

/// A packed record's dependence index when the uop carries none.
const NO_DEP: u32 = u32::MAX;

/// A packed record's tag byte: the low two bits hold the kind, then a
/// branch's kind and direction.
const TAG_KIND: u8 = 0b11;
const TAG_ALU: u8 = 0;
const TAG_LOAD: u8 = 1;
const TAG_STORE: u8 = 2;
const TAG_BRANCH: u8 = 3;
const TAG_INDIRECT: u8 = 1 << 2;
const TAG_TAKEN: u8 = 1 << 3;

/// One micro-op as a trace stores it: the fields of [`Uop`] in 32 bytes,
/// with a load's (rare) dependence moved out of line into
/// [`UopBuf`]'s dependence table.
#[derive(Debug, Clone, Copy)]
struct Record {
    pc: u64,
    /// A load's or store's address, a branch's target; zero for an ALU op.
    addr: u64,
    /// Index into the dependence table, or [`NO_DEP`].
    dep: u32,
    /// Access size of a load or store; zero otherwise.
    size: u8,
    /// Source and destination registers, [`NO_REG`] for `None`.
    srcs: [u8; 2],
    dst: u8,
    latency: u8,
    tag: u8,
}

const _: () = assert!(std::mem::size_of::<Record>() == 32);

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

impl Record {
    fn kind_tag(&self) -> u8 {
        self.tag & TAG_KIND
    }

    /// The by-value view of this record; `deps` is its buffer's dependence
    /// table.
    #[inline]
    fn unpack(&self, deps: &[TraceDep]) -> Uop {
        let kind = match self.kind_tag() {
            TAG_ALU => UopKind::Alu,
            TAG_LOAD => UopKind::Load {
                addr: self.addr,
                size: self.size,
                dep: (self.dep != NO_DEP).then(|| deps[self.dep as usize]),
            },
            TAG_STORE => UopKind::Store {
                addr: self.addr,
                size: self.size,
            },
            _ => UopKind::Branch {
                kind: if self.tag & TAG_INDIRECT != 0 {
                    BranchKind::Indirect
                } else {
                    BranchKind::Conditional
                },
                taken: self.tag & TAG_TAKEN != 0,
                target: self.addr,
            },
        };
        Uop {
            pc: self.pc,
            kind,
            srcs: [unpack_reg(self.srcs[0]), unpack_reg(self.srcs[1])],
            dst: unpack_reg(self.dst),
            latency: self.latency,
        }
    }
}

/// A trace's micro-ops, packed: one 32-byte record per uop plus a table of
/// the dependences that only a few loads carry. Reading hands out [`Uop`]
/// by value ([`get`](Self::get), [`iter`](Self::iter), `for uop in &buf`);
/// nothing outside this module sees the records.
#[derive(Clone, Default)]
pub struct UopBuf {
    recs: Vec<Record>,
    deps: Vec<TraceDep>,
}

impl UopBuf {
    /// Bytes one record takes, dependence table aside.
    pub const RECORD_BYTES: usize = std::mem::size_of::<Record>();

    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty buffer with room for `uops` records.
    pub fn with_capacity(uops: usize) -> Self {
        Self {
            recs: Vec::with_capacity(uops),
            deps: Vec::new(),
        }
    }

    /// Appends a micro-op.
    ///
    /// # Panics
    ///
    /// Panics if a register is outside `0..NUM_ARCH_REGS`.
    pub fn push(&mut self, uop: Uop) {
        let (tag, addr, size, dep) = match uop.kind {
            UopKind::Alu => (TAG_ALU, 0, 0, None),
            UopKind::Load { addr, size, dep } => (TAG_LOAD, addr, size, dep),
            UopKind::Store { addr, size } => (TAG_STORE, addr, size, None),
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
                let taken = if taken { TAG_TAKEN } else { 0 };
                (TAG_BRANCH | indirect | taken, target, 0, None)
            }
        };
        let dep = match dep {
            None => NO_DEP,
            Some(d) => {
                let index = u32::try_from(self.deps.len())
                    .ok()
                    .filter(|&i| i != NO_DEP)
                    .expect("dependence table outgrew its 32-bit index");
                self.deps.push(d);
                index
            }
        };
        self.recs.push(Record {
            pc: uop.pc,
            addr,
            dep,
            size,
            srcs: [pack_reg(uop.srcs[0]), pack_reg(uop.srcs[1])],
            dst: pack_reg(uop.dst),
            latency: uop.latency,
            tag,
        });
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

    /// The whole buffer as a borrowed view.
    pub fn as_slice(&self) -> UopSlice<'_> {
        UopSlice {
            recs: &self.recs,
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
        self.recs[i].unpack(&self.deps)
    }

    /// Micro-op `i`'s PC, without building the whole view.
    #[inline]
    pub fn pc(&self, i: usize) -> u64 {
        self.recs[i].pc
    }

    /// Micro-op `i`'s execution latency, without building the whole view.
    #[inline]
    pub fn latency(&self, i: usize) -> u8 {
        self.recs[i].latency
    }

    /// The micro-ops in order, by value.
    pub fn iter(&self) -> UopIter<'_> {
        self.as_slice().iter()
    }

    /// Number of micro-ops of the kind whose tag is `tag`.
    fn count_kind(&self, tag: u8) -> usize {
        self.recs.iter().filter(|r| r.kind_tag() == tag).count()
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
    /// The whole buffer's dependence table: records index it absolutely.
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
            deps: self.deps,
        }
    }

    /// The micro-ops in order, by value.
    pub fn iter(self) -> UopIter<'a> {
        UopIter {
            recs: self.recs.iter(),
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
    deps: &'a [TraceDep],
}

impl Iterator for UopIter<'_> {
    type Item = Uop;

    #[inline]
    fn next(&mut self) -> Option<Uop> {
        self.recs.next().map(|r| r.unpack(self.deps))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.recs.size_hint()
    }
}

/// A committed-path micro-op trace with a name for reporting.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
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
        assert!(l.kind.is_load());
        assert_eq!(l.dst, Some(2));
        let s = Uop::store(0x14, 0x1000, 8, Some(1), Some(3));
        assert!(s.kind.is_store());
        assert_eq!(s.srcs, [Some(1), Some(3)]);
        let b = Uop::branch(0x18, true, 0x30, None);
        assert!(b.kind.is_branch());
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
        // Only a record written around `push` can hold one.
        t.uops.recs[0].srcs[1] = 100;
        assert_eq!(t.validate(), Err("uop 0: register 100 out of range".to_string()));
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
        assert_eq!(tail.iter().collect::<Vec<_>>(), uops[2..], "a sub-view keeps its dependences");
        assert_ne!(t.uops, Trace::new("v", uops[..3].to_vec()).uops);
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
