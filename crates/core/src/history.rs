//! Global branch / path history and TAGE-style folded registers.
//!
//! MASCOT indexes each table with a hash of the load PC and an increasing
//! window of global branch history plus path history (§IV-B, Fig. 3).
//! Conditional branches contribute one taken/not-taken bit; indirect
//! branches contribute their target folded to 5 bits.
//!
//! The folded registers maintain the classic circular-shift-register
//! folding: the folded value is a pure function of the *contents* of the
//! history window (each event's contribution is rotated by its age), so
//! identical contexts always hash to identical indices regardless of when
//! they occur. Incremental updates are O(1); after a pipeline squash the
//! register is recomputed from the architectural event log in O(window).
//! The log, the registers and the per-table hashers are private to this
//! crate: every table user reaches them through
//! [`crate::tagged::TaggedTables`], which owns one log and one hasher per
//! table.
//!
//! # The hot path has no variable-count shift
//!
//! Every branch advances four folds per table and every load probes every
//! table, so this is the innermost loop of all five tagged structures. On
//! baseline x86-64 (no BMI2, the workspace's build target) a shift by a
//! register count (`shl/shr r64, cl`) costs several micro-ops, and the
//! per-fold widths made every rotation such a shift. The hot path therefore
//! works from constants fixed when a fold or hasher is built:
//!
//! - The log keeps a packed ring of each event's `[direction, path]` chunk
//!   beside the events, over every age a fold can read. Slots older than
//!   the retained log hold zeros, the chunk that contributes nothing, so
//!   "no event has aged out yet" needs no branch. The bank reads each
//!   distinct window edge once per branch; a squash rewrites the ring's
//!   slots along with the log.
//! - A fold advances with its mask (the rotate-by-one's wrap bit is the
//!   compare `reg << 1 > mask`) and two 32-entry tables of what each chunk
//!   XORs in as it enters and out as it leaves the window (squashed to the
//!   fold width and rotated by `window % bits`). The tables are built once
//!   per process for each `(width, rotation)` pair and shared by reference,
//!   so cloning a bank copies two pointers per fold, not tables. A window-0
//!   fold has mask 0 and all-zero tables, and so stays 0 without a test.
//! - A probe takes each `p >> s` of the PC hash as the high word of `p`
//!   times `2^(64 - s)`, with the multipliers and masks precomputed per
//!   table.
//!
//! The derived constants are rebuilt from each fold's width and window, never
//! stored in a snapshot. The recompute after a squash, and the per-fold
//! `recompute` the incremental push is tested against, fold with the plain
//! shift-and-rotate formulation.

use mascot_snapshot::{SnapError, SnapReader, SnapWriter};
use std::collections::VecDeque;
use std::sync::OnceLock;

use crate::tagged::MAX_TABLES;

/// Control-flow class of a history event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// Direction-predicted branch: contributes its taken bit.
    Conditional,
    /// Indirect branch/call/return: contributes its target folded to 5 bits.
    Indirect,
}

/// One committed-path branch, as recorded in global history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchEvent {
    /// PC of the branch instruction.
    pub pc: u64,
    /// Conditional or indirect.
    pub kind: BranchKind,
    /// Direction (always `true` for indirect/unconditional transfers).
    pub taken: bool,
    /// Branch target.
    pub target: u64,
}

/// Width in bits of one event's history contribution.
pub const CHUNK_BITS: u32 = 5;

impl BranchEvent {
    /// The event's direction-history contribution: 1 bit for conditional
    /// branches, a 5-bit fold of the target for indirect branches (§IV-B).
    ///
    /// Both are computed and one selected without a branch: the kind is
    /// data.
    #[inline]
    pub fn chunk(&self) -> u64 {
        let t = self.target >> 2;
        let folded = (t ^ (t >> 5) ^ (t >> 10) ^ (t >> 15)) & 0x1f;
        let indirect = u64::from(self.kind == BranchKind::Indirect).wrapping_neg();
        (folded & indirect) | (u64::from(self.taken) & !indirect)
    }

    /// The event's path-history contribution: low PC bits.
    #[inline]
    pub fn path_chunk(&self) -> u64 {
        (self.pc >> 2) & 0x1f
    }

    /// Both contributions, packed as one ring slot.
    #[inline]
    fn chunks(&self) -> [u8; 2] {
        [self.chunk() as u8, self.path_chunk() as u8]
    }
}

/// What chunk `chunk` contributes to a `bits`-wide fold at rotation `rot`
/// (`age % bits`): the chunk folded to the register width (kept as is when
/// it fits, else its low bits XORed with the bits above them), rotated left
/// by `rot` within `bits` bits. The plain shift-and-rotate formulation: the
/// recompute folds with it directly, and it fills the [`fold_table`]s the
/// incremental push reads.
#[inline]
fn rotated_chunk(bits: u32, chunk: u64, rot: u32) -> u64 {
    debug_assert!(rot < bits, "rotation must be pre-reduced");
    let mask = (1u64 << bits) - 1;
    let x = if bits >= CHUNK_BITS {
        chunk & mask
    } else {
        ((chunk >> bits) ^ chunk) & mask
    };
    if rot == 0 {
        x
    } else {
        ((x << rot) | (x >> (bits - rot))) & mask
    }
}

/// Chunk contributions of a fold that never changes (window 0).
static ZERO_TABLE: [u64; 32] = [0; 32];

/// One lazily built table per `(bits, rot)` pair with `bits` in `1..=63`
/// and `rot < bits`, at index `bits * (bits - 1) / 2 + rot`. Boxed, so only
/// the pairs some fold uses take table space.
static FOLD_TABLES: [OnceLock<Box<[u64; 32]>>; 63 * 64 / 2] =
    [const { OnceLock::new() }; 63 * 64 / 2];

/// `rotated_chunk(bits, c, rot)` for every 5-bit chunk `c`, built once per
/// process and shared by every fold of that width and rotation, so a fold
/// carries two references instead of its own tables.
fn fold_table(bits: u32, rot: u32) -> &'static [u64; 32] {
    assert!(
        (1..64).contains(&bits) && rot < bits,
        "fold width must be in 1..=63 bits"
    );
    let slot = (bits * (bits - 1) / 2 + rot) as usize;
    FOLD_TABLES[slot]
        .get_or_init(|| Box::new(std::array::from_fn(|c| rotated_chunk(bits, c as u64, rot))))
}

/// A bounded log of the most recent branch events, most recent last, with
/// the ring of their packed chunks that the folds read.
///
/// The ring covers the ages any fold can read: folds over a log span at
/// most half its capacity (the bank sizes the log at twice its longest
/// window). Within that reach the ring mirrors the log, and holds `[0, 0]`
/// past the oldest retained event.
#[derive(Debug, Clone)]
pub(crate) struct GlobalHistory {
    events: VecDeque<BranchEvent>,
    capacity: usize,
    total: u64,
    /// `[direction, path]` chunks, newest at `head`, in a power-of-two ring
    /// of at least `reach` slots.
    chunks: Vec<[u8; 2]>,
    head: usize,
    /// Ages the ring mirrors: `capacity / 2`.
    reach: usize,
}

impl GlobalHistory {
    /// Creates a history log retaining the last `capacity` events, for
    /// folds of windows up to `capacity / 2`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "history capacity must be non-zero");
        let reach = capacity / 2;
        Self {
            events: VecDeque::with_capacity(capacity),
            capacity,
            total: 0,
            chunks: vec![[0; 2]; reach.next_power_of_two()],
            head: 0,
            reach,
        }
    }

    #[inline]
    fn ring_mask(&self) -> usize {
        self.chunks.len() - 1
    }

    /// Appends an event, evicting the oldest if at capacity.
    pub fn push(&mut self, event: BranchEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(event);
        self.total += 1;
        // Every other slot ages by one; the one reused for the new event
        // falls out of the ring's reach.
        self.head = (self.head + 1) & self.ring_mask();
        self.chunks[self.head] = event.chunks();
    }

    /// The event `age` positions back (0 = most recent), if retained.
    #[cfg(test)]
    pub fn event_at_age(&self, age: usize) -> Option<&BranchEvent> {
        let len = self.events.len();
        if age < len {
            self.events.get(len - 1 - age)
        } else {
            None
        }
    }

    /// The `[direction, path]` chunks of the event `age` positions back, or
    /// `[0, 0]` past the oldest retained event. `age` must be within the
    /// ring's reach.
    #[inline]
    pub fn chunks_at_age(&self, age: usize) -> [u8; 2] {
        debug_assert!(age < self.reach, "age {age} is beyond the ring's reach");
        self.chunks[self.head.wrapping_sub(age) & self.ring_mask()]
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Total events ever pushed (not capped by capacity).
    #[cfg(test)]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Replaces the log contents with `events` (oldest first), used when
    /// restoring the architectural path after a squash.
    pub fn replace(&mut self, events: &[BranchEvent]) {
        let retained = &events[events.len().saturating_sub(self.capacity)..];
        self.events.clear();
        self.events.extend(retained.iter().copied());
        self.total = events.len() as u64;
        let mask = self.ring_mask();
        for age in 0..self.reach {
            let slot = self.head.wrapping_sub(age) & mask;
            self.chunks[slot] = match retained.len().checked_sub(age + 1) {
                Some(i) => retained[i].chunks(),
                None => [0; 2],
            };
        }
    }

    /// Iterates retained events, oldest first.
    #[cfg(test)]
    pub fn iter(&self) -> impl Iterator<Item = &BranchEvent> {
        self.events.iter()
    }

    /// Iterates retained events, newest first (age order). Recompute loops
    /// use this instead of one bounds-checked [`Self::event_at_age`] per age.
    #[inline]
    pub fn iter_newest_first(&self) -> impl Iterator<Item = &BranchEvent> {
        self.events.iter().rev()
    }

    /// The retention capacity this log was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends the log to a snapshot payload: capacity, lifetime total and
    /// every retained event, oldest first.
    pub fn snap_encode(&self, w: &mut SnapWriter) {
        w.u64(self.capacity as u64);
        w.u64(self.total);
        w.u32(self.events.len() as u32);
        for ev in &self.events {
            w.u64(ev.pc);
            w.u8(match ev.kind {
                BranchKind::Conditional => 0,
                BranchKind::Indirect => 1,
            });
            w.u8(u8::from(ev.taken));
            w.u64(ev.target);
        }
    }

    /// Decodes a log encoded by [`Self::snap_encode`] for a bank whose log
    /// holds `capacity` events, fail-closed. The stored capacity is checked
    /// before anything is sized by it. Unlike [`Self::replace`] (which
    /// resets `total` to the replacement length for squash recovery), this
    /// restores the lifetime push count exactly, so a restored predictor is
    /// bit-identical to the one snapshotted.
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncation, a stored capacity other than
    /// `capacity`, or any internally inconsistent field (more events than
    /// capacity, total below the retained count, unknown branch kind).
    pub fn snap_decode(r: &mut SnapReader<'_>, capacity: usize) -> Result<Self, SnapError> {
        if r.u64("history capacity")? != capacity as u64 {
            return Err(SnapError::Corrupt("history capacity does not match config"));
        }
        let total = r.u64("history total")?;
        let len = r.u32("history length")? as usize;
        if len > capacity {
            return Err(SnapError::Corrupt("history longer than its capacity"));
        }
        if total < len as u64 {
            return Err(SnapError::Corrupt("history total below retained count"));
        }
        let mut events = Vec::new();
        for _ in 0..len {
            let pc = r.u64("event pc")?;
            let kind = match r.u8("event kind")? {
                0 => BranchKind::Conditional,
                1 => BranchKind::Indirect,
                _ => return Err(SnapError::Corrupt("unknown branch kind")),
            };
            let taken = match r.u8("event taken")? {
                0 => false,
                1 => true,
                _ => return Err(SnapError::Corrupt("taken flag out of range")),
            };
            let target = r.u64("event target")?;
            events.push(BranchEvent {
                pc,
                kind,
                taken,
                target,
            });
        }
        let mut history = Self::new(capacity);
        history.replace(&events);
        history.total = total;
        Ok(history)
    }
}

/// Rewinds a history log and the table hashers folded over it to the
/// architectural path `recent` (oldest first), as after a pipeline squash:
/// the log takes the newest events of `recent`, and every hasher refolds
/// its windows from it in O(window). Only memory-order and SMB squashes
/// rewind, a few dozen times per million uops, so one path serves every
/// depth.
pub(crate) fn rewind_hashers(
    history: &mut GlobalHistory,
    hashers: &mut [TableHasher],
    recent: &[BranchEvent],
) {
    history.replace(recent);
    for hasher in hashers.iter_mut() {
        hasher.recompute(history);
    }
}

/// The distinct window edges of a bank's hashers, and which edge each
/// hasher's direction and path folds age their outgoing event out of.
///
/// Banks use few distinct windows (the path window caps at
/// [`PATH_WINDOW`], and tables share lengths), so [`advance_hashers`]
/// reads each edge's chunks from the ring once per branch and hands them to
/// every hasher that needs them.
#[derive(Debug, Clone)]
pub(crate) struct WindowEdges {
    /// Distinct ages (`window - 1`) at which an event leaves a window.
    ages: Vec<usize>,
    /// Per hasher, the `ages` slots of its direction and path windows.
    slots: Vec<[u8; 2]>,
}

impl WindowEdges {
    /// Maps every hasher's two windows to a shared edge.
    pub fn new(hashers: &[TableHasher]) -> Self {
        let mut ages = Vec::new();
        let mut slot_of = |age: usize| {
            let slot = ages.iter().position(|&a| a == age).unwrap_or_else(|| {
                ages.push(age);
                ages.len() - 1
            });
            slot as u8
        };
        let slots = hashers
            .iter()
            .map(|h| [slot_of(h.dir_edge()), slot_of(h.path_edge())])
            .collect();
        Self { ages, slots }
    }
}

/// Advances every hasher by one branch and then pushes it into the log: the
/// one per-branch path of every bank. Each distinct window edge's outgoing
/// chunks are read once (see [`WindowEdges`]), before the push.
#[inline]
pub(crate) fn advance_hashers(
    history: &mut GlobalHistory,
    hashers: &mut [TableHasher],
    edges: &WindowEdges,
    event: &BranchEvent,
) {
    let mut outgoing = [[0u8; 2]; 2 * MAX_TABLES];
    for (out, &age) in outgoing.iter_mut().zip(&edges.ages) {
        *out = history.chunks_at_age(age);
    }
    let (dir, path) = (event.chunk(), event.path_chunk());
    for (hasher, &[d, p]) in hashers.iter_mut().zip(&edges.slots) {
        let out_dir = outgoing[usize::from(d)][0];
        let out_path = outgoing[usize::from(p)][1];
        hasher.advance(dir, path, u64::from(out_dir), u64::from(out_path));
    }
    history.push(*event);
}

/// A folded view of the last `window` history events, `bits` wide.
///
/// The folded value is `XOR over events e of rotl(chunk(e), age(e) % bits)`,
/// a pure function of the window contents. `window == 0` always folds to 0
/// (the zero-history table is indexed by PC alone).
///
/// [`Self::push`] runs on every branch for every table, so it executes no
/// divide, no variable-count shift and no data-dependent branch: the
/// rotation and masks are derived once from `bits` and `window` (see the
/// module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FoldedHistory {
    bits: u32,
    window: u32,
    reg: u64,
    /// `(1 << bits) - 1`, or 0 for a window-0 fold, which so stays 0.
    mask: u64,
    /// Per chunk, what an incoming event XORs in (rotation 0).
    incoming: &'static [u64; 32],
    /// Per chunk, what an outgoing event XORs out (rotation `window %
    /// bits`).
    outgoing: &'static [u64; 32],
}

impl FoldedHistory {
    /// Creates an empty folded register.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 63.
    pub fn new(bits: u32, window: u32) -> Self {
        assert!(bits > 0 && bits < 64, "fold width must be in 1..=63 bits");
        let (mask, incoming, outgoing) = if window == 0 {
            (0, &ZERO_TABLE, &ZERO_TABLE)
        } else {
            (
                (1u64 << bits) - 1,
                fold_table(bits, 0),
                fold_table(bits, window % bits),
            )
        };
        Self {
            bits,
            window,
            reg: 0,
            mask,
            incoming,
            outgoing,
        }
    }

    /// The current folded value (`bits` wide).
    #[inline]
    pub fn value(&self) -> u64 {
        self.reg
    }

    /// The register rotated left by one within the mask: the bit shifted
    /// past the mask re-enters at the bottom (a no-op at one bit, and 0
    /// stays 0 under a zero mask).
    #[inline]
    fn rotated_by_one(&self) -> u64 {
        let shifted = self.reg << 1;
        (shifted & self.mask) | u64::from(shifted > self.mask)
    }

    /// Incrementally advances the fold by one event.
    ///
    /// `incoming` is the chunk of the newly inserted event; `outgoing` is
    /// the chunk of the event falling out of the window (i.e. the event that
    /// was at age `window - 1` before this push), or 0 while the window is
    /// still filling, as the bank's ring supplies past the oldest event.
    /// Both are [`CHUNK_BITS`]-bit chunks.
    #[inline]
    pub fn push(&mut self, incoming: u64, outgoing: u64) {
        debug_assert!(incoming < 32 && outgoing < 32, "chunks are 5 bits");
        self.reg = self.rotated_by_one()
            ^ self.incoming[incoming as usize & 31]
            ^ self.outgoing[outgoing as usize & 31];
    }

    /// Clears the register ahead of an accumulate-style recompute.
    #[inline]
    fn reset(&mut self) {
        self.reg = 0;
    }

    /// Folds one event in during a recompute; `rot` must equal
    /// `age % bits` for the event's age. This computes the contribution
    /// directly instead of through the push tables.
    #[inline]
    fn accumulate(&mut self, chunk: u64, rot: u32) {
        self.reg ^= rotated_chunk(self.bits, chunk, rot);
    }

    /// Rebuilds the fold from scratch against a history log: the reference
    /// the incremental and fused paths are tested against.
    #[cfg(test)]
    pub fn recompute<F>(&mut self, history: &GlobalHistory, chunk_of: F)
    where
        F: Fn(&BranchEvent) -> u64,
    {
        self.reg = 0;
        if self.window == 0 {
            return;
        }
        let n = (self.window as usize).min(history.len());
        let mut rot = 0u32;
        for ev in history.iter_newest_first().take(n) {
            self.accumulate(chunk_of(ev), rot);
            rot += 1;
            if rot == self.bits {
                rot = 0;
            }
        }
    }
}

/// `p >> s` as the high word of `p * mul`, for a `mul` from
/// [`shr_multiplier`]: one multiply instead of a variable-count shift.
#[inline]
fn mul_shr(p: u64, mul: u64) -> u64 {
    ((u128::from(p) * u128::from(mul)) >> 64) as u64
}

/// The multiplier `2^(64 - s)` that makes [`mul_shr`] shift right by `s`,
/// for `s` in `1..64`; 0 (shift everything out) for any other `s`.
fn shr_multiplier(s: u32) -> u64 {
    if (1..64).contains(&s) {
        1u64 << (64 - s)
    } else {
        0
    }
}

/// Per-table hash state: direction-history, path-history and tag folds.
///
/// Produces the set index and tag for one tagged table given a load PC, per
/// §IV-B ("the index and tag are computed by folding the load PC and
/// increasing lengths of the global branch and path history").
#[derive(Debug, Clone)]
pub(crate) struct TableHasher {
    history_len: u32,
    tag_bits: u32,
    index_fold: FoldedHistory,
    tag_fold_a: FoldedHistory,
    tag_fold_b: FoldedHistory,
    path_fold: FoldedHistory,
    /// `(1 << index_bits) - 1` and `(1 << tag_bits) - 1`.
    index_mask: u64,
    tag_mask: u64,
    /// [`shr_multiplier`]s for `p >> index_bits`, `p >> 2 * index_bits`
    /// and `p >> tag_bits`, in that order.
    pc_shr: [u64; 3],
}

/// Number of path-history events folded into the index (16-bit path history
/// as in PHAST/IDist, at 1 event per branch).
pub const PATH_WINDOW: u32 = 16;

impl TableHasher {
    /// Creates a hasher for a table with `1 << index_bits` sets, tags of
    /// `tag_bits` bits, indexed with `history_len` branches of context.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 32 or larger, or `tag_bits` is zero or 64
    /// or larger.
    pub fn new(history_len: u32, index_bits: u32, tag_bits: u32) -> Self {
        assert!(index_bits < 32, "index must fit 32 bits");
        let tag_b = if tag_bits > 1 { tag_bits - 1 } else { tag_bits };
        // A single-set (index_bits == 0) table still needs non-zero-width
        // fold registers; its index mask zeroes the result regardless.
        let fold_bits = index_bits.max(1);
        Self {
            history_len,
            tag_bits,
            index_fold: FoldedHistory::new(fold_bits, history_len),
            tag_fold_a: FoldedHistory::new(tag_bits, history_len),
            tag_fold_b: FoldedHistory::new(tag_b, history_len),
            path_fold: FoldedHistory::new(fold_bits, history_len.min(PATH_WINDOW)),
            index_mask: (1u64 << index_bits) - 1,
            tag_mask: (1u64 << tag_bits) - 1,
            pc_shr: [
                shr_multiplier(index_bits),
                shr_multiplier(2 * index_bits),
                shr_multiplier(tag_bits),
            ],
        }
    }

    /// The tag width in bits.
    pub fn tag_bits(&self) -> u32 {
        self.tag_bits
    }

    /// The age (`window - 1`) at which an event leaves the direction
    /// window. A window-0 fold ignores what it is handed, so any age does.
    fn dir_edge(&self) -> usize {
        self.history_len.saturating_sub(1) as usize
    }

    /// The age at which an event leaves the path window.
    fn path_edge(&self) -> usize {
        self.history_len.min(PATH_WINDOW).saturating_sub(1) as usize
    }

    /// Advances all four folds by one branch: `dir` and `path` are the new
    /// event's chunks, `out_dir` and `out_path` the chunks leaving the
    /// direction and path windows (zero while a window is filling).
    #[inline]
    fn advance(&mut self, dir: u64, path: u64, out_dir: u64, out_path: u64) {
        self.index_fold.push(dir, out_dir);
        self.tag_fold_a.push(dir, out_dir);
        self.tag_fold_b.push(dir, out_dir);
        self.path_fold.push(path, out_path);
    }

    /// Advances all folds by one branch on their own, reading this hasher's
    /// window edges from the log *before* the event is pushed into it.
    /// Banks advance through [`advance_hashers`] instead.
    #[cfg(test)]
    pub fn on_branch(&mut self, history_before_push: &GlobalHistory, event: &BranchEvent) {
        let out_dir = history_before_push.chunks_at_age(self.dir_edge())[0];
        let out_path = history_before_push.chunks_at_age(self.path_edge())[1];
        self.advance(
            event.chunk(),
            event.path_chunk(),
            u64::from(out_dir),
            u64::from(out_path),
        );
    }

    /// Rebuilds all folds from the (already rewound) history log.
    ///
    /// Fused: one pass over the events feeds all four folds, so each event
    /// is located and chunked once instead of once per fold. Equivalent to
    /// recomputing each fold independently (the fold is a pure function of
    /// the window contents), which `hasher_recompute_matches_incremental`
    /// pins.
    pub fn recompute(&mut self, history: &GlobalHistory) {
        self.index_fold.reset();
        self.tag_fold_a.reset();
        self.tag_fold_b.reset();
        self.path_fold.reset();
        let dir_n = (self.history_len as usize).min(history.len());
        let path_n = (self.history_len.min(PATH_WINDOW) as usize).min(history.len());
        // The path fold shares the index fold's width (see `new`), so one
        // wrap counter serves both.
        debug_assert_eq!(self.path_fold.bits, self.index_fold.bits);
        let (bi, ba, bb) = (
            self.index_fold.bits,
            self.tag_fold_a.bits,
            self.tag_fold_b.bits,
        );
        let (mut ri, mut ra, mut rb) = (0u32, 0u32, 0u32);
        for (age, ev) in history.iter_newest_first().take(dir_n).enumerate() {
            let chunk = ev.chunk();
            self.index_fold.accumulate(chunk, ri);
            self.tag_fold_a.accumulate(chunk, ra);
            self.tag_fold_b.accumulate(chunk, rb);
            if age < path_n {
                self.path_fold.accumulate(ev.path_chunk(), ri);
            }
            ri += 1;
            if ri == bi {
                ri = 0;
            }
            ra += 1;
            if ra == ba {
                ra = 0;
            }
            rb += 1;
            if rb == bb {
                rb = 0;
            }
        }
    }

    /// The set index and tag for `pc` under the current history (§IV-B:
    /// the load PC folded with the table's direction, path and tag
    /// histories): the one probe hash of every table.
    #[inline]
    pub fn lookup(&self, pc: u64) -> (u64, u64) {
        let p = pc >> 2;
        let [i1, i2, t] = self.pc_shr.map(|mul| mul_shr(p, mul));
        let index =
            (p ^ i1 ^ i2 ^ self.index_fold.value() ^ self.path_fold.value()) & self.index_mask;
        let tag =
            (p ^ t ^ self.tag_fold_a.value() ^ (self.tag_fold_b.value() << 1)) & self.tag_mask;
        (index, tag)
    }

    /// The set index for `pc` under the current history.
    #[cfg(test)]
    pub fn index(&self, pc: u64) -> u64 {
        self.lookup(pc).0
    }

    /// The tag for `pc` under the current history.
    #[cfg(test)]
    pub fn tag(&self, pc: u64) -> u64 {
        self.lookup(pc).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cond(pc: u64, taken: bool) -> BranchEvent {
        BranchEvent {
            pc,
            kind: BranchKind::Conditional,
            taken,
            target: pc + 8,
        }
    }

    fn indirect(pc: u64, target: u64) -> BranchEvent {
        BranchEvent {
            pc,
            kind: BranchKind::Indirect,
            taken: true,
            target,
        }
    }

    #[test]
    fn chunk_encodings() {
        assert_eq!(cond(0x100, true).chunk(), 1);
        assert_eq!(cond(0x100, false).chunk(), 0);
        let i = indirect(0x200, 0xdead_beef);
        assert!(i.chunk() <= 0x1f);
    }

    #[test]
    fn history_ring_eviction_and_ages() {
        let mut h = GlobalHistory::new(4);
        for i in 0..6u64 {
            h.push(cond(i * 4, i % 2 == 0));
        }
        assert_eq!(h.len(), 4);
        assert_eq!(h.total(), 6);
        // Most recent is pc = 20 (i = 5).
        assert_eq!(h.event_at_age(0).unwrap().pc, 20);
        assert_eq!(h.event_at_age(3).unwrap().pc, 8);
        assert!(h.event_at_age(4).is_none());
    }

    #[test]
    fn replace_restores_contents() {
        let mut h = GlobalHistory::new(8);
        h.push(cond(0, true));
        h.push(cond(4, false));
        let snapshot: Vec<_> = h.iter().copied().collect();
        h.push(cond(8, true));
        h.replace(&snapshot);
        assert_eq!(h.len(), 2);
        assert_eq!(h.event_at_age(0).unwrap().pc, 4);
    }

    /// Unlike `replace` (which renumbers `total` for squash recovery), the
    /// snapshot codec must restore the log *exactly*, lifetime total and
    /// capacity included.
    #[test]
    fn snap_roundtrip_is_exact() {
        let mut h = GlobalHistory::new(4);
        for i in 0..6u64 {
            h.push(if i % 2 == 0 {
                cond(i * 4, true)
            } else {
                indirect(i * 4, 0x1000 + i)
            });
        }
        let mut w = SnapWriter::new();
        h.snap_encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = GlobalHistory::snap_decode(&mut r, 4).unwrap();
        r.finish().unwrap();
        assert_eq!(back.capacity(), h.capacity());
        assert_eq!(back.total(), 6, "lifetime total survives, unlike replace()");
        assert_eq!(back.len(), h.len());
        assert!(back.iter().zip(h.iter()).all(|(a, b)| a == b));
    }

    #[test]
    fn snap_decode_is_fail_closed() {
        let mut h = GlobalHistory::new(4);
        h.push(cond(0, true));
        let mut w = SnapWriter::new();
        h.snap_encode(&mut w);
        let good = w.into_bytes();
        // Truncations fail.
        for cut in 0..good.len() {
            let mut r = SnapReader::new(&good[..cut]);
            assert!(GlobalHistory::snap_decode(&mut r, 4).is_err(), "cut {cut}");
        }
        // len > capacity fails: capacity 1, claimed length 2.
        let mut w = SnapWriter::new();
        w.u64(1);
        w.u64(2);
        w.u32(2);
        for _ in 0..2 {
            w.u64(0);
            w.u8(0);
            w.u8(0);
            w.u64(0);
        }
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(
            GlobalHistory::snap_decode(&mut r, 1).err(),
            Some(SnapError::Corrupt("history longer than its capacity"))
        );
        // Unknown branch kind fails.
        let mut w = SnapWriter::new();
        w.u64(4);
        w.u64(1);
        w.u32(1);
        w.u64(0);
        w.u8(9); // bad kind
        w.u8(0);
        w.u64(0);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(
            GlobalHistory::snap_decode(&mut r, 4).err(),
            Some(SnapError::Corrupt("unknown branch kind"))
        );
    }

    /// Incremental folding must agree exactly with recompute-from-scratch:
    /// this is the invariant that makes squash-rewind sound.
    #[test]
    fn incremental_fold_matches_recompute() {
        let window = 7u32;
        let mut hist = GlobalHistory::new(64);
        let mut inc = FoldedHistory::new(9, window);
        let events: Vec<BranchEvent> = (0..40u64)
            .map(|i| {
                if i % 5 == 0 {
                    indirect(i * 4, 0x1000 + i * 52)
                } else {
                    cond(i * 4, (i * 7) % 3 == 0)
                }
            })
            .collect();
        for ev in &events {
            let outgoing = if window > 0 {
                hist.event_at_age(window as usize - 1)
                    .map_or(0, BranchEvent::chunk)
            } else {
                0
            };
            inc.push(ev.chunk(), outgoing);
            hist.push(*ev);
            let mut scratch = FoldedHistory::new(9, window);
            scratch.recompute(&hist, BranchEvent::chunk);
            assert_eq!(inc.value(), scratch.value(), "diverged at pc {}", ev.pc);
        }
    }

    /// The fold must be a pure function of the window contents: the same
    /// window reached at different points in time folds identically.
    #[test]
    fn fold_depends_only_on_window_contents() {
        let pattern: Vec<BranchEvent> = (0..4u64).map(|i| cond(i * 4, i % 2 == 0)).collect();
        let fold_after = |warmup: usize| -> u64 {
            let mut hist = GlobalHistory::new(64);
            // Arbitrary warmup traffic that will have fully exited the window.
            for i in 0..warmup as u64 {
                hist.push(cond(0x900 + i * 4, i % 3 == 0));
            }
            for ev in &pattern {
                hist.push(*ev);
            }
            let mut f = FoldedHistory::new(8, 4);
            f.recompute(&hist, BranchEvent::chunk);
            f.value()
        };
        assert_eq!(fold_after(0), fold_after(13));
        assert_eq!(fold_after(13), fold_after(29));
    }

    #[test]
    fn zero_window_folds_to_zero() {
        let mut f = FoldedHistory::new(8, 0);
        f.push(1, 0);
        assert_eq!(f.value(), 0);
        let mut hist = GlobalHistory::new(8);
        hist.push(cond(0, true));
        f.recompute(&hist, BranchEvent::chunk);
        assert_eq!(f.value(), 0);
    }

    #[test]
    fn different_histories_usually_hash_differently() {
        let mut a = GlobalHistory::new(64);
        let mut b = GlobalHistory::new(64);
        for i in 0..8u64 {
            a.push(cond(i * 4, true));
            b.push(cond(i * 4, i != 3)); // one direction differs
        }
        let mut fa = FoldedHistory::new(8, 8);
        let mut fb = FoldedHistory::new(8, 8);
        fa.recompute(&a, BranchEvent::chunk);
        fb.recompute(&b, BranchEvent::chunk);
        assert_ne!(fa.value(), fb.value());
    }

    /// Replacing with a longer log than capacity keeps only the newest
    /// events.
    #[test]
    fn replace_truncates_to_capacity() {
        let mut h = GlobalHistory::new(4);
        let events: Vec<BranchEvent> = (0..10u64).map(|i| cond(i * 4, true)).collect();
        h.replace(&events);
        assert_eq!(h.len(), 4);
        assert_eq!(h.event_at_age(0).unwrap().pc, 36);
        assert_eq!(h.event_at_age(3).unwrap().pc, 24);
    }

    #[test]
    fn hasher_zero_history_is_pc_only() {
        let mut hist = GlobalHistory::new(64);
        let mut h = TableHasher::new(0, 7, 16);
        let idx0 = h.index(0x4000);
        let tag0 = h.tag(0x4000);
        let ev = cond(0x10, true);
        h.on_branch(&hist, &ev);
        hist.push(ev);
        assert_eq!(
            h.index(0x4000),
            idx0,
            "zero-history index must ignore branches"
        );
        assert_eq!(h.tag(0x4000), tag0);
    }

    #[test]
    fn hasher_index_within_range() {
        let mut hist = GlobalHistory::new(256);
        let mut h = TableHasher::new(16, 7, 16);
        for i in 0..100u64 {
            let ev = cond(i * 4, i % 3 == 0);
            h.on_branch(&hist, &ev);
            hist.push(ev);
            assert!(h.index(0x1234_5678) < 128);
            assert!(h.tag(0x1234_5678) < (1 << 16));
        }
    }

    #[test]
    fn hasher_recompute_matches_incremental() {
        let mut hist = GlobalHistory::new(256);
        let mut inc = TableHasher::new(12, 7, 14);
        for i in 0..60u64 {
            let ev = if i % 7 == 0 {
                indirect(i * 4, 0x8000 + i * 24)
            } else {
                cond(i * 4, (i % 5) < 2)
            };
            inc.on_branch(&hist, &ev);
            hist.push(ev);
        }
        let mut scratch = TableHasher::new(12, 7, 14);
        scratch.recompute(&hist);
        assert_eq!(inc.index(0xabcd0), scratch.index(0xabcd0));
        assert_eq!(inc.tag(0xabcd0), scratch.tag(0xabcd0));
    }

    #[test]
    fn history_affects_index_for_nonzero_tables() {
        let mut hist = GlobalHistory::new(64);
        let mut h = TableHasher::new(2, 7, 16);
        let i0 = h.index(0x4000);
        // Push two taken branches: window [T, T].
        for pc in [0x10u64, 0x20] {
            let ev = cond(pc, true);
            h.on_branch(&hist, &ev);
            hist.push(ev);
        }
        let i1 = h.index(0x4000);
        assert_ne!(i0, i1, "two taken branches must perturb a 2-history index");
    }

    /// Indices spread across sets: a varied PC stream must touch most sets
    /// of a 128-set table (hash quality, not correctness).
    #[test]
    fn index_hash_spreads_across_sets() {
        let h = TableHasher::new(0, 7, 16);
        let mut seen = std::collections::HashSet::new();
        for i in 0..512u64 {
            seen.insert(h.index(0x40_0000 + i * 4));
        }
        assert!(seen.len() > 100, "only {} of 128 sets touched", seen.len());
    }

    /// Path history contributes: two histories with identical directions
    /// but different branch PCs must (usually) produce different indices.
    #[test]
    fn path_history_affects_index() {
        let build = |pc_base: u64| {
            let mut hist = GlobalHistory::new(64);
            let mut h = TableHasher::new(8, 7, 16);
            for i in 0..8u64 {
                let ev = cond(pc_base + i * 4, true); // same directions
                h.on_branch(&hist, &ev);
                hist.push(ev);
            }
            h.index(0x40_0000)
        };
        // Different branch addresses (differing in the low PC bits the path
        // chunk captures), same outcome sequence.
        assert_ne!(build(0x100), build(0x2a8));
    }

    /// Indirect-branch targets perturb the direction history (5-bit folded
    /// target chunks, §IV-B).
    #[test]
    fn indirect_targets_perturb_history() {
        let build = |target: u64| {
            let mut hist = GlobalHistory::new(64);
            let mut h = TableHasher::new(4, 7, 16);
            let ev = indirect(0x500, target);
            h.on_branch(&hist, &ev);
            hist.push(ev);
            h.index(0x40_0000)
        };
        // Two targets whose 5-bit folds differ.
        assert_ne!(build(0x1000), build(0x1004));
    }
}
