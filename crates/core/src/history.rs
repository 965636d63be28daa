//! Global branch / path history and TAGE-style folded registers.
//!
//! MASCOT indexes each table with a hash of the load PC and an increasing
//! window of global branch history plus path history (§IV-B, Fig. 3).
//! Conditional branches contribute one taken/not-taken bit; indirect
//! branches contribute their target folded to 5 bits.
//!
//! [`FoldedHistory`] maintains the classic circular-shift-register folding:
//! the folded value is a pure function of the *contents* of the history
//! window (each event's contribution is rotated by its age), so identical
//! contexts always hash to identical indices regardless of when they occur.
//! Incremental updates are O(1); after a pipeline squash the register is
//! recomputed from the architectural event log in O(window) — or, when the
//! squash popped only a few events, unwound push-by-push in O(popped) via
//! [`rewind_hashers`].

use mascot_snapshot::{SnapError, SnapReader, SnapWriter};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Control-flow class of a history event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BranchKind {
    /// Direction-predicted branch: contributes its taken bit.
    Conditional,
    /// Indirect branch/call/return: contributes its target folded to 5 bits.
    Indirect,
}

/// One committed-path branch, as recorded in global history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
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
    #[inline]
    pub fn chunk(&self) -> u64 {
        match self.kind {
            BranchKind::Conditional => u64::from(self.taken),
            BranchKind::Indirect => {
                let t = self.target >> 2;
                (t ^ (t >> 5) ^ (t >> 10) ^ (t >> 15)) & 0x1f
            }
        }
    }

    /// The event's path-history contribution: low PC bits.
    #[inline]
    pub fn path_chunk(&self) -> u64 {
        (self.pc >> 2) & 0x1f
    }
}

/// A bounded log of the most recent branch events, most recent last.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GlobalHistory {
    events: VecDeque<BranchEvent>,
    capacity: usize,
    total: u64,
}

impl GlobalHistory {
    /// Creates a history log retaining the last `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "history capacity must be non-zero");
        Self {
            events: VecDeque::with_capacity(capacity),
            capacity,
            total: 0,
        }
    }

    /// Appends an event, evicting the oldest if at capacity.
    pub fn push(&mut self, event: BranchEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(event);
        self.total += 1;
    }

    /// The event `age` positions back (0 = most recent), if retained.
    #[inline]
    pub fn event_at_age(&self, age: usize) -> Option<&BranchEvent> {
        let len = self.events.len();
        if age < len {
            self.events.get(len - 1 - age)
        } else {
            None
        }
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events ever pushed (not capped by capacity).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Replaces the log contents with `events` (oldest first), used when
    /// restoring the architectural path after a squash.
    pub fn replace(&mut self, events: &[BranchEvent]) {
        self.events.clear();
        let skip = events.len().saturating_sub(self.capacity);
        self.events.extend(events[skip..].iter().copied());
        self.total = events.len() as u64;
    }

    /// Iterates retained events, oldest first.
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

    /// Decodes a log encoded by [`Self::snap_encode`], fail-closed. Unlike
    /// [`Self::replace`] (which resets `total` to the replacement length
    /// for squash recovery), this restores the lifetime push count exactly,
    /// so a restored predictor is bit-identical to the one snapshotted.
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncation or any internally inconsistent field
    /// (zero capacity, more events than capacity, total below the retained
    /// count, unknown branch kind).
    pub fn snap_decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let capacity = r.u64("history capacity")? as usize;
        if capacity == 0 || capacity > (1 << 24) {
            return Err(SnapError::Corrupt("history capacity out of range"));
        }
        let total = r.u64("history total")?;
        let len = r.u32("history length")? as usize;
        if len > capacity {
            return Err(SnapError::Corrupt("history longer than its capacity"));
        }
        if total < len as u64 {
            return Err(SnapError::Corrupt("history total below retained count"));
        }
        let mut events = VecDeque::with_capacity(capacity);
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
            events.push_back(BranchEvent {
                pc,
                kind,
                taken,
                target,
            });
        }
        Ok(Self {
            events,
            capacity,
            total,
        })
    }

    /// Pops and returns the newest event (squash-undo support; see
    /// [`rewind_hashers`]).
    pub fn pop_newest(&mut self) -> Option<BranchEvent> {
        let ev = self.events.pop_back();
        if ev.is_some() {
            self.total -= 1;
        }
        ev
    }

    /// Detects whether replacing this log with `events` amounts to undoing
    /// the newest `k <= max_pop` pushes, and if so returns that `k`.
    ///
    /// "Amounts to" is judged to fold precision: after popping `k` events,
    /// the newest `max_window` retained events (every age any fold over
    /// this log can see) must be identical to the replacement's, and every
    /// window must agree on whether it is full. The caller may then invert
    /// the last `k` [`FoldedHistory::push`]es per fold instead of
    /// recomputing each fold from scratch. Returns `None` for any other
    /// shape of replacement.
    pub fn undoable_suffix(
        &self,
        events: &[BranchEvent],
        max_window: u32,
        max_pop: usize,
    ) -> Option<usize> {
        let new_len = events.len().min(self.capacity);
        let len = self.events.len();
        if new_len == 0 {
            // Rewind to nothing: undoable only if every retained event is
            // still present back to the first push (no ring eviction), so
            // each inverted push sees the window fill it saw going forward.
            return (self.total == len as u64 && len <= max_pop).then_some(len);
        }
        let maxw = max_window as usize;
        let newest = events[events.len() - 1];
        for k in 0..=max_pop.min(len) {
            let keep = len - k;
            if keep == 0 {
                break;
            }
            // Window-fill agreement: either the logs match in length
            // exactly, or both are deep enough that every window is full
            // either way (the replacement may restore events this ring
            // evicted — those sit below any fold's reach).
            if keep != new_len && (keep < maxw || new_len < maxw) {
                continue;
            }
            if self.events[keep - 1] != newest {
                continue;
            }
            let depth = maxw.min(keep).min(new_len);
            if (1..depth).all(|age| self.events[keep - 1 - age] == events[events.len() - 1 - age])
            {
                return Some(k);
            }
        }
        None
    }
}

/// Deepest squash the fold-undo fast path will unwind; anything deeper
/// falls back to the full recompute. Each undone event costs four fold
/// inversions per hasher, while the recompute folds every window from
/// scratch, so the break-even sits well above this bound.
const MAX_UNDO: usize = 16;

/// Rewinds a history log and the table hashers folded over it to the
/// architectural path `recent` (oldest first), as after a pipeline squash.
///
/// Fast path: most squash windows contain few branches (none at all for
/// many memory-order-violation squashes, exactly one for a branch
/// redirect, which stalls the frontend the moment it dispatches). Folding
/// is invertible, so those cases undo one push per popped event per fold —
/// O(popped × tables) — instead of refolding every window — O(tables ×
/// window). Replacements that pop more than `MAX_UNDO` events, or that
/// do not match a bounded undo exactly, fall back to the full recompute.
pub fn rewind_hashers(
    history: &mut GlobalHistory,
    hashers: &mut [TableHasher],
    recent: &[BranchEvent],
) {
    let max_window = hashers
        .iter()
        .map(TableHasher::history_len)
        .max()
        .unwrap_or(0);
    match undo_depth(history, max_window, recent) {
        Some(k) => {
            for _ in 0..k {
                let ev = history.pop_newest().expect("undo depth is within the log");
                for hasher in hashers.iter_mut() {
                    hasher.unbranch(history, &ev);
                }
            }
            history.replace(recent);
        }
        None => {
            history.replace(recent);
            for hasher in hashers.iter_mut() {
                hasher.recompute(history);
            }
        }
    }
}

/// The undo depth for [`rewind_hashers`], if the fast path applies.
///
/// On top of [`GlobalHistory::undoable_suffix`], requires `max_window +
/// k <= capacity`: while unwinding, each window-edge lookup must still be
/// retained even though up to `k` newer slots have already been popped.
fn undo_depth(history: &GlobalHistory, max_window: u32, recent: &[BranchEvent]) -> Option<usize> {
    let k = history.undoable_suffix(recent, max_window, MAX_UNDO)?;
    (max_window as usize + k <= history.capacity()).then_some(k)
}

/// A folded view of the last `window` history events, `bits` wide.
///
/// The folded value is `XOR over events e of rotl(chunk(e), age(e) % bits)`,
/// a pure function of the window contents. `window == 0` always folds to 0
/// (the zero-history table is indexed by PC alone).
///
/// Rotation amounts are kept pre-reduced (`window % bits` cached, ages
/// tracked with wrapping counters) so the fold never executes a hardware
/// divide: these registers advance on every branch for every table, and the
/// `%` in the naive formulation dominated the history-maintenance profile.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(from = "FoldedWire", into = "FoldedWire")]
pub struct FoldedHistory {
    bits: u32,
    window: u32,
    reg: u64,
    /// Cached `window % bits`: the rotation applied to outgoing chunks.
    window_rot: u32,
}

/// Serialized image of [`FoldedHistory`]; the cached rotation constant is
/// derived, so only the defining fields cross (de)serialization.
#[derive(Serialize, Deserialize)]
struct FoldedWire {
    bits: u32,
    window: u32,
    reg: u64,
}

impl From<FoldedWire> for FoldedHistory {
    fn from(w: FoldedWire) -> Self {
        Self {
            bits: w.bits,
            window: w.window,
            reg: w.reg,
            window_rot: if w.bits == 0 { 0 } else { w.window % w.bits },
        }
    }
}

impl From<FoldedHistory> for FoldedWire {
    fn from(f: FoldedHistory) -> Self {
        Self {
            bits: f.bits,
            window: f.window,
            reg: f.reg,
        }
    }
}

impl FoldedHistory {
    /// Creates an empty folded register.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 63.
    pub fn new(bits: u32, window: u32) -> Self {
        assert!(bits > 0 && bits < 64, "fold width must be in 1..=63 bits");
        Self {
            bits,
            window,
            reg: 0,
            window_rot: window % bits,
        }
    }

    /// The current folded value (`bits` wide).
    #[inline]
    pub fn value(&self) -> u64 {
        self.reg
    }

    /// The window length in events.
    pub fn window(&self) -> u32 {
        self.window
    }

    #[inline]
    fn mask(&self) -> u64 {
        (1u64 << self.bits) - 1
    }

    /// Rotate-left within `bits`; `r` must already be reduced mod `bits`.
    #[inline]
    fn rotl(&self, x: u64, r: u32) -> u64 {
        debug_assert!(r < self.bits, "rotation must be pre-reduced");
        let x = x & self.mask();
        if r == 0 {
            x
        } else {
            ((x << r) | (x >> (self.bits - r))) & self.mask()
        }
    }

    /// Folds an up-to-`CHUNK_BITS`-bit chunk into the register width.
    #[inline]
    fn squash_chunk(&self, chunk: u64) -> u64 {
        if self.bits >= CHUNK_BITS {
            chunk & self.mask()
        } else {
            ((chunk >> self.bits) ^ chunk) & self.mask()
        }
    }

    /// Incrementally advances the fold by one event.
    ///
    /// `incoming` is the chunk of the newly inserted event; `outgoing` is
    /// the chunk of the event falling out of the window (i.e. the event that
    /// was at age `window - 1` before this push), or `None` while the window
    /// is still filling.
    #[inline]
    pub fn push(&mut self, incoming: u64, outgoing: Option<u64>) {
        if self.window == 0 {
            return;
        }
        self.reg = self.rotl(self.reg, u32::from(self.bits > 1));
        self.reg ^= self.squash_chunk(incoming);
        if let Some(out) = outgoing {
            let fold = self.squash_chunk(out);
            self.reg ^= self.rotl(fold, self.window_rot);
        }
    }

    /// Exactly inverts one [`Self::push`]: `incoming` is the chunk that
    /// push inserted (the event being popped), `outgoing` the chunk it aged
    /// out at the time — which, after the pop, is the event back at age
    /// `window - 1`, or `None` if the window was not yet full.
    #[inline]
    pub fn unpush(&mut self, incoming: u64, outgoing: Option<u64>) {
        if self.window == 0 {
            return;
        }
        let mut reg = self.reg ^ self.squash_chunk(incoming);
        if let Some(out) = outgoing {
            reg ^= self.rotl(self.squash_chunk(out), self.window_rot);
        }
        // Inverse of push's leading rotl-by-one.
        self.reg = if self.bits > 1 {
            ((reg >> 1) | (reg << (self.bits - 1))) & self.mask()
        } else {
            reg & self.mask()
        };
    }

    /// Clears the register ahead of an accumulate-style recompute.
    #[inline]
    fn reset(&mut self) {
        self.reg = 0;
    }

    /// Folds one event in during a recompute; `rot` must equal
    /// `age % bits` for the event's age.
    #[inline]
    fn accumulate(&mut self, chunk: u64, rot: u32) {
        self.reg ^= self.rotl(self.squash_chunk(chunk), rot);
    }

    /// Rebuilds the fold from scratch against a history log (used after a
    /// squash rewinds the speculative path).
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

/// Per-table hash state: direction-history, path-history and tag folds.
///
/// Produces the set index and tag for one tagged table given a load PC, per
/// §IV-B ("the index and tag are computed by folding the load PC and
/// increasing lengths of the global branch and path history").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableHasher {
    history_len: u32,
    index_bits: u32,
    tag_bits: u32,
    index_fold: FoldedHistory,
    tag_fold_a: FoldedHistory,
    tag_fold_b: FoldedHistory,
    path_fold: FoldedHistory,
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
    /// Panics if `index_bits` or `tag_bits` is zero or 64 or larger.
    pub fn new(history_len: u32, index_bits: u32, tag_bits: u32) -> Self {
        let tag_b = if tag_bits > 1 { tag_bits - 1 } else { tag_bits };
        // A single-set (index_bits == 0) table still needs non-zero-width
        // fold registers; its index mask zeroes the result regardless.
        let fold_bits = index_bits.max(1);
        Self {
            history_len,
            index_bits,
            tag_bits,
            index_fold: FoldedHistory::new(fold_bits, history_len),
            tag_fold_a: FoldedHistory::new(tag_bits, history_len),
            tag_fold_b: FoldedHistory::new(tag_b, history_len),
            path_fold: FoldedHistory::new(fold_bits, history_len.min(PATH_WINDOW)),
        }
    }

    /// The table's history length in branches.
    pub fn history_len(&self) -> u32 {
        self.history_len
    }

    /// Advances all folds by one branch. Must be called with the history log
    /// state *before* the event is pushed into it (so outgoing events can be
    /// located), in the same order for every hasher sharing the log.
    pub fn on_branch(&mut self, history_before_push: &GlobalHistory, event: &BranchEvent) {
        let outgoing = |window: u32| -> Option<&BranchEvent> {
            if window == 0 {
                return None;
            }
            history_before_push.event_at_age(window as usize - 1)
        };
        // One log lookup shared by the three direction folds (they age out
        // the same event); the path fold may use a shorter window.
        let out_dir = outgoing(self.history_len).map(BranchEvent::chunk);
        let path_window = self.history_len.min(PATH_WINDOW);
        let out_path = outgoing(path_window).map(BranchEvent::path_chunk);
        let dir_chunk = event.chunk();
        self.index_fold.push(dir_chunk, out_dir);
        self.tag_fold_a.push(dir_chunk, out_dir);
        self.tag_fold_b.push(dir_chunk, out_dir);
        self.path_fold.push(event.path_chunk(), out_path);
    }

    /// Exactly inverts one [`Self::on_branch`] for `event`, the newest
    /// event at the time, against the history log with that event already
    /// popped (so outgoing chunks can be located at their window edges).
    pub fn unbranch(&mut self, history_after_pop: &GlobalHistory, event: &BranchEvent) {
        let outgoing = |window: u32| -> Option<&BranchEvent> {
            if window == 0 {
                return None;
            }
            history_after_pop.event_at_age(window as usize - 1)
        };
        let out_dir = outgoing(self.history_len).map(BranchEvent::chunk);
        let path_window = self.history_len.min(PATH_WINDOW);
        let out_path = outgoing(path_window).map(BranchEvent::path_chunk);
        let dir_chunk = event.chunk();
        self.index_fold.unpush(dir_chunk, out_dir);
        self.tag_fold_a.unpush(dir_chunk, out_dir);
        self.tag_fold_b.unpush(dir_chunk, out_dir);
        self.path_fold.unpush(event.path_chunk(), out_path);
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

    /// The set index for `pc` under the current history.
    #[inline]
    pub fn index(&self, pc: u64) -> u64 {
        let pc = pc >> 2;
        let mask = (1u64 << self.index_bits) - 1;
        (pc ^ (pc >> self.index_bits)
            ^ (pc >> (2 * self.index_bits))
            ^ self.index_fold.value()
            ^ self.path_fold.value())
            & mask
    }

    /// The tag for `pc` under the current history.
    #[inline]
    pub fn tag(&self, pc: u64) -> u64 {
        let pc = pc >> 2;
        let mask = (1u64 << self.tag_bits) - 1;
        (pc ^ (pc >> self.tag_bits) ^ self.tag_fold_a.value() ^ (self.tag_fold_b.value() << 1))
            & mask
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
        let back = GlobalHistory::snap_decode(&mut r).unwrap();
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
            assert!(GlobalHistory::snap_decode(&mut r).is_err(), "cut {cut}");
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
        assert!(GlobalHistory::snap_decode(&mut r).is_err());
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
        assert!(GlobalHistory::snap_decode(&mut r).is_err());
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
                hist.event_at_age(window as usize - 1).map(BranchEvent::chunk)
            } else {
                None
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
        f.push(1, None);
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

    /// `unpush` must be the exact inverse of `push` at every step of a
    /// mixed event stream.
    #[test]
    fn unpush_inverts_push() {
        let window = 6u32;
        let mut hist = GlobalHistory::new(64);
        let mut fold = FoldedHistory::new(9, window);
        for i in 0..50u64 {
            let ev = if i % 4 == 0 {
                indirect(i * 4, 0x2000 + i * 36)
            } else {
                cond(i * 4, (i * 3) % 5 < 2)
            };
            let outgoing = hist
                .event_at_age(window as usize - 1)
                .map(BranchEvent::chunk);
            let before = fold.value();
            fold.push(ev.chunk(), outgoing);
            // Invert against the same pre-push log state.
            let mut undone = fold.clone();
            undone.unpush(ev.chunk(), outgoing);
            assert_eq!(undone.value(), before, "unpush failed at step {i}");
            hist.push(ev);
        }
    }

    /// The squash fast path (undo one push) must land every hasher on the
    /// same state as a replace + full recompute, through window fill,
    /// saturation and ring eviction.
    #[test]
    fn rewind_one_event_matches_recompute() {
        let mk = || {
            vec![
                TableHasher::new(0, 7, 16),
                TableHasher::new(4, 7, 15),
                TableHasher::new(12, 6, 14),
                TableHasher::new(24, 7, 16),
            ]
        };
        let mut hist = GlobalHistory::new(48);
        let mut hashers = mk();
        let mut log: Vec<BranchEvent> = Vec::new();
        for i in 0..120u64 {
            let ev = if i % 6 == 0 {
                indirect(i * 4, 0x3000 + i * 20)
            } else {
                cond(i * 4, (i * 11) % 7 < 3)
            };
            for h in &mut hashers {
                h.on_branch(&hist, &ev);
            }
            hist.push(ev);
            log.push(ev);
            // Squash: rewind to the log minus the event just pushed.
            let recent = &log[..log.len() - 1];
            let mut fast_hist = hist.clone();
            let mut fast = hashers.clone();
            rewind_hashers(&mut fast_hist, &mut fast, recent);
            assert_eq!(
                hist.undoable_suffix(recent, 24, MAX_UNDO),
                Some(1),
                "single-pop rewind must take the fast path at step {i}"
            );
            let mut slow_hist = hist.clone();
            slow_hist.replace(recent);
            let mut slow = mk();
            for h in &mut slow {
                h.recompute(&slow_hist);
            }
            for (t, (f, s)) in fast.iter().zip(&slow).enumerate() {
                for pc in [0x40_0000u64, 0x1234_5678] {
                    assert_eq!(f.index(pc), s.index(pc), "index, table {t}, step {i}");
                    assert_eq!(f.tag(pc), s.tag(pc), "tag, table {t}, step {i}");
                }
            }
            assert_eq!(fast_hist.len(), slow_hist.len(), "step {i}");
        }
    }

    /// Multi-event rewinds up to [`MAX_UNDO`] deep must take the fast path
    /// and land on the recompute's state; deeper ones must decline it —
    /// and both must agree with a from-scratch rebuild.
    #[test]
    fn rewind_any_depth_matches_recompute() {
        let mut hist = GlobalHistory::new(64);
        let mut hashers = vec![TableHasher::new(8, 7, 16), TableHasher::new(16, 7, 14)];
        let mut log: Vec<BranchEvent> = Vec::new();
        for i in 0..48u64 {
            let ev = if i % 6 == 0 {
                indirect(i * 4, 0x5000 + i * 28)
            } else {
                cond(i * 4, (i * 5) % 3 == 0)
            };
            for h in &mut hashers {
                h.on_branch(&hist, &ev);
            }
            hist.push(ev);
            log.push(ev);
        }
        for pop in [0usize, 3, MAX_UNDO, MAX_UNDO + 4] {
            let recent = &log[..log.len() - pop];
            let expect = (pop <= MAX_UNDO).then_some(pop);
            assert_eq!(
                hist.undoable_suffix(recent, 16, MAX_UNDO),
                expect,
                "undo depth, pop {pop}"
            );
            let mut fast_hist = hist.clone();
            let mut fast = hashers.clone();
            rewind_hashers(&mut fast_hist, &mut fast, recent);
            let mut scratch_hist = GlobalHistory::new(64);
            scratch_hist.replace(recent);
            for (t, &(hist_len, idx_bits, tag_bits)) in
                [(8u32, 7u32, 16u32), (16, 7, 14)].iter().enumerate()
            {
                let mut scratch = TableHasher::new(hist_len, idx_bits, tag_bits);
                scratch.recompute(&scratch_hist);
                assert_eq!(fast[t].index(0xabcd0), scratch.index(0xabcd0), "pop {pop}");
                assert_eq!(fast[t].tag(0xabcd0), scratch.tag(0xabcd0), "pop {pop}");
            }
        }
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
        assert_eq!(h.index(0x4000), idx0, "zero-history index must ignore branches");
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

    /// A (de)serialization round-trip must reconstruct the cached rotation
    /// state exactly (it is derived, not serialized — see [`FoldedWire`]).
    #[test]
    fn folded_history_wire_round_trip() {
        let mut f = FoldedHistory::new(9, 7);
        let mut hist = GlobalHistory::new(64);
        for i in 0..20u64 {
            let ev = cond(i * 4, i % 3 == 0);
            let outgoing = hist.event_at_age(6).map(BranchEvent::chunk);
            f.push(ev.chunk(), outgoing);
            hist.push(ev);
        }
        let back = FoldedHistory::from(FoldedWire::from(f.clone()));
        assert_eq!(back, f);
    }
}
