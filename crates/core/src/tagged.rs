//! A bank of TAGE-style tagged tables over one global history.
//!
//! MASCOT's tables are indexed and tagged by hashing the load PC with
//! per-table windows of global branch and path history (§IV-B); PHAST,
//! MDP-TAGE, NoSQ and the simulator's TAGE branch predictor are the same
//! structure with other payloads. [`TaggedTables`] owns the tables, one
//! folded-history hasher per table and the event log, and keeps them in
//! step: hashers advance before each push, and are recomputed from the log
//! after a squash rewinds it and on snapshot decode. Payloads and
//! allocation policy stay with each predictor.

use mascot_snapshot::{SnapError, SnapReader, SnapWriter};

use crate::history::{
    advance_hashers, rewind_hashers, BranchEvent, GlobalHistory, TableHasher, WindowEdges,
};
use crate::table::AssocTable;

/// Upper bound on the tables in one bank, which sizes the fixed per-prediction
/// lookup arrays. Eight is what every shipped bank builds (MASCOT's Table II
/// configuration, PHAST, MDP-TAGE, the frontend TAGE and every ablation);
/// each further table adds 8 bytes to every prediction's metadata, which
/// the predict→train hand-off copies per load (DESIGN.md §9).
pub const MAX_TABLES: usize = 8;

/// One table's lookup coordinates, captured at prediction time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableLookup {
    /// Set index within the table.
    pub index: u32,
    /// Partial tag.
    pub tag: u32,
}

/// Geometry of one table in a [`TaggedTables`] bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableShape {
    /// Branches of global history hashed into the index and tag.
    pub history_len: u32,
    /// Number of sets (a power of two).
    pub sets: usize,
    /// Ways per set.
    pub assoc: usize,
    /// Tag width in bits.
    pub tag_bits: u32,
}

/// Tagged tables indexed by PC and folded global history, plus the history
/// they are folded over.
///
/// # Examples
///
/// ```
/// use mascot::history::{BranchEvent, BranchKind};
/// use mascot::tagged::{TableShape, TaggedTables};
///
/// let shape = |history_len| TableShape { history_len, sets: 64, assoc: 4, tag_bits: 12 };
/// let mut bank = TaggedTables::new(&[shape(0), shape(8)], 0u8);
/// let before = bank.lookups(0x40_1000);
/// bank.on_branch(&BranchEvent { pc: 0x500, kind: BranchKind::Conditional, taken: true, target: 0x600 });
/// assert_eq!(bank.lookup(0, 0x40_1000), before[0]); // PC only
/// assert_ne!(bank.lookup(1, 0x40_1000), before[1]); // PC + 8 branches
/// ```
#[derive(Debug, Clone)]
pub struct TaggedTables<E> {
    tables: Vec<AssocTable<E>>,
    /// One hasher per table, in table order.
    hashers: Vec<TableHasher>,
    /// The hashers' distinct window edges, read once per branch.
    edges: WindowEdges,
    history: GlobalHistory,
}

impl<E: Clone> TaggedTables<E> {
    /// Creates an empty bank with one table per shape. `fill` seeds every
    /// table's payload lane (never observed while a way is invalid).
    ///
    /// The history log keeps twice the longest window, and at least 64
    /// events.
    ///
    /// # Panics
    ///
    /// Panics on more than [`MAX_TABLES`] shapes, a non-power-of-two set
    /// count, zero associativity, or a tag width outside `1..=31` (tags
    /// live in a `u32` lane whose all-ones value marks an empty way).
    pub fn new(shapes: &[TableShape], fill: E) -> Self {
        assert!(
            shapes.len() <= MAX_TABLES,
            "at most {MAX_TABLES} tables supported"
        );
        assert!(
            shapes.iter().all(|s| (1..=31).contains(&s.tag_bits)),
            "tag widths must be in 1..=31 bits"
        );
        let tables: Vec<_> = shapes
            .iter()
            .map(|s| AssocTable::new(s.sets, s.assoc, fill.clone()))
            .collect();
        let hashers: Vec<_> = shapes
            .iter()
            .zip(&tables)
            .map(|(s, t)| TableHasher::new(s.history_len, t.index_bits(), s.tag_bits))
            .collect();
        let edges = WindowEdges::new(&hashers);
        let longest = shapes
            .iter()
            .map(|s| s.history_len as usize)
            .max()
            .unwrap_or(0);
        Self {
            tables,
            hashers,
            edges,
            history: GlobalHistory::new((longest * 2).max(64)),
        }
    }

    /// Union-merges `other`'s tables into this bank's, table by table, with
    /// [`AssocTable::merge_from_resolve`]'s conflict rule; callers check that
    /// both banks come from one configuration. The history is left alone.
    /// Returns the number of entries written.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] when two tables differ in shape.
    pub fn merge_tables_from<F>(&mut self, other: &Self, mut resolve: F) -> Result<u64, SnapError>
    where
        F: FnMut(&E, &mut E) -> bool,
    {
        let mut written = 0;
        for (mine, theirs) in self.tables.iter_mut().zip(&other.tables) {
            written += mine.merge_from_resolve(theirs, &mut resolve)?;
        }
        Ok(written)
    }
}

impl<E> TaggedTables<E> {
    /// Number of tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// The tables, in construction order.
    pub fn tables(&self) -> &[AssocTable<E>] {
        &self.tables
    }

    /// Mutable tables, in construction order.
    pub fn tables_mut(&mut self) -> &mut [AssocTable<E>] {
        &mut self.tables
    }

    /// Table `t`'s coordinates for `pc` under the current history.
    #[inline]
    pub fn lookup(&self, t: usize, pc: u64) -> TableLookup {
        table_lookup(&self.hashers[t], pc)
    }

    /// Every table's coordinates for `pc` (default past the last table), in
    /// one pass over the tables' precomputed hash constants.
    #[inline]
    pub fn lookups(&self, pc: u64) -> [TableLookup; MAX_TABLES] {
        let mut lookups = [TableLookup::default(); MAX_TABLES];
        for (slot, hasher) in lookups.iter_mut().zip(&self.hashers) {
            *slot = table_lookup(hasher, pc);
        }
        lookups
    }

    /// The entry of table `t` at `lk`, if it is (still) resident.
    #[inline]
    pub fn entry_mut(&mut self, t: usize, lk: TableLookup) -> Option<&mut E> {
        self.tables[t]
            .find_mut(u64::from(lk.index), u64::from(lk.tag))
            .map(|(_, e)| e)
    }

    /// Advances every hasher and then the history by one branch.
    pub fn on_branch(&mut self, event: &BranchEvent) {
        advance_hashers(&mut self.history, &mut self.hashers, &self.edges, event);
    }

    /// Rewinds the history and every hasher to the architectural path
    /// `recent` (oldest first), as after a pipeline squash.
    pub fn rewind(&mut self, recent: &[BranchEvent]) {
        rewind_hashers(&mut self.history, &mut self.hashers, recent);
    }

    /// Valid entries across all tables.
    pub fn entry_count(&self) -> u64 {
        self.tables.iter().map(|t| t.occupancy() as u64).sum()
    }

    /// Appends the history log to a snapshot payload. Hashers are not
    /// encoded: they are a function of the log and the shapes.
    pub fn snap_encode_history(&self, w: &mut SnapWriter) {
        self.history.snap_encode(w);
    }

    /// Restores the history log written by [`Self::snap_encode_history`]
    /// and recomputes every hasher from it.
    ///
    /// # Errors
    ///
    /// [`SnapError`] on a malformed log or one whose ring capacity differs
    /// from this bank's.
    pub fn snap_decode_history(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.history = GlobalHistory::snap_decode(r, self.history.capacity())?;
        for hasher in &mut self.hashers {
            hasher.recompute(&self.history);
        }
        Ok(())
    }

    /// Appends every table, in order, with payloads encoded by `enc`.
    pub fn snap_encode_tables<F>(&self, w: &mut SnapWriter, mut enc: F)
    where
        F: FnMut(&E, &mut SnapWriter),
    {
        for table in &self.tables {
            table.snap_encode_with(w, &mut enc);
        }
    }

    /// Decodes the tables written by [`Self::snap_encode_tables`] in place,
    /// fail-closed: each stored shape must match this bank's, each tag must
    /// fit its table's tag width, and `dec` must accept every payload. On
    /// error the bank is partially overwritten and should be discarded.
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncation, a shape or tag mismatch, or a payload
    /// `dec` rejects.
    pub fn snap_decode_tables<F>(
        &mut self,
        r: &mut SnapReader<'_>,
        mut dec: F,
    ) -> Result<(), SnapError>
    where
        F: FnMut(&mut SnapReader<'_>) -> Result<E, SnapError>,
    {
        for (table, hasher) in self.tables.iter_mut().zip(&self.hashers) {
            let tag_limit = 1u64 << hasher.tag_bits();
            table.snap_decode_into(r, |tag| tag < tag_limit, &mut dec)?;
        }
        Ok(())
    }
}

/// One table's coordinates for `pc`.
#[inline]
fn table_lookup(hasher: &TableHasher, pc: u64) -> TableLookup {
    let (index, tag) = hasher.lookup(pc);
    TableLookup {
        index: index as u32,
        tag: tag as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::BranchKind;

    /// Windows out of order on purpose: the longest is neither first nor
    /// last, and longer than the 64-event minimum ring.
    fn shapes() -> Vec<TableShape> {
        let shape = |history_len, sets, assoc, tag_bits| TableShape {
            history_len,
            sets,
            assoc,
            tag_bits,
        };
        vec![
            shape(0, 16, 4, 12),
            shape(100, 32, 4, 14),
            shape(7, 16, 2, 11),
            shape(3, 8, 4, 9),
        ]
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn event(rng: &mut u64) -> BranchEvent {
        let r = xorshift(rng);
        BranchEvent {
            pc: 0x100 + (r % 64) * 4,
            kind: if r.is_multiple_of(7) {
                BranchKind::Indirect
            } else {
                BranchKind::Conditional
            },
            taken: !r.is_multiple_of(3),
            target: 0x2000 + (r % 40) * 4,
        }
    }

    /// Decodes `bank`'s encoded history into a fresh bank of `shapes`.
    fn restore(
        bank: &TaggedTables<u8>,
        shapes: &[TableShape],
    ) -> Result<TaggedTables<u8>, SnapError> {
        let mut w = SnapWriter::new();
        bank.snap_encode_history(&mut w);
        let bytes = w.into_bytes();
        let mut back = TaggedTables::new(shapes, 0u8);
        back.snap_decode_history(&mut SnapReader::new(&bytes))?;
        Ok(back)
    }

    #[test]
    #[should_panic(expected = "at most 8 tables supported")]
    fn nine_tables_are_rejected() {
        let shape = TableShape {
            history_len: 4,
            sets: 16,
            assoc: 4,
            tag_bits: 12,
        };
        let _ = TaggedTables::new(&[shape; MAX_TABLES + 1], 0u8);
    }

    #[test]
    fn ring_is_sized_by_the_longest_window() {
        let bank = TaggedTables::new(&shapes(), 0u8);
        assert_eq!(bank.history.capacity(), 200);
        let short = TaggedTables::new(&shapes()[2..], 0u8);
        assert_eq!(short.history.capacity(), 64);
        assert!(restore(&short, &shapes()).is_err(), "foreign ring capacity");
    }

    /// A foreign ring capacity is rejected as soon as it is read, before
    /// anything is sized by it: a payload holding only that field fails as
    /// a mismatch, not as a truncation further on.
    #[test]
    fn foreign_history_capacity_is_rejected_before_the_rest() {
        let mut bank = TaggedTables::new(&shapes(), 0u8);
        for capacity in [64u64, 1 << 24, 0, u64::MAX] {
            let mut w = SnapWriter::new();
            w.u64(capacity);
            let bytes = w.into_bytes();
            assert_eq!(
                bank.snap_decode_history(&mut SnapReader::new(&bytes)),
                Err(SnapError::Corrupt("history capacity does not match config")),
                "capacity {capacity}"
            );
        }
    }

    /// Pushes and squashes — wrong-path events pushed, then rewound to the
    /// architectural log, from no wrong-path events to more than the ring
    /// holds, and early on now and then to an empty log — must leave every
    /// table's coordinates where a fresh bank fed only the architectural
    /// log, push by push, puts them.
    #[test]
    fn pushes_and_rewinds_match_a_bank_fed_the_log() {
        let mut bank = TaggedTables::new(&shapes(), 0u8);
        let capacity = bank.history.capacity();
        let mut log: Vec<BranchEvent> = Vec::new();
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let (mut rewinds, mut past_ring, mut to_empty) = (0, 0, 0);
        for step in 0..800 {
            let roll = xorshift(&mut rng) % 20;
            if roll < 6 {
                let depth = (xorshift(&mut rng) % (capacity as u64 + 20)) as usize;
                for _ in 0..depth {
                    bank.on_branch(&event(&mut rng));
                }
                if roll == 0 && step < 200 {
                    log.clear();
                    to_empty += 1;
                }
                bank.rewind(&log);
                rewinds += 1;
                past_ring += usize::from(depth > capacity);
            } else {
                let ev = event(&mut rng);
                bank.on_branch(&ev);
                log.push(ev);
            }
            let mut fed = TaggedTables::new(&shapes(), 0u8);
            for ev in &log {
                fed.on_branch(ev);
            }
            for pc in [0x40_1000u64, 0x1234_5678, 0x7ff0] {
                assert_eq!(bank.lookups(pc), fed.lookups(pc), "step {step}, pc {pc:#x}");
            }
        }
        assert!(log.len() > capacity, "the ring wrapped");
        assert!(
            rewinds > 100 && past_ring > 5 && to_empty > 5,
            "{rewinds} rewinds, {past_ring} past the ring, {to_empty} to an empty log"
        );
    }

    /// Each table's tag limit comes from its own hasher: the last table's
    /// 9-bit tags decode up to `(1 << 9) - 1` and fail closed beyond.
    #[test]
    fn snap_decode_tables_checks_each_tables_tag_width() {
        for (tag, ok) in [((1 << 9) - 1, true), (1 << 9, false)] {
            let mut bank = TaggedTables::new(&shapes(), 0u8);
            bank.tables_mut()[3].insert_at(0, 0, tag, 1);
            let mut w = SnapWriter::new();
            bank.snap_encode_tables(&mut w, |e, w| w.u8(*e));
            let bytes = w.into_bytes();
            let mut back = TaggedTables::new(&shapes(), 0u8);
            let decoded =
                back.snap_decode_tables(&mut SnapReader::new(&bytes), |r| r.u8("payload"));
            assert_eq!(decoded.is_ok(), ok, "tag {tag:#x}");
        }
    }
}
