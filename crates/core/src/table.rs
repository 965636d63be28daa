//! Set-associative tagged prediction tables, stored struct-of-arrays.
//!
//! MASCOT's tables are 4-way associative "to tolerate some conflicts between
//! entries with the same index" (§IV-B). The same structure backs PHAST and
//! NoSQ in the baselines crate, so the container is generic over the payload
//! type; replacement *policy* stays with each predictor.
//!
//! # Layout
//!
//! Tags and payloads live in two parallel flat vectors indexed by
//! `slot_id = set * assoc + way`. A probe therefore scans a small contiguous
//! run of `u32` tags — a four-way set is 16 bytes, four sets to a cache
//! line — and touches the payload array only on a hit. The previous
//! array-of-`Option<Entry>` layout interleaved tag, counters and the `Option`
//! discriminant, so every tag compare dragged the whole entry through the
//! cache and defeated autovectorization. Every probe scans the tag lane, so
//! its width sets how many cache lines a predictor's tables occupy.
//!
//! An invalid (never-allocated) way is encoded by the sentinel tag
//! [`INVALID_TAG`]. Real tags are partial-width (at most 31 bits: the
//! tagged-table bank rejects wider tag widths), so the sentinel is
//! unreachable by construction.

use mascot_snapshot::{SnapError, SnapReader, SnapWriter};

/// Tag lane value marking an invalid (empty) way.
///
/// Safe as a sentinel because every producer masks tags to at most 31 bits
/// (tagged-table hashers mask to `tag_bits`, which `TaggedTables::new`
/// limits to `1..=31`).
pub const INVALID_TAG: u32 = u32::MAX;

/// How a snapshot writes an invalid way's tag (tags cross the snapshot
/// format as `u64`).
const SNAP_INVALID_TAG: u64 = u64::MAX;

/// A probe's tag as stored in the tag lane.
#[inline]
fn lane_tag(tag: u64) -> u32 {
    debug_assert!(tag < u64::from(INVALID_TAG), "tags are at most 31 bits");
    tag as u32
}

/// A set-associative table of tagged payloads in struct-of-arrays layout.
///
/// # Examples
///
/// ```
/// use mascot::table::AssocTable;
///
/// let mut t: AssocTable<u32> = AssocTable::new(16, 4, 0);
/// assert!(t.find(3, 0x7).is_none());
/// t.try_insert(3, 0x7, 9, |_| false).unwrap();
/// assert_eq!(*t.find(3, 0x7).unwrap().1, 9);
/// ```
#[derive(Debug, Clone)]
pub struct AssocTable<P> {
    sets: usize,
    assoc: usize,
    /// One tag per slot; [`INVALID_TAG`] marks an empty way.
    tags: Vec<u32>,
    /// One payload per slot; meaningful only where the tag is valid.
    data: Vec<P>,
}

impl<P: Clone> AssocTable<P> {
    /// Creates an empty table with `sets` sets of `assoc` ways. `fill` seeds
    /// the payload array (its value is never observed while a way is
    /// invalid; pass any cheaply-cloned instance).
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `assoc` is zero.
    pub fn new(sets: usize, assoc: usize, fill: P) -> Self {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(assoc > 0, "associativity must be non-zero");
        Self {
            sets,
            assoc,
            tags: vec![INVALID_TAG; sets * assoc],
            data: vec![fill; sets * assoc],
        }
    }
}

impl<P> AssocTable<P> {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Ways per set.
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// Total slot count (`sets * assoc`).
    pub fn capacity(&self) -> usize {
        self.tags.len()
    }

    /// `log2(sets)`, the number of index bits this table consumes.
    pub fn index_bits(&self) -> u32 {
        self.sets.trailing_zeros()
    }

    /// Flat slot number for `(index, way)`, usable as a key into parallel
    /// side arrays (e.g. the tuning accumulators).
    #[inline]
    pub fn slot_id(&self, index: u64, way: usize) -> usize {
        debug_assert!((index as usize) < self.sets && way < self.assoc);
        index as usize * self.assoc + way
    }

    #[inline]
    fn set_base(&self, index: u64) -> usize {
        (index as usize & (self.sets - 1)) * self.assoc
    }

    /// The way in set `index` holding `tag`, if any. Touches only the
    /// contiguous tag lane. A four-way set compares every way without an
    /// early exit (which way hits is data, so a scan that stopped at the
    /// hit would branch on it); other associativities scan to the first hit.
    #[inline]
    pub fn way_of(&self, index: u64, tag: u64) -> Option<usize> {
        let tags = self.set_tags(index);
        let matches = |t: u32| u64::from(t) == tag;
        match <&[u32; 4]>::try_from(tags) {
            Ok(ways) => {
                let hits = (0..4).fold(0u32, |hits, w| hits | (u32::from(matches(ways[w])) << w));
                let way = hits.trailing_zeros() as usize;
                (way < 4).then_some(way)
            }
            Err(_) => tags.iter().position(|&t| matches(t)),
        }
    }

    /// Finds the payload with `tag` in set `index`.
    #[inline]
    pub fn find(&self, index: u64, tag: u64) -> Option<(usize, &P)> {
        let way = self.way_of(index, tag)?;
        Some((way, &self.data[self.set_base(index) + way]))
    }

    /// Mutable variant of [`Self::find`].
    #[inline]
    pub fn find_mut(&mut self, index: u64, tag: u64) -> Option<(usize, &mut P)> {
        let way = self.way_of(index, tag)?;
        let base = self.set_base(index);
        Some((way, &mut self.data[base + way]))
    }

    /// True when way `way` of set `index` holds a live entry.
    #[inline]
    pub fn is_valid(&self, index: u64, way: usize) -> bool {
        self.tags[self.set_base(index) + way] != INVALID_TAG
    }

    /// The tags of one set's ways ([`INVALID_TAG`] where empty).
    #[inline]
    pub fn set_tags(&self, index: u64) -> &[u32] {
        let base = self.set_base(index);
        &self.tags[base..base + self.assoc]
    }

    /// The payload of `(index, way)`, valid or not.
    #[inline]
    pub fn payload(&self, index: u64, way: usize) -> &P {
        &self.data[self.set_base(index) + way]
    }

    /// Writes `(tag, payload)` into way `way` of set `index`, claiming the
    /// slot whether or not it was valid.
    #[inline]
    pub fn insert_at(&mut self, index: u64, way: usize, tag: u64, payload: P) {
        let base = self.set_base(index);
        self.tags[base + way] = lane_tag(tag);
        self.data[base + way] = payload;
    }

    /// Invalidates way `way` of set `index` (payload left in place, unread).
    #[inline]
    pub fn invalidate(&mut self, index: u64, way: usize) {
        let base = self.set_base(index);
        self.tags[base + way] = INVALID_TAG;
    }

    /// Inserts `(tag, payload)` into set `index`, preferring an invalid way,
    /// then the first way whose payload `replaceable` accepts. Returns the
    /// way used, or `None` (entry dropped) if the set is full of
    /// irreplaceable entries.
    pub fn try_insert<F>(
        &mut self,
        index: u64,
        tag: u64,
        payload: P,
        replaceable: F,
    ) -> Option<usize>
    where
        F: Fn(&P) -> bool,
    {
        let base = self.set_base(index);
        let victim = self.tags[base..base + self.assoc]
            .iter()
            .position(|&t| t == INVALID_TAG)
            .or_else(|| {
                (0..self.assoc).find(|&way| {
                    self.tags[base + way] != INVALID_TAG && replaceable(&self.data[base + way])
                })
            })?;
        self.tags[base + victim] = lane_tag(tag);
        self.data[base + victim] = payload;
        Some(victim)
    }

    /// Calls `f(way, &mut payload)` for every *valid* way of set `index`.
    /// The workhorse of decay / LRU-aging sweeps.
    #[inline]
    pub fn for_each_valid_mut<F>(&mut self, index: u64, mut f: F)
    where
        F: FnMut(usize, &mut P),
    {
        let base = self.set_base(index);
        for way in 0..self.assoc {
            if self.tags[base + way] != INVALID_TAG {
                f(way, &mut self.data[base + way]);
            }
        }
    }

    /// Calls `f(set_index, way, &mut payload)` for every valid slot in the
    /// table (whole-table decay sweeps).
    pub fn for_each_valid_slot_mut<F>(&mut self, mut f: F)
    where
        F: FnMut(u64, usize, &mut P),
    {
        for slot in 0..self.tags.len() {
            if self.tags[slot] != INVALID_TAG {
                f(
                    (slot / self.assoc) as u64,
                    slot % self.assoc,
                    &mut self.data[slot],
                );
            }
        }
    }

    /// Iterates all occupied slots as `(slot_id, &payload)`.
    pub fn iter_occupied(&self) -> impl Iterator<Item = (usize, &P)> {
        self.tags
            .iter()
            .zip(self.data.iter())
            .enumerate()
            .filter_map(|(id, (&t, p))| (t != INVALID_TAG).then_some((id, p)))
    }

    /// Number of occupied slots.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID_TAG).count()
    }

    /// Clears every slot (payloads stay allocated but unreachable).
    pub fn clear(&mut self) {
        self.tags.fill(INVALID_TAG);
    }

    /// Appends the table to a snapshot payload: shape, then one tag per
    /// slot with the payload (encoded by `enc`) present only for valid
    /// ways. Payload layouts stay private to the type that owns them.
    pub fn snap_encode_with<F>(&self, w: &mut SnapWriter, mut enc: F)
    where
        F: FnMut(&P, &mut SnapWriter),
    {
        w.u32(self.sets as u32);
        w.u32(self.assoc as u32);
        for slot in 0..self.tags.len() {
            let tag = self.tags[slot];
            if tag == INVALID_TAG {
                w.u64(SNAP_INVALID_TAG);
            } else {
                w.u64(u64::from(tag));
                enc(&self.data[slot], w);
            }
        }
    }

    /// Decodes a table encoded by [`Self::snap_encode_with`] into `self`,
    /// fail-closed: the stored shape must equal this table's, every stored
    /// tag must pass `valid_tag`, and `dec` must accept every valid way's
    /// payload. On error the table is partially overwritten; callers decode
    /// into a fresh predictor and drop it on failure.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] on a shape/tag mismatch, plus whatever `dec`
    /// or the reader return.
    pub fn snap_decode_into<F, V>(
        &mut self,
        r: &mut SnapReader<'_>,
        valid_tag: V,
        mut dec: F,
    ) -> Result<(), SnapError>
    where
        F: FnMut(&mut SnapReader<'_>) -> Result<P, SnapError>,
        V: Fn(u64) -> bool,
    {
        let stored_sets = r.u32("table set count")? as usize;
        let stored_assoc = r.u32("table associativity")? as usize;
        if stored_sets != self.sets || stored_assoc != self.assoc {
            return Err(SnapError::Corrupt("table shape does not match config"));
        }
        for slot in 0..self.tags.len() {
            let tag = r.u64("slot tag")?;
            if tag == SNAP_INVALID_TAG {
                self.tags[slot] = INVALID_TAG;
                continue;
            }
            if !valid_tag(tag) || tag >= u64::from(INVALID_TAG) {
                return Err(SnapError::Corrupt("slot tag out of range"));
            }
            self.tags[slot] = tag as u32;
            self.data[slot] = dec(r)?;
        }
        Ok(())
    }
}

impl<P: Clone> AssocTable<P> {
    /// Union-merges `other`'s valid entries into this table (the N→M
    /// resharding path; see DESIGN.md §10). An incoming entry lands in the
    /// set its stored index dictates — both tables were indexed by the same
    /// hash over the same broadcast history, so coordinates are comparable.
    ///
    /// On a tag collision (or a full set), `resolve(incoming, incumbent)`
    /// decides whether the incoming entry replaces the incumbent, and may
    /// mutate the losing incumbent in place (e.g. decay its usefulness so a
    /// tie does not pin it forever — see DESIGN.md §12 on flooding attacks
    /// against ties-keep-the-incumbent merges). A full set drops the
    /// incoming entry unless the resolver surrenders some way. Returns the
    /// number of entries written.
    ///
    /// # Errors
    ///
    /// Fails when the shapes differ — merging across geometries would
    /// scramble the index space.
    pub fn merge_from_resolve<F>(&mut self, other: &Self, mut resolve: F) -> Result<u64, SnapError>
    where
        F: FnMut(&P, &mut P) -> bool,
    {
        if self.sets != other.sets || self.assoc != other.assoc {
            return Err(SnapError::Corrupt(
                "cannot merge tables of different shapes",
            ));
        }
        let mut written = 0u64;
        for slot in 0..other.tags.len() {
            let tag = other.tags[slot];
            if tag == INVALID_TAG {
                continue;
            }
            let index = (slot / self.assoc) as u64;
            let incoming = &other.data[slot];
            match self.find_mut(index, u64::from(tag)) {
                Some((_, incumbent)) => {
                    if resolve(incoming, incumbent) {
                        *incumbent = incoming.clone();
                        written += 1;
                    }
                }
                None => {
                    // Probe the set's ways in order, mirroring try_insert's
                    // preference for an empty way; a full set takes the
                    // first way the resolver surrenders.
                    let base = self.set_base(index);
                    let mut victim = self.tags[base..base + self.assoc]
                        .iter()
                        .position(|&t| t == INVALID_TAG);
                    if victim.is_none() {
                        victim = (0..self.assoc)
                            .find(|&way| resolve(incoming, &mut self.data[base + way]));
                    }
                    if let Some(way) = victim {
                        self.tags[base + way] = tag;
                        self.data[base + way] = incoming.clone();
                        written += 1;
                    }
                }
            }
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct E {
        v: u32,
        evictable: bool,
    }

    fn e(v: u32) -> E {
        E {
            v,
            evictable: false,
        }
    }

    fn table(sets: usize, assoc: usize) -> AssocTable<E> {
        AssocTable::new(sets, assoc, e(0))
    }

    #[test]
    fn insert_find_roundtrip() {
        let mut t = table(8, 4);
        assert_eq!(t.try_insert(5, 0xaa, e(1), |_| false), Some(0));
        let (way, found) = t.find(5, 0xaa).unwrap();
        assert_eq!(way, 0);
        assert_eq!(found.v, 1);
        assert!(t.find(5, 0xbb).is_none());
        assert!(t.find(4, 0xaa).is_none());
    }

    #[test]
    fn wide_sets_find_every_way_and_miss_when_empty() {
        let mut t = table(1, 64);
        assert_eq!(t.way_of(0, 5), None);
        assert!(t.find(0, 5).is_none());
        t.insert_at(0, 40, 5, e(7));
        assert_eq!(t.way_of(0, 5), Some(40));
        assert_eq!(t.find(0, 5).map(|(way, p)| (way, p.v)), Some((40, 7)));
        t.insert_at(0, 63, 5, e(8));
        assert_eq!(t.way_of(0, 5), Some(40), "the lowest matching way wins");
        t.invalidate(0, 40);
        assert_eq!(t.way_of(0, 5), Some(63));
        assert_eq!(t.way_of(0, 6), None);
    }

    #[test]
    fn fills_ways_then_respects_replaceability() {
        let mut t = table(2, 4);
        for i in 0..4u64 {
            assert!(t.try_insert(0, i, e(i as u32), |_| false).is_some());
        }
        // Set full, nothing replaceable.
        assert_eq!(t.try_insert(0, 9, e(9), |_| false), None);
        assert_eq!(t.occupancy(), 4);
        // Now allow replacing the payload inserted under tag 2.
        let way = t.try_insert(0, 9, e(9), |x| x.v == 2).unwrap();
        assert_eq!(way, 2);
        assert!(t.find(0, 2).is_none());
        assert_eq!(t.find(0, 9).unwrap().1.v, 9);
    }

    #[test]
    fn index_wraps_by_mask() {
        let mut t = table(4, 2);
        t.try_insert(1, 7, e(7), |_| false).unwrap();
        // Index 5 aliases to set 1 for a 4-set table.
        assert!(t.find(5, 7).is_some());
    }

    #[test]
    fn find_mut_allows_in_place_update() {
        let mut t = table(4, 2);
        t.try_insert(2, 3, e(10), |_| false).unwrap();
        t.find_mut(2, 3).unwrap().1.v = 99;
        assert_eq!(t.find(2, 3).unwrap().1.v, 99);
    }

    #[test]
    fn slot_ids_are_unique_and_dense() {
        let t = table(4, 4);
        let mut seen = std::collections::HashSet::new();
        for idx in 0..4u64 {
            for way in 0..4usize {
                assert!(seen.insert(t.slot_id(idx, way)));
            }
        }
        assert_eq!(seen.len(), t.capacity());
        assert!(seen.iter().all(|&id| id < t.capacity()));
    }

    #[test]
    fn clear_empties_table() {
        let mut t = table(4, 2);
        t.try_insert(0, 1, e(1), |_| false);
        t.clear();
        assert_eq!(t.occupancy(), 0);
    }

    #[test]
    fn index_bits_matches_sets() {
        let t = table(128, 4);
        assert_eq!(t.index_bits(), 7);
    }

    #[test]
    fn insert_at_and_invalidate_manage_single_ways() {
        let mut t = table(4, 2);
        t.insert_at(1, 1, 0x5, e(42));
        assert!(t.is_valid(1, 1));
        assert!(!t.is_valid(1, 0));
        assert_eq!(t.find(1, 0x5), Some((1, &e(42))));
        t.invalidate(1, 1);
        assert!(t.find(1, 0x5).is_none());
        assert_eq!(t.occupancy(), 0);
    }

    #[test]
    fn valid_way_sweeps_skip_empty_slots() {
        let mut t = table(2, 4);
        t.insert_at(0, 1, 0x1, e(1));
        t.insert_at(0, 3, 0x3, e(3));
        let mut seen = Vec::new();
        t.for_each_valid_mut(0, |way, p| seen.push((way, p.v)));
        assert_eq!(seen, vec![(1, 1), (3, 3)]);
        let mut slots = Vec::new();
        t.for_each_valid_slot_mut(|set, way, p| slots.push((set, way, p.v)));
        assert_eq!(slots, vec![(0, 1, 1), (0, 3, 3)]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = table(3, 4);
    }

    fn snap_roundtrip(t: &AssocTable<E>) -> AssocTable<E> {
        let mut w = SnapWriter::new();
        t.snap_encode_with(&mut w, |p, w| {
            w.u32(p.v);
            w.u8(u8::from(p.evictable));
        });
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut out = table(t.sets(), t.assoc());
        out.snap_decode_into(
            &mut r,
            |_| true,
            |r| {
                Ok(E {
                    v: r.u32("v")?,
                    evictable: r.u8("evictable")? != 0,
                })
            },
        )
        .unwrap();
        r.finish().unwrap();
        out
    }

    #[test]
    fn snap_roundtrip_preserves_every_valid_slot() {
        let mut t = table(8, 4);
        t.insert_at(0, 1, 0x11, e(1));
        t.insert_at(3, 0, 0x22, e(2));
        t.insert_at(7, 3, 0x33, e(3));
        let back = snap_roundtrip(&t);
        assert_eq!(back.occupancy(), 3);
        for (idx, tag, v) in [(0u64, 0x11u64, 1u32), (3, 0x22, 2), (7, 0x33, 3)] {
            assert_eq!(back.find(idx, tag).unwrap().1.v, v);
        }
        // Empty ways stay empty (fill payload, invalid tag).
        assert!(!back.is_valid(0, 0));
    }

    #[test]
    fn snap_decode_rejects_shape_and_tag_mismatches() {
        let mut t = table(8, 4);
        t.insert_at(0, 0, 0x11, e(1));
        let mut w = SnapWriter::new();
        t.snap_encode_with(&mut w, |p, w| {
            w.u32(p.v);
            w.u8(0);
        });
        let bytes = w.into_bytes();
        // Wrong expected shape.
        let mut r = SnapReader::new(&bytes);
        assert!(table(4, 4)
            .snap_decode_into(&mut r, |_| true, |r| Ok(e(r.u32("v")?)))
            .is_err());
        // Tag validator rejects.
        let mut r = SnapReader::new(&bytes);
        assert!(table(8, 4)
            .snap_decode_into(
                &mut r,
                |t| t < 0x10,
                |r| {
                    let v = r.u32("v")?;
                    r.u8("evictable")?;
                    Ok(e(v))
                }
            )
            .is_err());
        // A tag too wide for the tag lane fails closed even when the
        // validator accepts it.
        let mut w = SnapWriter::new();
        w.u32(8);
        w.u32(4);
        w.u64(1 << 32);
        w.u32(1);
        for _ in 1..32 {
            w.u64(u64::MAX);
        }
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(table(8, 4)
            .snap_decode_into(&mut r, |_| true, |r| Ok(e(r.u32("v")?)))
            .is_err());
    }

    #[test]
    fn merge_resolve_can_mutate_losing_incumbents() {
        let mut a = table(4, 2);
        let mut b = table(4, 2);
        a.insert_at(0, 0, 0x1, e(10));
        b.insert_at(0, 1, 0x1, e(10)); // tie on value: incumbent keeps the slot
        let written = a
            .merge_from_resolve(&b, |new, old| {
                if new.v > old.v {
                    true
                } else {
                    old.v -= 1; // losing incumbent pays a decay tick
                    false
                }
            })
            .unwrap();
        assert_eq!(written, 0);
        assert_eq!(a.find(0, 0x1).unwrap().1.v, 9, "tie decays the incumbent");
        // A full set consults the resolver per way and may mutate refusals.
        let mut c = table(1, 2);
        c.insert_at(0, 0, 0x2, e(5));
        c.insert_at(0, 1, 0x3, e(5));
        let mut d = table(1, 2);
        d.insert_at(0, 0, 0x4, e(5));
        c.merge_from_resolve(&d, |new, old| {
            if new.v > old.v {
                true
            } else {
                old.v -= 1;
                false
            }
        })
        .unwrap();
        assert_eq!(c.find(0, 0x2).unwrap().1.v, 4);
        assert_eq!(c.find(0, 0x3).unwrap().1.v, 4);
        assert!(c.find(0, 0x4).is_none(), "tied incoming entry is dropped");
    }

    #[test]
    fn merge_unions_and_prefers_by_policy() {
        let mut a = table(4, 2);
        let mut b = table(4, 2);
        a.insert_at(0, 0, 0x1, e(10));
        b.insert_at(1, 0, 0x2, e(20)); // lands in an empty set of a
        b.insert_at(0, 1, 0x1, e(99)); // same (set, tag) as a's entry
        let written = a.merge_from_resolve(&b, |new, old| new.v > old.v).unwrap();
        assert_eq!(written, 2);
        assert_eq!(a.find(0, 0x1).unwrap().1.v, 99, "higher value wins");
        assert_eq!(a.find(1, 0x2).unwrap().1.v, 20);
        // Merging the other way: a's (0, 0x1) holds 99, so b's 99 vs ... b
        // gains a's now-better entry; shapes must match.
        let tiny = table(2, 2);
        assert!(a.merge_from_resolve(&tiny, |_, _| false).is_err());
    }
}
