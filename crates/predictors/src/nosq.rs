//! NoSQ-style combined MDP/SMB predictor (Sha, Martin & Roth, MICRO 2006),
//! as configured in §V / Table II of the MASCOT paper.
//!
//! Two 4-way tables of 2 K entries each: a *path-dependent* table indexed by
//! a GShare-style hash of the load PC with folded global history, and a
//! *path-independent* table indexed by PC alone. Entries carry a 22-bit tag,
//! a 7-bit confidence counter, a 7-bit store distance and 2 LRU bits (19 KB
//! total).
//!
//! Prediction policy (§V): a saturated-confidence hit in the path-dependent
//! table performs SMB; a lower-confidence path-dependent hit makes the load
//! wait for the predicted store only; a path-independent hit is never
//! allowed to bypass; a miss lets the load execute speculatively. NoSQ's
//! bypass datapath supports offset (partial-word) bypassing.

use mascot::history::BranchEvent;
use mascot::prediction::{
    BypassClass, GroundTruth, LoadOutcome, MemDepPrediction, MemDepPredictor, StoreDistance,
};
use mascot::table::AssocTable;
use mascot::tagged::{TableLookup, TableShape, TaggedTables};
use mascot_snapshot::{SnapError, SnapReader, SnapWriter};
use mascot_stats::SaturatingCounter;

/// Configuration for [`NoSq`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NoSqConfig {
    /// Entries per table (Table II: 2048 each, 4096 total).
    pub entries_per_table: u32,
    /// Associativity (4).
    pub associativity: u32,
    /// Tag width (22 bits).
    pub tag_bits: u8,
    /// Confidence counter width (7 bits).
    pub confidence_bits: u8,
    /// Branches of global history hashed into the path-dependent index.
    pub history_len: u32,
}

impl Default for NoSqConfig {
    fn default() -> Self {
        Self {
            entries_per_table: 2048,
            associativity: 4,
            tag_bits: 22,
            confidence_bits: 7,
            history_len: 10,
        }
    }
}

impl NoSqConfig {
    fn check(&self) -> Result<(), SnapError> {
        if self.associativity == 0
            || self.entries_per_table == 0
            || !self.entries_per_table.is_multiple_of(self.associativity)
            || !(self.entries_per_table / self.associativity).is_power_of_two()
        {
            return Err(SnapError::Corrupt("nosq table geometry is invalid"));
        }
        if self.tag_bits == 0 || self.tag_bits > 30 {
            return Err(SnapError::Corrupt("nosq tag width out of range"));
        }
        if !(1..=7).contains(&self.confidence_bits) {
            return Err(SnapError::Corrupt("nosq confidence width out of range"));
        }
        if self.history_len > 1 << 20 {
            return Err(SnapError::Corrupt("nosq history length out of range"));
        }
        Ok(())
    }

    fn snap_encode(&self, w: &mut SnapWriter) {
        w.u32(self.entries_per_table);
        w.u32(self.associativity);
        w.u8(self.tag_bits);
        w.u8(self.confidence_bits);
        w.u32(self.history_len);
    }

    fn snap_decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let cfg = Self {
            entries_per_table: r.u32("nosq entries per table")?,
            associativity: r.u32("nosq associativity")?,
            tag_bits: r.u8("nosq tag width")?,
            confidence_bits: r.u8("nosq confidence width")?,
            history_len: r.u32("nosq history length")?,
        };
        cfg.check()?;
        Ok(cfg)
    }
}

/// Entry payload; the tag lives in the table's SoA tag lane.
#[derive(Debug, Clone, PartialEq, Eq)]
struct NoSqEntry {
    distance: u8,
    confidence: SaturatingCounter,
    lru: u8,
}

impl NoSqEntry {
    fn snap_encode(&self, w: &mut SnapWriter) {
        w.u8(self.distance);
        self.confidence.snap_encode(w);
        w.u8(self.lru);
    }

    fn snap_decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let distance = r.u8("nosq entry distance")?;
        if !(1..=127).contains(&distance) {
            return Err(SnapError::Corrupt("nosq entry distance out of range"));
        }
        let confidence = SaturatingCounter::snap_decode(r)?;
        let lru = r.u8("nosq entry lru")?;
        if lru > 3 {
            return Err(SnapError::Corrupt("nosq entry lru exceeds 2 bits"));
        }
        Ok(Self {
            distance,
            confidence,
            lru,
        })
    }
}

/// Bank index of the path-dependent table (global history in the index).
const PATH_DEP: usize = 0;
/// Bank index of the path-independent table (PC alone).
const PATH_INDEP: usize = 1;

/// Per-prediction metadata for [`NoSq`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoSqMeta {
    /// Coordinates in the path-dependent and path-independent tables.
    lookups: [TableLookup; 2],
    /// The providing table, if any.
    provider: Option<usize>,
}

/// The NoSQ-style predictor.
///
/// # Examples
///
/// ```
/// use mascot_predictors::NoSq;
/// use mascot::MemDepPredictor;
///
/// let p = NoSq::default();
/// assert!((p.storage_kib() - 19.0).abs() < 0.01); // Table II
/// assert!(p.bypass_supports_offset());
/// ```
#[derive(Debug, Clone)]
pub struct NoSq {
    cfg: NoSqConfig,
    /// Tables `PATH_DEP` and `PATH_INDEP`, in snapshot order.
    bank: TaggedTables<NoSqEntry>,
}

impl Default for NoSq {
    fn default() -> Self {
        Self::new(NoSqConfig::default())
    }
}

impl NoSq {
    /// Creates a predictor from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if entries/associativity do not yield power-of-two set counts.
    pub fn new(cfg: NoSqConfig) -> Self {
        let shape = |history_len| TableShape {
            history_len,
            sets: (cfg.entries_per_table / cfg.associativity) as usize,
            assoc: cfg.associativity as usize,
            tag_bits: u32::from(cfg.tag_bits),
        };
        let fill = NoSqEntry {
            distance: 0,
            confidence: SaturatingCounter::new(cfg.confidence_bits, 0),
            lru: 0,
        };
        Self {
            bank: TaggedTables::new(&[shape(cfg.history_len), shape(0)], fill),
            cfg,
        }
    }

    fn touch_lru(table: &mut AssocTable<NoSqEntry>, index: u64, tag: u64) {
        let hit_way = table
            .set_tags(index)
            .iter()
            .rposition(|&t| u64::from(t) == tag);
        if let Some(hit) = hit_way {
            table.for_each_valid_mut(index, |way, e| {
                if way == hit {
                    e.lru = 3;
                } else {
                    e.lru = e.lru.saturating_sub(1);
                }
            });
        }
    }

    /// The entry that provided `meta`'s prediction, if it is still resident.
    fn provider_entry(&mut self, meta: &NoSqMeta) -> Option<&mut NoSqEntry> {
        let p = meta.provider?;
        self.bank.entry_mut(p, meta.lookups[p])
    }

    /// Inserts or updates `lk` in bank table `t` with the observed distance.
    /// Existing entries are retargeted with confidence reset; new entries
    /// replace an invalid way, else the LRU way.
    fn upsert(&mut self, t: usize, lk: TableLookup, distance: StoreDistance) {
        let cfg_conf = self.cfg.confidence_bits;
        let t = &mut self.bank.tables_mut()[t];
        let (index, tag) = (u64::from(lk.index), u64::from(lk.tag));
        if let Some((_, e)) = t.find_mut(index, tag) {
            if e.distance == distance.get() {
                e.confidence.increment();
            } else {
                e.distance = distance.get();
                e.confidence.reset();
            }
            Self::touch_lru(t, index, tag);
            return;
        }
        let ways = t.assoc();
        let victim = (0..ways)
            .find(|&w| !t.is_valid(index, w))
            .unwrap_or_else(|| {
                (0..ways)
                    .min_by_key(|&w| {
                        let e = t.payload(index, w);
                        (e.lru, e.confidence.value())
                    })
                    .expect("associativity is non-zero")
            });
        t.insert_at(
            index,
            victim,
            tag,
            NoSqEntry {
                distance: distance.get(),
                confidence: SaturatingCounter::new(cfg_conf, 0),
                lru: 3,
            },
        );
        t.for_each_valid_mut(index, |way, e| {
            if way != victim {
                e.lru = e.lru.saturating_sub(1);
            }
        });
    }

    /// Total valid entries across both tables.
    pub fn entry_count(&self) -> u64 {
        self.bank.entry_count()
    }

    /// Encodes the full state (configuration, history, both tables).
    /// Hashers are recomputed from the history on decode.
    pub fn snap_encode(&self, w: &mut SnapWriter) {
        self.cfg.snap_encode(w);
        self.bank.snap_encode_history(w);
        self.bank.snap_encode_tables(w, |e, w| e.snap_encode(w));
    }

    /// Decodes a predictor from a snapshot payload, fail-closed.
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncation or any field inconsistent with the
    /// embedded configuration.
    pub fn snap_decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let cfg = NoSqConfig::snap_decode(r)?;
        let mut p = Self::new(cfg);
        p.bank.snap_decode_history(r)?;
        p.bank.snap_decode_tables(r, NoSqEntry::snap_decode)?;
        Ok(p)
    }

    /// Folds another predictor's tables into this one (warm resharding),
    /// preferring the higher-confidence entry on collision.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] when the configurations differ.
    pub fn merge_from(&mut self, other: &Self) -> Result<u64, SnapError> {
        if self.cfg != other.cfg {
            return Err(SnapError::Corrupt(
                "cannot merge nosq predictors with different configurations",
            ));
        }
        self.bank
            .merge_tables_from(&other.bank, |incoming, incumbent| {
                incoming.confidence.value() > incumbent.confidence.value()
            })
    }
}

impl MemDepPredictor for NoSq {
    type Meta = NoSqMeta;

    fn name(&self) -> &'static str {
        "nosq"
    }

    fn predict(
        &mut self,
        pc: u64,
        _store_seq: u64,
        _oracle: Option<&GroundTruth>,
    ) -> (MemDepPrediction, NoSqMeta) {
        let lookups = [
            self.bank.lookup(PATH_DEP, pc),
            self.bank.lookup(PATH_INDEP, pc),
        ];
        let mut provider = None;
        let mut prediction = MemDepPrediction::NoDependence;
        for (t, table) in self.bank.tables_mut().iter_mut().enumerate() {
            let (index, tag) = (u64::from(lookups[t].index), u64::from(lookups[t].tag));
            if let Some((_, e)) = table.find(index, tag) {
                let distance =
                    StoreDistance::new(u32::from(e.distance)).expect("stored distances are valid");
                // Path-independent predictions never bypass (§V).
                prediction = if t == PATH_DEP && e.confidence.is_saturated() {
                    MemDepPrediction::Bypass { distance }
                } else {
                    MemDepPrediction::Dependence { distance }
                };
                provider = Some(t);
                Self::touch_lru(table, index, tag);
                break;
            }
        }
        (prediction, NoSqMeta { lookups, provider })
    }

    fn train(
        &mut self,
        _pc: u64,
        meta: NoSqMeta,
        predicted: MemDepPrediction,
        outcome: &LoadOutcome,
    ) {
        match outcome.dependence {
            Some(dep) if predicted.distance() == Some(dep.distance) => {
                // Right store. A bypass of a partial overlap still failed
                // (the core squashes it), so, as MASCOT does, reset the
                // provider's confidence instead of reinforcing the bypass
                // that failed; otherwise reinforce the provider.
                let failed_bypass = predicted.is_bypass() && dep.class == BypassClass::MdpOnly;
                if let Some(e) = self.provider_entry(&meta) {
                    if failed_bypass {
                        e.confidence.reset();
                    } else {
                        e.confidence.increment();
                    }
                }
                // Grow path-dependent coverage even when the
                // path-independent table provided.
                if meta.provider == Some(PATH_INDEP) {
                    self.upsert(PATH_DEP, meta.lookups[PATH_DEP], dep.distance);
                }
            }
            Some(dep) => {
                // Missed or mis-targeted: (re)install in both tables.
                self.upsert(PATH_DEP, meta.lookups[PATH_DEP], dep.distance);
                self.upsert(PATH_INDEP, meta.lookups[PATH_INDEP], dep.distance);
            }
            None => {
                // False dependence: reset the provider's confidence so the
                // entry stops bypassing and soon falls to LRU replacement.
                if predicted.is_dependence() {
                    if let Some(e) = self.provider_entry(&meta) {
                        e.confidence.reset();
                    }
                }
            }
        }
    }

    fn on_branch(&mut self, event: &BranchEvent) {
        self.bank.on_branch(event);
    }

    fn rewind_history(&mut self, recent: &[BranchEvent]) {
        self.bank.rewind(recent);
    }

    fn bypass_supports_offset(&self) -> bool {
        true
    }

    fn storage_bits(&self) -> u64 {
        // Table II: 22-bit tag + 7-bit counter + 7-bit distance + 2-bit LRU.
        let per_entry = u64::from(self.cfg.tag_bits) + u64::from(self.cfg.confidence_bits) + 7 + 2;
        u64::from(self.cfg.entries_per_table) * 2 * per_entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mascot::prediction::{BypassClass, ObservedDependence};

    fn dep(distance: u32) -> LoadOutcome {
        LoadOutcome::dependent(ObservedDependence {
            distance: StoreDistance::new(distance).unwrap(),
            class: BypassClass::DirectBypass,
            store_pc: 0x2000,
            branches_between: 0,
        })
    }

    #[test]
    fn table_ii_size_is_19kb() {
        let p = NoSq::default();
        assert_eq!(p.storage_bits(), 4096 * 38);
        assert!((p.storage_kib() - 19.0).abs() < 0.01);
    }

    #[test]
    fn learns_dependence_and_needs_full_confidence_to_bypass() {
        let mut p = NoSq::default();
        let pc = 0x4400;
        let (pred, meta) = p.predict(pc, 0, None);
        assert_eq!(pred, MemDepPrediction::NoDependence);
        p.train(pc, meta, pred, &dep(3));
        // Learned, but confidence 0: wait-only prediction.
        let (pred, _) = p.predict(pc, 0, None);
        assert_eq!(
            pred,
            MemDepPrediction::Dependence {
                distance: StoreDistance::new(3).unwrap()
            }
        );
        // The 7-bit counter must saturate (127 correct) before bypassing.
        for _ in 0..127 {
            let (pr, meta) = p.predict(pc, 0, None);
            p.train(pc, meta, pr, &dep(3));
        }
        assert!(p.predict(pc, 0, None).0.is_bypass());
    }

    /// A saturated bypass that meets a partial overlap at the right
    /// distance is squashed by the core; training must not reinforce it,
    /// or every replay re-earns the bypass that just failed.
    #[test]
    fn failed_bypass_resets_confidence() {
        let mut p = NoSq::default();
        let pc = 0x4400;
        let (pred, meta) = p.predict(pc, 0, None);
        p.train(pc, meta, pred, &dep(3));
        for _ in 0..127 {
            let (pr, meta) = p.predict(pc, 0, None);
            p.train(pc, meta, pr, &dep(3));
        }
        let (pr, meta) = p.predict(pc, 0, None);
        assert!(pr.is_bypass());
        let partial = LoadOutcome::dependent(ObservedDependence {
            distance: StoreDistance::new(3).unwrap(),
            class: BypassClass::MdpOnly,
            store_pc: 0x2000,
            branches_between: 0,
        });
        p.train(pc, meta, pr, &partial);
        let (after, _) = p.predict(pc, 0, None);
        assert_eq!(
            after,
            MemDepPrediction::Dependence {
                distance: StoreDistance::new(3).unwrap()
            },
            "a failed bypass must drop back to wait-only"
        );
    }

    #[test]
    fn false_dependence_resets_confidence() {
        let mut p = NoSq::default();
        let pc = 0x4400;
        let (pred, meta) = p.predict(pc, 0, None);
        p.train(pc, meta, pred, &dep(3));
        for _ in 0..127 {
            let (pr, meta) = p.predict(pc, 0, None);
            p.train(pc, meta, pr, &dep(3));
        }
        assert!(p.predict(pc, 0, None).0.is_bypass());
        let (pr, meta) = p.predict(pc, 0, None);
        p.train(pc, meta, pr, &LoadOutcome::independent());
        // Back to a wait-only prediction.
        let (after, _) = p.predict(pc, 0, None);
        assert!(matches!(after, MemDepPrediction::Dependence { .. }));
    }

    #[test]
    fn distance_change_retargets_entry() {
        let mut p = NoSq::default();
        let pc = 0x8800;
        let (pr, meta) = p.predict(pc, 0, None);
        p.train(pc, meta, pr, &dep(3));
        let (pr, meta) = p.predict(pc, 0, None);
        p.train(pc, meta, pr, &dep(9));
        let (pred, _) = p.predict(pc, 0, None);
        assert_eq!(pred.distance().unwrap().get(), 9);
    }

    #[test]
    fn supports_offset_bypass() {
        assert!(NoSq::default().bypass_supports_offset());
    }

    #[test]
    fn history_separates_contexts() {
        use mascot::history::BranchKind;
        let mut p = NoSq::default();
        let pc = 0x7000;
        let branch = |taken: bool| BranchEvent {
            pc: 0x100,
            kind: BranchKind::Conditional,
            taken,
            target: 0x180,
        };
        // Context taken -> distance 2; context not-taken -> independent.
        for i in 0..200u32 {
            let taken = i % 2 == 0;
            p.on_branch(&branch(taken));
            let (pr, meta) = p.predict(pc, 0, None);
            let out = if taken {
                dep(2)
            } else {
                LoadOutcome::independent()
            };
            p.train(pc, meta, pr, &out);
        }
        // With history in the index, the two contexts hit different entries,
        // so the taken context should predict dependence.
        p.on_branch(&branch(true));
        let (pred_taken, _) = p.predict(pc, 0, None);
        assert!(pred_taken.is_dependence());
    }

    #[test]
    fn snap_roundtrip_is_bit_identical() {
        use mascot::history::BranchKind;
        let mut p = NoSq::default();
        for i in 0..150u64 {
            p.on_branch(&BranchEvent {
                pc: 0x100 + (i % 16) * 4,
                kind: BranchKind::Conditional,
                taken: i % 2 == 0,
                target: 0x180,
            });
            let pc = 0x4400 + (i % 8) * 16;
            let (pr, meta) = p.predict(pc, i, None);
            let out = if i % 5 == 0 {
                LoadOutcome::independent()
            } else {
                dep(1 + (i % 7) as u32)
            };
            p.train(pc, meta, pr, &out);
        }
        let mut w = SnapWriter::new();
        p.snap_encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut q = NoSq::snap_decode(&mut r).unwrap();
        r.finish().unwrap();
        let mut w2 = SnapWriter::new();
        q.snap_encode(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
        for i in 0..8u64 {
            let pc = 0x4400 + i * 16;
            assert_eq!(p.predict(pc, 200, None).0, q.predict(pc, 200, None).0);
        }
        for cut in [0, 3, bytes.len() / 2, bytes.len() - 1] {
            let mut r = SnapReader::new(&bytes[..cut]);
            let decoded = NoSq::snap_decode(&mut r);
            assert!(decoded.is_err() || r.finish().is_err(), "cut {cut}");
        }
    }

    #[test]
    fn merge_unions_disjoint_entries() {
        let mut a = NoSq::default();
        let mut b = NoSq::default();
        let (pr, meta) = a.predict(0x1000, 0, None);
        a.train(0x1000, meta, pr, &dep(2));
        let (pr, meta) = b.predict(0x8000, 0, None);
        b.train(0x8000, meta, pr, &dep(5));
        let written = a.merge_from(&b).unwrap();
        assert!(written >= 2, "path-dep + path-indep entries: {written}");
        assert!(a.predict(0x1000, 6, None).0.is_dependence());
        assert!(a.predict(0x8000, 6, None).0.is_dependence());
    }

    /// Replacement prefers an invalid way before evicting live entries.
    #[test]
    fn replacement_prefers_invalid_ways() {
        let mut p = NoSq::default();
        // Train one entry, then another with a colliding PC family: both
        // must coexist (4-way sets have room).
        for pc in [0x1000u64, 0x2000, 0x3000] {
            let (pr, meta) = p.predict(pc, 0, None);
            p.train(pc, meta, pr, &dep(2));
        }
        for pc in [0x1000u64, 0x2000, 0x3000] {
            assert!(
                p.predict(pc, 0, None).0.is_dependence(),
                "{pc:#x} must still be resident"
            );
        }
    }

    /// The path-independent table provides when the path-dependent entry is
    /// missing, and such predictions never bypass.
    #[test]
    fn path_independent_fallback_never_bypasses() {
        use mascot::history::BranchKind;
        let mut p = NoSq::default();
        let pc = 0x5000;
        // Learn under one history.
        let (pr, meta) = p.predict(pc, 0, None);
        p.train(pc, meta, pr, &dep(4));
        // Saturate confidence under the same history.
        for _ in 0..130 {
            let (pr, meta) = p.predict(pc, 0, None);
            p.train(pc, meta, pr, &dep(4));
        }
        assert!(p.predict(pc, 0, None).0.is_bypass());
        // Shift the global history: the path-dependent index changes, the
        // path-independent entry still provides a wait-only prediction.
        for i in 0..12u64 {
            p.on_branch(&BranchEvent {
                pc: 0x100 + i * 4,
                kind: BranchKind::Conditional,
                taken: i % 2 == 0,
                target: 0x200,
            });
        }
        let pred = p.predict(pc, 0, None).0;
        assert!(
            pred.is_dependence(),
            "fallback must still predict: {pred:?}"
        );
        assert!(!pred.is_bypass(), "path-independent hits never bypass");
    }
}
