//! MDP-TAGE (Perais & Seznec; described in §II of the MASCOT paper): the
//! minimal TAGE-for-memory-dependence augmentation that predates PHAST.
//!
//! A TAGE branch predictor is repurposed by using its 3-bit saturating
//! counter as the *store distance* and adding a single usefulness bit `u`:
//! "If u is not 0, the entry can be used for predicting a memory
//! dependence." The 3-bit distance limits predictions to the seven nearest
//! stores, and the single-bit confidence makes entries fragile — both
//! weaknesses MASCOT's 7-bit distance and richer counters address. Included
//! as a historical baseline beyond the paper's Table II set.

use mascot::history::BranchEvent;
use mascot::prediction::{
    GroundTruth, LoadOutcome, MemDepPrediction, MemDepPredictor, StoreDistance,
};
use mascot::tagged::{TableLookup, TableShape, TaggedTables, MAX_TABLES};
use mascot_snapshot::{SnapError, SnapReader, SnapWriter};

/// Configuration for [`MdpTage`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MdpTageConfig {
    /// History length per table (branches), starting at 0.
    pub history_lengths: Vec<u32>,
    /// Entries per table.
    pub table_entries: Vec<u32>,
    /// Tag width in bits.
    pub tag_bits: u8,
    /// Associativity.
    pub associativity: u32,
}

impl Default for MdpTageConfig {
    fn default() -> Self {
        // Sized comparably to the Table II predictors.
        Self {
            history_lengths: vec![0, 2, 4, 8, 16, 32, 64, 128],
            table_entries: vec![512; 8],
            tag_bits: 16,
            associativity: 4,
        }
    }
}

impl MdpTageConfig {
    fn check(&self) -> Result<(), SnapError> {
        let n = self.history_lengths.len();
        if n == 0 || n > MAX_TABLES || self.table_entries.len() != n {
            return Err(SnapError::Corrupt("mdp-tage config shape is invalid"));
        }
        if self.associativity == 0 {
            return Err(SnapError::Corrupt("mdp-tage associativity is zero"));
        }
        for &e in &self.table_entries {
            if e == 0 || e % self.associativity != 0 || !(e / self.associativity).is_power_of_two()
            {
                return Err(SnapError::Corrupt("mdp-tage table size is invalid"));
            }
        }
        if self.history_lengths.iter().any(|&h| h > 1 << 20) {
            return Err(SnapError::Corrupt("mdp-tage history length out of range"));
        }
        if !self.history_lengths.windows(2).all(|w| w[0] < w[1]) {
            return Err(SnapError::Corrupt(
                "mdp-tage history lengths must strictly increase",
            ));
        }
        if self.tag_bits == 0 || self.tag_bits > 30 {
            return Err(SnapError::Corrupt("mdp-tage tag width out of range"));
        }
        Ok(())
    }

    fn snap_encode(&self, w: &mut SnapWriter) {
        w.u32(self.history_lengths.len() as u32);
        for &h in &self.history_lengths {
            w.u32(h);
        }
        for &e in &self.table_entries {
            w.u32(e);
        }
        w.u8(self.tag_bits);
        w.u32(self.associativity);
    }

    fn snap_decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.u32("mdp-tage config table count")? as usize;
        if n == 0 || n > MAX_TABLES {
            return Err(SnapError::Corrupt(
                "mdp-tage config table count out of range",
            ));
        }
        let mut history_lengths = Vec::with_capacity(n);
        for _ in 0..n {
            history_lengths.push(r.u32("mdp-tage history length")?);
        }
        let mut table_entries = Vec::with_capacity(n);
        for _ in 0..n {
            table_entries.push(r.u32("mdp-tage table entries")?);
        }
        let cfg = Self {
            history_lengths,
            table_entries,
            tag_bits: r.u8("mdp-tage tag width")?,
            associativity: r.u32("mdp-tage associativity")?,
        };
        cfg.check()?;
        Ok(cfg)
    }
}

/// Entry payload; the tag lives in the table's SoA tag lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MdpTageEntry {
    /// The repurposed 3-bit counter: store distance 1..=7.
    distance: u8,
    /// Single usefulness bit.
    useful: bool,
}

impl MdpTageEntry {
    fn snap_encode(&self, w: &mut SnapWriter) {
        w.u8(self.distance);
        w.bool(self.useful);
    }

    fn snap_decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let distance = r.u8("mdp-tage entry distance")?;
        if !(1..=7).contains(&distance) {
            return Err(SnapError::Corrupt("mdp-tage entry distance out of range"));
        }
        Ok(Self {
            distance,
            useful: r.bool("mdp-tage entry usefulness bit")?,
        })
    }
}

/// Per-prediction metadata for [`MdpTage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MdpTageMeta {
    lookups: [TableLookup; MAX_TABLES],
    num_tables: u8,
    provider: Option<u8>,
}

/// The MDP-TAGE predictor.
///
/// # Examples
///
/// ```
/// use mascot_predictors::MdpTage;
/// use mascot::MemDepPredictor;
///
/// let p = MdpTage::default();
/// // 4K entries × (16-bit tag + 3-bit distance + 1 u bit) = 10 KiB.
/// assert!((p.storage_kib() - 10.0).abs() < 0.01);
/// ```
#[derive(Debug, Clone)]
pub struct MdpTage {
    cfg: MdpTageConfig,
    bank: TaggedTables<MdpTageEntry>,
}

impl Default for MdpTage {
    fn default() -> Self {
        Self::new(MdpTageConfig::default())
    }
}

impl MdpTage {
    /// Creates a predictor from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the per-table vectors disagree in length, exceed
    /// [`MAX_TABLES`], yield non-power-of-two set counts, or the history
    /// lengths do not strictly increase.
    pub fn new(cfg: MdpTageConfig) -> Self {
        assert_eq!(
            cfg.history_lengths.len(),
            cfg.table_entries.len(),
            "history/table shape mismatch"
        );
        assert!(
            cfg.history_lengths.windows(2).all(|w| w[0] < w[1]),
            "history lengths must strictly increase"
        );
        let shapes: Vec<_> = cfg
            .history_lengths
            .iter()
            .zip(&cfg.table_entries)
            .map(|(&history_len, &e)| TableShape {
                history_len,
                sets: (e / cfg.associativity) as usize,
                assoc: cfg.associativity as usize,
                tag_bits: u32::from(cfg.tag_bits),
            })
            .collect();
        let fill = MdpTageEntry {
            distance: 0,
            useful: false,
        };
        Self {
            bank: TaggedTables::new(&shapes, fill),
            cfg,
        }
    }

    /// The entry that provided `meta`'s prediction, if it is still resident.
    fn provider_entry(&mut self, meta: &MdpTageMeta) -> Option<&mut MdpTageEntry> {
        let p = usize::from(meta.provider?);
        self.bank.entry_mut(p, meta.lookups[p])
    }

    fn allocate(&mut self, meta: &MdpTageMeta, start: usize, distance: u8) {
        for (t, table) in self.bank.tables_mut().iter_mut().enumerate().skip(start) {
            let lk = meta.lookups[t];
            let entry = MdpTageEntry {
                distance,
                useful: true,
            };
            if table
                .try_insert(u64::from(lk.index), u64::from(lk.tag), entry, |e| !e.useful)
                .is_some()
            {
                return;
            }
            table.for_each_valid_mut(u64::from(lk.index), |_, e| e.useful = false);
        }
    }

    /// Total valid entries across all tables.
    pub fn entry_count(&self) -> u64 {
        self.bank.entry_count()
    }

    /// Encodes the full state (configuration, tables, history). Hashers
    /// are recomputed from the history on decode.
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
        let cfg = MdpTageConfig::snap_decode(r)?;
        let mut p = Self::new(cfg);
        p.bank.snap_decode_history(r)?;
        p.bank.snap_decode_tables(r, MdpTageEntry::snap_decode)?;
        Ok(p)
    }

    /// Folds another predictor's tables into this one (warm resharding),
    /// preferring useful entries over un-useful ones on collision.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] when the configurations differ.
    pub fn merge_from(&mut self, other: &Self) -> Result<u64, SnapError> {
        if self.cfg != other.cfg {
            return Err(SnapError::Corrupt(
                "cannot merge mdp-tage predictors with different configurations",
            ));
        }
        self.bank
            .merge_tables_from(&other.bank, |incoming, incumbent| {
                incoming.useful && !incumbent.useful
            })
    }
}

impl MemDepPredictor for MdpTage {
    type Meta = MdpTageMeta;

    fn name(&self) -> &'static str {
        "mdp-tage"
    }

    fn predict(
        &mut self,
        pc: u64,
        _store_seq: u64,
        _oracle: Option<&GroundTruth>,
    ) -> (MemDepPrediction, MdpTageMeta) {
        let lookups = self.bank.lookups(pc);
        let mut provider = None;
        let mut prediction = MemDepPrediction::NoDependence;
        for (t, table) in self.bank.tables().iter().enumerate().rev() {
            let lk = lookups[t];
            if let Some((_, e)) = table.find(u64::from(lk.index), u64::from(lk.tag)) {
                provider = Some(t as u8);
                // Only useful entries may predict ("if u is not 0").
                if e.useful {
                    let distance =
                        StoreDistance::new(u32::from(e.distance)).expect("1..=7 in range");
                    prediction = MemDepPrediction::Dependence { distance };
                }
                break;
            }
        }
        (
            prediction,
            MdpTageMeta {
                lookups,
                num_tables: self.bank.num_tables() as u8,
                provider,
            },
        )
    }

    fn train(
        &mut self,
        _pc: u64,
        meta: MdpTageMeta,
        predicted: MemDepPrediction,
        outcome: &LoadOutcome,
    ) {
        // Only near dependencies are encodable in the 3-bit field.
        let encodable = outcome
            .dependence
            .filter(|d| (1..=7).contains(&d.distance.get()));
        match encodable {
            Some(dep) if predicted.distance() == Some(dep.distance) => {
                if let Some(e) = self.provider_entry(&meta) {
                    e.useful = true;
                }
            }
            Some(dep) => {
                if let Some(e) = self.provider_entry(&meta) {
                    e.useful = false;
                }
                let start = meta.provider.map_or(0, |p| usize::from(p) + 1);
                self.allocate(&meta, start, dep.distance.get());
            }
            None => {
                // False dependence (or unencodable distance): clear the
                // single confidence bit — the scheme's whole unlearning
                // mechanism, and its weakness (§III).
                if predicted.is_dependence() {
                    if let Some(e) = self.provider_entry(&meta) {
                        e.useful = false;
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

    fn storage_bits(&self) -> u64 {
        // tag + 3-bit distance + 1 usefulness bit.
        let per_entry = u64::from(self.cfg.tag_bits) + 3 + 1;
        self.cfg
            .table_entries
            .iter()
            .map(|&e| u64::from(e) * per_entry)
            .sum()
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
            store_pc: 0x900,
            branches_between: 0,
        })
    }

    #[test]
    fn storage_is_10kib() {
        assert_eq!(MdpTage::default().storage_bits(), 4096 * 20);
    }

    #[test]
    fn learns_near_dependence() {
        let mut p = MdpTage::default();
        let pc = 0x2000;
        let (pr, m) = p.predict(pc, 0, None);
        assert_eq!(pr, MemDepPrediction::NoDependence);
        p.train(pc, m, pr, &dep(3));
        let (pr, _) = p.predict(pc, 0, None);
        assert_eq!(pr.distance().unwrap().get(), 3);
    }

    #[test]
    fn cannot_encode_far_dependencies() {
        let mut p = MdpTage::default();
        let pc = 0x2000;
        for _ in 0..10 {
            let (pr, m) = p.predict(pc, 0, None);
            p.train(pc, m, pr, &dep(20)); // beyond the 3-bit field
        }
        assert_eq!(
            p.predict(pc, 0, None).0,
            MemDepPrediction::NoDependence,
            "distance 20 does not fit a 3-bit field"
        );
    }

    #[test]
    fn single_bit_confidence_flips_on_one_false_dependence() {
        let mut p = MdpTage::default();
        let pc = 0x2000;
        let (pr, m) = p.predict(pc, 0, None);
        p.train(pc, m, pr, &dep(2));
        assert!(p.predict(pc, 0, None).0.is_dependence());
        // One false dependence disables the entry entirely.
        let (pr, m) = p.predict(pc, 0, None);
        p.train(pc, m, pr, &LoadOutcome::independent());
        assert_eq!(p.predict(pc, 0, None).0, MemDepPrediction::NoDependence);
        // ...and one correct outcome re-arms it (the entry persists).
        let (pr, m) = p.predict(pc, 0, None);
        p.train(pc, m, pr, &dep(2));
        let _ = pr;
        // The provider matched but was unuseful; a conflicting distance of 2
        // re-allocates/re-arms, so the dependence comes back.
        assert!(p.predict(pc, 0, None).0.is_dependence());
    }

    #[test]
    fn snap_roundtrip_is_bit_identical() {
        use mascot::history::BranchKind;
        let mut p = MdpTage::default();
        for i in 0..100u64 {
            p.on_branch(&BranchEvent {
                pc: 0x100 + (i % 16) * 4,
                kind: BranchKind::Conditional,
                taken: i % 2 == 0,
                target: 0x180,
            });
            let pc = 0x2000 + (i % 6) * 8;
            let (pr, m) = p.predict(pc, 0, None);
            let out = if i % 4 == 0 {
                LoadOutcome::independent()
            } else {
                dep(1 + (i % 7) as u32)
            };
            p.train(pc, m, pr, &out);
        }
        let mut w = SnapWriter::new();
        p.snap_encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut q = MdpTage::snap_decode(&mut r).unwrap();
        r.finish().unwrap();
        let mut w2 = SnapWriter::new();
        q.snap_encode(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
        for i in 0..6u64 {
            let pc = 0x2000 + i * 8;
            assert_eq!(p.predict(pc, 0, None).0, q.predict(pc, 0, None).0);
        }
    }

    /// Decoding rejects malformed payloads instead of building a predictor
    /// that mis-hashes: truncations, and a configuration whose history
    /// lengths do not strictly increase (`[0, 200, 4, ..]` used to restore
    /// cleanly, with a ring too short for its 200-branch window).
    #[test]
    fn snap_decode_is_fail_closed() {
        let mut w = SnapWriter::new();
        MdpTage::default().snap_encode(&mut w);
        let good = w.into_bytes();
        assert!(MdpTage::snap_decode(&mut SnapReader::new(&good)).is_ok());
        for cut in 0..good.len() {
            let mut r = SnapReader::new(&good[..cut]);
            assert!(
                MdpTage::snap_decode(&mut r).is_err() || r.finish().is_err(),
                "cut {cut}"
            );
        }
        // The table count leads the config, then one u32 length per table.
        let mut unordered = good.clone();
        unordered[8..12].copy_from_slice(&200u32.to_le_bytes());
        assert!(matches!(
            MdpTage::snap_decode(&mut SnapReader::new(&unordered)),
            Err(SnapError::Corrupt(_))
        ));
    }

    /// The default configuration grown by one table past [`MAX_TABLES`],
    /// valid in every other respect.
    fn nine_table_cfg() -> MdpTageConfig {
        let mut cfg = MdpTageConfig::default();
        cfg.history_lengths.push(256);
        cfg.table_entries.push(512);
        assert_eq!(cfg.history_lengths.len(), MAX_TABLES + 1);
        cfg
    }

    #[test]
    fn nine_table_config_fails_its_check() {
        assert!(matches!(
            nine_table_cfg().check(),
            Err(SnapError::Corrupt(msg)) if msg.contains("shape is invalid")
        ));
    }

    #[test]
    fn nine_table_snapshot_is_corrupt() {
        let mut w = SnapWriter::new();
        nine_table_cfg().snap_encode(&mut w);
        let bytes = w.into_bytes();
        assert!(matches!(
            MdpTage::snap_decode(&mut SnapReader::new(&bytes)),
            Err(SnapError::Corrupt(msg)) if msg.contains("table count out of range")
        ));
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn new_rejects_non_increasing_history() {
        let mut cfg = MdpTageConfig::default();
        cfg.history_lengths[1] = 200;
        let _ = MdpTage::new(cfg);
    }

    #[test]
    fn merge_unions_disjoint_entries() {
        let mut a = MdpTage::default();
        let mut b = MdpTage::default();
        let (pr, m) = a.predict(0x2000, 0, None);
        a.train(0x2000, m, pr, &dep(3));
        let (pr, m) = b.predict(0x7000, 0, None);
        b.train(0x7000, m, pr, &dep(5));
        let written = a.merge_from(&b).unwrap();
        assert_eq!(written, 1);
        assert!(a.predict(0x2000, 0, None).0.is_dependence());
        assert!(a.predict(0x7000, 0, None).0.is_dependence());
    }

    #[test]
    fn never_bypasses() {
        let mut p = MdpTage::default();
        for i in 0..50u64 {
            let (pr, m) = p.predict(0x100, i, None);
            assert!(!pr.is_bypass());
            p.train(0x100, m, pr, &dep(1));
        }
    }
}
