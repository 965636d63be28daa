//! Store Sets memory-dependence predictor (Chrysos & Emer, ISCA 1998).
//!
//! Two direct-mapped tables (Table II of the MASCOT paper): an 8 K-entry
//! Store Set ID Table (SSIT) indexed by instruction PC holding 12-bit SSIDs,
//! and a 4 K-entry Last Fetched Store Table (LFST) indexed by SSID holding
//! the sequence number of the most recently dispatched store in the set.
//! Total 18.5 KB.
//!
//! A load whose SSIT entry is valid looks up the LFST; if it names an
//! in-flight store the load is predicted dependent on it. On a memory-order
//! violation the load and store PCs are assigned to a common store set
//! (merging existing sets toward the smaller SSID, per the original paper's
//! "declarative" rules). The SSIT is cleared periodically, the classic
//! remedy for stale sets.

use mascot::history::BranchEvent;
use mascot::prediction::{
    GroundTruth, LoadOutcome, MemDepPrediction, MemDepPredictor, StoreDistance,
};
use mascot_snapshot::{SnapError, SnapReader, SnapWriter};

/// Configuration for [`StoreSets`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreSetsConfig {
    /// SSIT entries (direct mapped; power of two). Table II uses 8192.
    pub ssit_entries: usize,
    /// LFST entries (direct mapped; power of two). Table II uses 4096.
    pub lfst_entries: usize,
    /// SSID width in bits (Table II: 12).
    pub ssid_bits: u8,
    /// Store-ID width in bits as accounted in Table II (10).
    pub store_id_bits: u8,
    /// Trainings between full SSIT invalidations (the classic cyclic
    /// clearing that prevents sets from growing stale).
    pub clear_interval: u64,
}

impl Default for StoreSetsConfig {
    fn default() -> Self {
        Self {
            ssit_entries: 8192,
            lfst_entries: 4096,
            ssid_bits: 12,
            store_id_bits: 10,
            clear_interval: 500_000,
        }
    }
}

/// The Store Sets predictor.
///
/// # Examples
///
/// ```
/// use mascot_predictors::StoreSets;
/// use mascot::MemDepPredictor;
///
/// let p = StoreSets::default();
/// assert!((p.storage_kib() - 18.5).abs() < 0.01); // Table II
/// ```
#[derive(Debug, Clone)]
pub struct StoreSets {
    cfg: StoreSetsConfig,
    /// SSID per PC slot; [`NO_SSID`] = invalid. Flat sentinel layout (no
    /// `Option` discriminant) keeps the hot direct-mapped probe to one
    /// 2-byte load per slot.
    ssit: Vec<u16>,
    /// Last-fetched-store sequence number per SSID; [`NO_STORE`] = invalid.
    lfst: Vec<u64>,
    next_ssid: u16,
    trains: u64,
}

/// Invalid-SSIT sentinel; real SSIDs are masked to `ssid_bits` (≤ 12).
const NO_SSID: u16 = u16::MAX;
/// Invalid-LFST sentinel; real store sequence numbers never reach it.
const NO_STORE: u64 = u64::MAX;

impl Default for StoreSets {
    fn default() -> Self {
        Self::new(StoreSetsConfig::default())
    }
}

impl StoreSets {
    /// Creates a predictor from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if either table size is not a power of two.
    pub fn new(cfg: StoreSetsConfig) -> Self {
        assert!(
            cfg.ssit_entries.is_power_of_two(),
            "SSIT must be a power of two"
        );
        assert!(
            cfg.lfst_entries.is_power_of_two(),
            "LFST must be a power of two"
        );
        Self {
            ssit: vec![NO_SSID; cfg.ssit_entries],
            lfst: vec![NO_STORE; cfg.lfst_entries],
            next_ssid: 0,
            trains: 0,
            cfg,
        }
    }

    /// The SSID stored at SSIT slot `idx`, if valid.
    #[inline]
    fn ssid_at(&self, idx: usize) -> Option<u16> {
        let v = self.ssit[idx];
        (v != NO_SSID).then_some(v)
    }

    /// The last fetched store of `ssid`'s set, if valid.
    #[inline]
    fn last_store(&self, ssid: u16) -> Option<u64> {
        let v = self.lfst[self.lfst_index(ssid)];
        (v != NO_STORE).then_some(v)
    }

    #[inline]
    fn ssit_index(&self, pc: u64) -> usize {
        let pc = pc >> 2;
        (pc ^ (pc >> 13)) as usize & (self.cfg.ssit_entries - 1)
    }

    #[inline]
    fn lfst_index(&self, ssid: u16) -> usize {
        usize::from(ssid) & (self.cfg.lfst_entries - 1)
    }

    fn alloc_ssid(&mut self) -> u16 {
        let ssid = self.next_ssid & ((1 << self.cfg.ssid_bits) - 1);
        self.next_ssid = self.next_ssid.wrapping_add(1);
        ssid
    }

    /// Assigns the load and store to a common store set, per the original
    /// paper's merge rules (both into the smaller SSID when both assigned).
    fn merge(&mut self, load_pc: u64, store_pc: u64) {
        let li = self.ssit_index(load_pc);
        let si = self.ssit_index(store_pc);
        match (self.ssid_at(li), self.ssid_at(si)) {
            (None, None) => {
                let ssid = self.alloc_ssid();
                self.ssit[li] = ssid;
                self.ssit[si] = ssid;
            }
            (Some(ssid), None) => self.ssit[si] = ssid,
            (None, Some(ssid)) => self.ssit[li] = ssid,
            (Some(a), Some(b)) => {
                let winner = a.min(b);
                self.ssit[li] = winner;
                self.ssit[si] = winner;
            }
        }
    }

    fn maybe_clear(&mut self) {
        self.trains += 1;
        if self.trains.is_multiple_of(self.cfg.clear_interval) {
            self.ssit.fill(NO_SSID);
            self.lfst.fill(NO_STORE);
        }
    }

    /// Assigned SSIT slots (the snapshot/restore "entries" accounting unit).
    pub fn entry_count(&self) -> u64 {
        self.ssit.iter().filter(|&&s| s != NO_SSID).count() as u64
    }

    /// Encodes the full state: configuration, both tables, the SSID
    /// allocator cursor and the clearing-phase counter.
    pub fn snap_encode(&self, w: &mut SnapWriter) {
        w.u32(self.cfg.ssit_entries as u32);
        w.u32(self.cfg.lfst_entries as u32);
        w.u8(self.cfg.ssid_bits);
        w.u8(self.cfg.store_id_bits);
        w.u64(self.cfg.clear_interval);
        w.u16(self.next_ssid);
        w.u64(self.trains);
        for &s in &self.ssit {
            w.u16(s);
        }
        for &l in &self.lfst {
            w.u64(l);
        }
    }

    /// Decodes a predictor from a snapshot payload, fail-closed: table
    /// sizes must be powers of two within sane limits and every stored SSID
    /// must fit the configured width (or be the invalid sentinel).
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncation or any out-of-range field.
    pub fn snap_decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let ssit_entries = r.u32("store-sets ssit size")? as usize;
        let lfst_entries = r.u32("store-sets lfst size")? as usize;
        let ssid_bits = r.u8("store-sets ssid width")?;
        let store_id_bits = r.u8("store-sets store-id width")?;
        let clear_interval = r.u64("store-sets clear interval")?;
        if !ssit_entries.is_power_of_two()
            || !lfst_entries.is_power_of_two()
            || ssit_entries > 1 << 24
            || lfst_entries > 1 << 24
        {
            return Err(SnapError::Corrupt("store-sets table size is invalid"));
        }
        if ssid_bits == 0 || ssid_bits > 15 {
            return Err(SnapError::Corrupt("store-sets ssid width out of range"));
        }
        if clear_interval == 0 {
            return Err(SnapError::Corrupt("store-sets clear interval is zero"));
        }
        let next_ssid = r.u16("store-sets ssid cursor")?;
        let trains = r.u64("store-sets training counter")?;
        let ssid_limit = 1u16 << ssid_bits;
        let mut ssit = Vec::with_capacity(ssit_entries);
        for _ in 0..ssit_entries {
            let s = r.u16("store-sets ssit slot")?;
            if s != NO_SSID && s >= ssid_limit {
                return Err(SnapError::Corrupt("store-sets ssid exceeds its width"));
            }
            ssit.push(s);
        }
        let mut lfst = Vec::with_capacity(lfst_entries);
        for _ in 0..lfst_entries {
            lfst.push(r.u64("store-sets lfst slot")?);
        }
        Ok(Self {
            cfg: StoreSetsConfig {
                ssit_entries,
                lfst_entries,
                ssid_bits,
                store_id_bits,
                clear_interval,
            },
            ssit,
            lfst,
            next_ssid,
            trains,
        })
    }

    /// Folds another predictor's tables into this one (warm resharding):
    /// element-wise union where `self`'s assignments win conflicts, the
    /// SSID allocator cursor advances to the larger of the two, and the
    /// clearing-phase counters sum (both halves aged the merged tables).
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] when the configurations differ.
    pub fn merge_from(&mut self, other: &Self) -> Result<u64, SnapError> {
        if self.cfg != other.cfg {
            return Err(SnapError::Corrupt(
                "cannot merge store-sets predictors with different configurations",
            ));
        }
        let mut written = 0;
        for (mine, &theirs) in self.ssit.iter_mut().zip(&other.ssit) {
            if *mine == NO_SSID && theirs != NO_SSID {
                *mine = theirs;
                written += 1;
            }
        }
        for (mine, &theirs) in self.lfst.iter_mut().zip(&other.lfst) {
            if *mine == NO_STORE && theirs != NO_STORE {
                *mine = theirs;
            }
        }
        self.next_ssid = self.next_ssid.max(other.next_ssid);
        self.trains += other.trains;
        Ok(written)
    }
}

impl MemDepPredictor for StoreSets {
    type Meta = ();

    fn name(&self) -> &'static str {
        "store-sets"
    }

    fn predict(
        &mut self,
        pc: u64,
        store_seq: u64,
        _oracle: Option<&GroundTruth>,
    ) -> (MemDepPrediction, ()) {
        let prediction = self
            .ssid_at(self.ssit_index(pc))
            .and_then(|ssid| self.last_store(ssid))
            .and_then(|last_store| {
                // Convert absolute store sequence to a distance; a stale
                // pointer (store long retired) yields no prediction.
                store_seq
                    .checked_sub(last_store)
                    .and_then(|d| StoreDistance::new(d as u32))
            })
            .map_or(MemDepPrediction::NoDependence, |distance| {
                MemDepPrediction::Dependence { distance }
            });
        (prediction, ())
    }

    fn train(&mut self, pc: u64, _meta: (), predicted: MemDepPrediction, outcome: &LoadOutcome) {
        self.maybe_clear();
        match (predicted.is_dependence(), &outcome.dependence) {
            // Missed or mis-targeted dependence: put the pair in one set.
            (_, Some(dep)) if predicted.distance() != Some(dep.distance) => {
                self.merge(pc, dep.store_pc);
            }
            _ => {}
        }
    }

    fn on_branch(&mut self, _event: &BranchEvent) {}

    fn rewind_history(&mut self, _recent: &[BranchEvent]) {}

    fn on_store_dispatch(&mut self, pc: u64, store_seq: u64) {
        if let Some(ssid) = self.ssid_at(self.ssit_index(pc)) {
            let idx = self.lfst_index(ssid);
            self.lfst[idx] = store_seq;
        }
    }

    fn predict_store_wait(&mut self, pc: u64, store_seq: u64) -> Option<StoreDistance> {
        // Stores in a set are serialised: each waits for the set's last
        // fetched store (Chrysos & Emer; §V of the MASCOT paper).
        let ssid = self.ssid_at(self.ssit_index(pc))?;
        let last = self.last_store(ssid)?;
        store_seq
            .checked_sub(last)
            .and_then(|d| StoreDistance::new(d as u32))
    }

    fn storage_bits(&self) -> u64 {
        // Table II: SSIT entries of (1 valid + ssid) bits, LFST entries of
        // (1 valid + store id) bits.
        self.cfg.ssit_entries as u64 * (1 + u64::from(self.cfg.ssid_bits))
            + self.cfg.lfst_entries as u64 * (1 + u64::from(self.cfg.store_id_bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mascot::prediction::{BypassClass, ObservedDependence};

    fn dep_at(distance: u32, store_pc: u64) -> LoadOutcome {
        LoadOutcome::dependent(ObservedDependence {
            distance: StoreDistance::new(distance).unwrap(),
            class: BypassClass::MdpOnly,
            store_pc,
            branches_between: 0,
        })
    }

    #[test]
    fn table_ii_size() {
        let p = StoreSets::default();
        // 8K * 13 + 4K * 11 bits = 148,480 bits = 18.125 KiB ~ "18.5 KB".
        assert_eq!(p.storage_bits(), 8192 * 13 + 4096 * 11);
    }

    #[test]
    fn cold_predicts_independent() {
        let mut p = StoreSets::default();
        let (pred, _) = p.predict(0x100, 10, None);
        assert_eq!(pred, MemDepPrediction::NoDependence);
    }

    #[test]
    fn learns_pair_after_violation() {
        let mut p = StoreSets::default();
        let (load_pc, store_pc) = (0x1000, 0x2000);
        // Violation observed: store was 1 back at store_seq 5.
        let (pred, m) = p.predict(load_pc, 5, None);
        p.train(load_pc, m, pred, &dep_at(1, store_pc));
        // Next iteration: the store dispatches as store_seq 7...
        p.on_store_dispatch(store_pc, 7);
        // ...and the load (one store later, seq 8) must now wait for it.
        let (pred, _) = p.predict(load_pc, 8, None);
        assert_eq!(
            pred,
            MemDepPrediction::Dependence {
                distance: StoreDistance::new(1).unwrap()
            }
        );
    }

    #[test]
    fn stale_lfst_pointer_gives_no_prediction() {
        let mut p = StoreSets::default();
        let (load_pc, store_pc) = (0x1000, 0x2000);
        let (pred, m) = p.predict(load_pc, 5, None);
        p.train(load_pc, m, pred, &dep_at(1, store_pc));
        p.on_store_dispatch(store_pc, 7);
        // 500 stores later the pointer is out of the encodable window.
        let (pred, _) = p.predict(load_pc, 507, None);
        assert_eq!(pred, MemDepPrediction::NoDependence);
    }

    #[test]
    fn merging_joins_two_sets_to_smaller_ssid() {
        let mut p = StoreSets::default();
        // Create two distinct sets.
        let (m1, pr1) = ((), MemDepPrediction::NoDependence);
        p.train(0x1000, m1, pr1, &dep_at(1, 0x2000));
        p.train(
            0x3000,
            (),
            MemDepPrediction::NoDependence,
            &dep_at(1, 0x4000),
        );
        let s_load1 = p.ssid_at(p.ssit_index(0x1000)).unwrap();
        let s_store2 = p.ssid_at(p.ssit_index(0x4000)).unwrap();
        assert_ne!(s_load1, s_store2);
        // Now load1 conflicts with store2: both collapse to min SSID.
        p.train(
            0x1000,
            (),
            MemDepPrediction::NoDependence,
            &dep_at(1, 0x4000),
        );
        let merged = s_load1.min(s_store2);
        assert_eq!(p.ssid_at(p.ssit_index(0x1000)), Some(merged));
        assert_eq!(p.ssid_at(p.ssit_index(0x4000)), Some(merged));
    }

    #[test]
    fn periodic_clear_flushes_tables() {
        let mut p = StoreSets::new(StoreSetsConfig {
            clear_interval: 4,
            ..Default::default()
        });
        p.train(
            0x1000,
            (),
            MemDepPrediction::NoDependence,
            &dep_at(1, 0x2000),
        );
        assert!(p.ssit.iter().any(|&s| s != NO_SSID));
        for _ in 0..4 {
            p.train(
                0x5000,
                (),
                MemDepPrediction::NoDependence,
                &LoadOutcome::independent(),
            );
        }
        assert!(p.ssit.iter().all(|&s| s == NO_SSID));
    }

    #[test]
    fn snap_roundtrip_is_bit_identical() {
        let mut p = StoreSets::default();
        for i in 0..40u64 {
            let load_pc = 0x1000 + (i % 10) * 8;
            let store_pc = 0x9000 + (i % 10) * 8;
            let (pr, m) = p.predict(load_pc, i, None);
            p.train(load_pc, m, pr, &dep_at(1 + (i % 5) as u32, store_pc));
            p.on_store_dispatch(store_pc, i + 1);
        }
        let mut w = SnapWriter::new();
        p.snap_encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut q = StoreSets::snap_decode(&mut r).unwrap();
        r.finish().unwrap();
        let mut w2 = SnapWriter::new();
        q.snap_encode(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
        assert_eq!(p.entry_count(), q.entry_count());
        for i in 0..10u64 {
            let pc = 0x1000 + i * 8;
            assert_eq!(p.predict(pc, 45, None).0, q.predict(pc, 45, None).0);
        }
        for cut in [0, 9, bytes.len() / 2, bytes.len() - 1] {
            let mut r = SnapReader::new(&bytes[..cut]);
            let decoded = StoreSets::snap_decode(&mut r);
            assert!(decoded.is_err() || r.finish().is_err(), "cut {cut}");
        }
        // A stored SSID wider than the configured field fails closed.
        let mut corrupt = bytes.clone();
        // next_ssid sits after two u32 sizes + two u8 widths + u64 interval.
        let ssit_start = 4 + 4 + 1 + 1 + 8 + 2 + 8;
        corrupt[ssit_start..ssit_start + 2].copy_from_slice(&0x5000u16.to_le_bytes());
        let mut r = SnapReader::new(&corrupt);
        assert!(matches!(
            StoreSets::snap_decode(&mut r),
            Err(SnapError::Corrupt("store-sets ssid exceeds its width"))
        ));
    }

    #[test]
    fn merge_keeps_own_assignments_and_fills_gaps() {
        let mut a = StoreSets::default();
        let mut b = StoreSets::default();
        a.train(
            0x1000,
            (),
            MemDepPrediction::NoDependence,
            &dep_at(1, 0x2000),
        );
        b.train(
            0x3000,
            (),
            MemDepPrediction::NoDependence,
            &dep_at(1, 0x4000),
        );
        // Collide on purpose: both assign 0x1000's slot.
        b.train(
            0x1000,
            (),
            MemDepPrediction::NoDependence,
            &dep_at(1, 0x5000),
        );
        let a_ssid = a.ssid_at(a.ssit_index(0x1000)).unwrap();
        let written = a.merge_from(&b).unwrap();
        assert!(written >= 2, "got {written}");
        // Self wins the conflict...
        assert_eq!(a.ssid_at(a.ssit_index(0x1000)), Some(a_ssid));
        // ...and b's disjoint pair arrived.
        assert!(a.ssid_at(a.ssit_index(0x3000)).is_some());
        assert!(a.ssid_at(a.ssit_index(0x4000)).is_some());
        assert_eq!(a.trains, 1 + 2);
        // Config mismatch is rejected.
        let other = StoreSets::new(StoreSetsConfig {
            clear_interval: 7,
            ..Default::default()
        });
        assert!(a.merge_from(&other).is_err());
    }

    #[test]
    fn correct_prediction_does_not_remerge() {
        let mut p = StoreSets::default();
        p.train(
            0x1000,
            (),
            MemDepPrediction::NoDependence,
            &dep_at(2, 0x2000),
        );
        let before = p.next_ssid;
        // Predicted distance matches outcome: no merge activity.
        let predicted = MemDepPrediction::Dependence {
            distance: StoreDistance::new(2).unwrap(),
        };
        p.train(0x1000, (), predicted, &dep_at(2, 0x2000));
        assert_eq!(p.next_ssid, before);
    }
}
