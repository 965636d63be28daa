//! MDP-only MASCOT (§VI-A, Fig. 9): the bypassing counter is ignored and
//! every bypass prediction is demoted to a plain dependence.

use crate::history::BranchEvent;
use crate::prediction::{GroundTruth, LoadOutcome, MemDepPrediction, MemDepPredictor, PredictReq};
use crate::predictor::{Mascot, MascotMeta};

/// MASCOT used solely as a memory-dependence predictor.
///
/// Internally identical to [`Mascot`] (including bypass-counter training, so
/// the tables age the same way), but the external prediction never requests
/// speculative memory bypassing.
///
/// # Examples
///
/// ```
/// use mascot::{MascotConfig, MascotMdpOnly, MemDepPredictor};
///
/// let mut p = MascotMdpOnly::new(MascotConfig::default()).expect("valid config");
/// let (pred, _meta) = p.predict(0x400, 0, None);
/// assert!(!pred.is_bypass());
/// ```
#[derive(Debug, Clone)]
pub struct MascotMdpOnly {
    inner: Mascot,
}

impl MascotMdpOnly {
    /// Builds the MDP-only predictor.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors from [`Mascot::new`].
    pub fn new(cfg: crate::config::MascotConfig) -> Result<Self, crate::config::ConfigError> {
        Ok(Self {
            inner: Mascot::new(cfg)?,
        })
    }

    /// The wrapped predictor.
    pub fn inner(&self) -> &Mascot {
        &self.inner
    }

    /// Encodes the wrapped predictor's state ([`Mascot::snap_encode`]).
    pub fn snap_encode(&self, w: &mut mascot_snapshot::SnapWriter) {
        self.inner.snap_encode(w);
    }

    /// Restores from a snapshot payload ([`Mascot::snap_decode`]).
    ///
    /// # Errors
    ///
    /// Propagates any [`mascot_snapshot::SnapError`] from the inner decode.
    pub fn snap_decode(
        r: &mut mascot_snapshot::SnapReader<'_>,
    ) -> Result<Self, mascot_snapshot::SnapError> {
        Ok(Self {
            inner: Mascot::snap_decode(r)?,
        })
    }

    /// Folds another MDP-only predictor's tables into this one
    /// ([`Mascot::merge_from`]).
    ///
    /// # Errors
    ///
    /// Propagates any [`mascot_snapshot::SnapError`] from the inner merge.
    pub fn merge_from(&mut self, other: &Self) -> Result<u64, mascot_snapshot::SnapError> {
        self.inner.merge_from(&other.inner)
    }

    /// Total valid entries across all tables ([`Mascot::entry_count`]).
    pub fn entry_count(&self) -> u64 {
        self.inner.entry_count()
    }
}

impl MemDepPredictor for MascotMdpOnly {
    type Meta = MascotMeta;

    fn name(&self) -> &'static str {
        "mascot-mdp"
    }

    fn predict(
        &mut self,
        pc: u64,
        store_seq: u64,
        oracle: Option<&GroundTruth>,
    ) -> (MemDepPrediction, MascotMeta) {
        let (pred, meta) = self.inner.predict(pc, store_seq, oracle);
        (pred.demote_bypass(), meta)
    }

    /// Batched probe: MASCOT's table-major sweep with every prediction
    /// demoted before it reaches the sink.
    fn predict_batch_into(
        &mut self,
        reqs: &[PredictReq],
        mut sink: impl FnMut(MemDepPrediction, MascotMeta),
    ) {
        self.inner
            .predict_batch_into(reqs, |p, m| sink(p.demote_bypass(), m));
    }

    fn train(
        &mut self,
        pc: u64,
        meta: MascotMeta,
        predicted: MemDepPrediction,
        outcome: &LoadOutcome,
    ) {
        self.inner.train(pc, meta, predicted, outcome);
    }

    fn on_branch(&mut self, event: &BranchEvent) {
        self.inner.on_branch(event);
    }

    fn rewind_history(&mut self, recent: &[BranchEvent]) {
        self.inner.rewind_history(recent);
    }

    fn storage_bits(&self) -> u64 {
        self.inner.storage_bits()
    }

    fn end_tuning_period(&mut self) {
        self.inner.end_tuning_period();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prediction::{BypassClass, LoadOutcome, ObservedDependence, StoreDistance};

    #[test]
    fn never_predicts_bypass() {
        let cfg = crate::config::MascotConfig {
            history_lengths: vec![0, 2],
            table_entries: vec![64, 64],
            tag_bits: vec![12, 12],
            ..Default::default()
        };
        let mut p = MascotMdpOnly::new(cfg).unwrap();
        let pc = 0x7700;
        let out = LoadOutcome::dependent(ObservedDependence {
            distance: StoreDistance::new(2).unwrap(),
            class: BypassClass::DirectBypass,
            store_pc: 0x100,
            branches_between: 0,
        });
        for _ in 0..30 {
            let (pred, meta) = p.predict(pc, 0, None);
            assert!(!pred.is_bypass());
            p.train(pc, meta, pred, &out);
        }
        // The inner predictor has saturated counters and would bypass...
        assert!(p.inner().clone().predict(pc, 0, None).0.is_bypass());
        // ...but the wrapper still demotes.
        assert!(!p.predict(pc, 0, None).0.is_bypass());
    }
}
