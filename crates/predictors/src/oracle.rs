//! Perfect ("oracle") predictors used as normalisation baselines in §VI.
//!
//! [`PerfectMdp`] predicts exactly the trace's ground-truth dependence and
//! never bypasses — the paper's normalisation baseline for every IPC figure.
//! [`PerfectMdpSmb`] additionally bypasses every bypassable dependence — the
//! upper bound of Fig. 12.
//!
//! These are the only predictors permitted to read the `oracle` argument of
//! [`MemDepPredictor::predict`].

use mascot::history::BranchEvent;
use mascot::prediction::{GroundTruth, LoadOutcome, MemDepPrediction, MemDepPredictor};
use mascot_snapshot::{SnapError, SnapReader, SnapWriter};

/// The constructor plus the snapshot and merge surface that every
/// [`crate::AnyPredictor`] variant forwards to, for a stateless oracle: no
/// entries, an empty snapshot body and a no-op merge.
macro_rules! stateless_oracle {
    ($($t:ident),*) => {$(
        impl $t {
            /// Creates the oracle.
            pub fn new() -> Self {
                Self
            }

            /// Always 0: the oracle holds no table entries.
            pub fn entry_count(&self) -> u64 {
                0
            }

            /// Writes nothing: the snapshot body is empty.
            pub fn snap_encode(&self, _w: &mut SnapWriter) {}

            /// Reads nothing and never fails, so a caller that finishes the
            /// reader rejects any byte after the variant tag as trailing.
            pub fn snap_decode(_r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                Ok(Self)
            }

            /// Writes nothing and never fails: there is no state to fold in.
            pub fn merge_from(&mut self, _other: &Self) -> Result<u64, SnapError> {
                Ok(0)
            }
        }
    )*};
}

stateless_oracle!(PerfectMdp, PerfectMdpSmb);

/// A perfect memory-dependence predictor (no bypassing).
///
/// Predicts a dependence exactly when the trace says the load has an
/// in-window prior-store writer. As the paper notes (§VI-A), this is
/// *optimal prediction* but not always optimal performance: stalling for a
/// store that would have resolved in time costs a cycle that an "incorrect"
/// speculation would have saved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfectMdp;

impl MemDepPredictor for PerfectMdp {
    type Meta = ();

    fn name(&self) -> &'static str {
        "perfect-mdp"
    }

    fn predict(
        &mut self,
        _pc: u64,
        _store_seq: u64,
        oracle: Option<&GroundTruth>,
    ) -> (MemDepPrediction, ()) {
        let pred = match oracle {
            Some(gt) => MemDepPrediction::Dependence {
                distance: gt.distance,
            },
            None => MemDepPrediction::NoDependence,
        };
        (pred, ())
    }

    fn train(&mut self, _pc: u64, _meta: (), _predicted: MemDepPrediction, _outcome: &LoadOutcome) {
    }

    fn on_branch(&mut self, _event: &BranchEvent) {}

    fn rewind_history(&mut self, _recent: &[BranchEvent]) {}

    fn storage_bits(&self) -> u64 {
        0
    }
}

/// A perfect memory-dependence *and* bypassing predictor (Fig. 12's upper
/// bound): bypasses every dependence whose value the store fully provides,
/// including offset cases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfectMdpSmb;

impl MemDepPredictor for PerfectMdpSmb {
    type Meta = ();

    fn name(&self) -> &'static str {
        "perfect-mdp-smb"
    }

    fn predict(
        &mut self,
        _pc: u64,
        _store_seq: u64,
        oracle: Option<&GroundTruth>,
    ) -> (MemDepPrediction, ()) {
        let pred = match oracle {
            Some(gt) if gt.class.is_bypassable() || gt.class == mascot::BypassClass::Offset => {
                MemDepPrediction::Bypass {
                    distance: gt.distance,
                }
            }
            Some(gt) => MemDepPrediction::Dependence {
                distance: gt.distance,
            },
            None => MemDepPrediction::NoDependence,
        };
        (pred, ())
    }

    fn train(&mut self, _pc: u64, _meta: (), _predicted: MemDepPrediction, _outcome: &LoadOutcome) {
    }

    fn on_branch(&mut self, _event: &BranchEvent) {}

    fn rewind_history(&mut self, _recent: &[BranchEvent]) {}

    fn bypass_supports_offset(&self) -> bool {
        true
    }

    fn storage_bits(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mascot::prediction::{BypassClass, StoreDistance};

    fn gt(distance: u32, class: BypassClass) -> GroundTruth {
        GroundTruth {
            distance: StoreDistance::new(distance).unwrap(),
            class,
        }
    }

    #[test]
    fn perfect_mdp_follows_ground_truth() {
        let mut p = PerfectMdp::new();
        assert_eq!(p.predict(0, 0, None).0, MemDepPrediction::NoDependence);
        let (pred, _) = p.predict(0, 0, Some(&gt(7, BypassClass::DirectBypass)));
        assert_eq!(pred.distance().unwrap().get(), 7);
        assert!(!pred.is_bypass(), "perfect MDP never bypasses");
    }

    #[test]
    fn perfect_smb_bypasses_all_fully_covered_classes() {
        let mut p = PerfectMdpSmb::new();
        assert!(p
            .predict(0, 0, Some(&gt(1, BypassClass::DirectBypass)))
            .0
            .is_bypass());
        assert!(p
            .predict(0, 0, Some(&gt(1, BypassClass::NoOffset)))
            .0
            .is_bypass());
        assert!(p
            .predict(0, 0, Some(&gt(1, BypassClass::Offset)))
            .0
            .is_bypass());
        let partial = p.predict(0, 0, Some(&gt(1, BypassClass::MdpOnly))).0;
        assert!(partial.is_dependence() && !partial.is_bypass());
    }

    #[test]
    fn oracles_cost_no_storage() {
        assert_eq!(PerfectMdp::new().storage_bits(), 0);
        assert_eq!(PerfectMdpSmb::new().storage_bits(), 0);
    }
}
