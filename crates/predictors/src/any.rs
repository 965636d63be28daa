//! Type-erased dispatch over every predictor kind.
//!
//! [`MemDepPredictor`] has an associated `Meta` type, so the simulator is
//! generic over the predictor. The benchmark harness, the serve shards and
//! the audit tools, however, pick a predictor at run time; [`AnyPredictor`]
//! wraps every evaluated predictor behind a single enum with a unified
//! [`AnyMeta`].
//!
//! The `any_predictor!` table below is the one place that lists the
//! predictor set: each row names a variant, its wrapped type, its frozen
//! snapshot tag and its [`AnyMeta`] kind, and the enum plus all of its
//! forwarding code are generated from it.

use mascot::history::BranchEvent;
use mascot::mdp_only::MascotMdpOnly;
use mascot::prediction::{
    GroundTruth, LoadOutcome, MemDepPrediction, MemDepPredictor, PredictReq, TrainReq,
};
use mascot::predictor::{Mascot, MascotMeta};
use mascot_snapshot::{SnapError, SnapReader, SnapWriter};

use crate::mdp_tage::{MdpTage, MdpTageMeta};
use crate::nosq::{NoSq, NoSqMeta};
use crate::oracle::{PerfectMdp, PerfectMdpSmb};
use crate::phast::{Phast, PhastMeta};
use crate::randomized::RandomizedMascot;
use crate::store_sets::StoreSets;

/// Metadata variants for [`AnyPredictor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AnyMeta {
    /// MASCOT-family metadata.
    Mascot(MascotMeta),
    /// PHAST metadata.
    Phast(PhastMeta),
    /// NoSQ metadata.
    NoSq(NoSqMeta),
    /// MDP-TAGE metadata.
    MdpTage(MdpTageMeta),
    /// Metadata-free predictors (Store Sets, oracles).
    Unit,
}

/// Wraps a variant's own metadata as the [`AnyMeta`] of `kind` (`Unit`
/// rows carry `()`).
macro_rules! wrap_meta {
    (Unit, $m:expr) => {{
        let () = $m;
        AnyMeta::Unit
    }};
    ($kind:ident, $m:expr) => {
        AnyMeta::$kind($m)
    };
}

/// Unwraps an [`AnyMeta`] of `kind` back to the variant's own metadata;
/// `None` on a kind mismatch.
macro_rules! unwrap_meta {
    (Unit, $m:expr) => {
        matches!($m, AnyMeta::Unit).then_some(())
    };
    ($kind:ident, $m:expr) => {
        if let AnyMeta::$kind(m) = $m {
            Some(m)
        } else {
            None
        }
    };
}

/// Generates [`AnyPredictor`] and all of its forwarding code from one row
/// per variant: `Variant(Type) = snapshot tag, meta: AnyMeta kind;`.
macro_rules! any_predictor {
    ($($(#[$doc:meta])* $v:ident($ty:ident) = $tag:literal, meta: $kind:ident;)*) => {
        /// A runtime-selected predictor, wrapping every kind evaluated in §VI.
        #[derive(Debug, Clone)]
        #[allow(clippy::large_enum_variant)]
        pub enum AnyPredictor {
            $($(#[$doc])* $v($ty),)*
        }

        impl AnyPredictor {
            /// Total valid entries resident in the predictor's tables (0 for
            /// the stateless oracles) — the snapshot/restore observability
            /// unit.
            pub fn entry_count(&self) -> u64 {
                match self {
                    $(AnyPredictor::$v(p) => p.entry_count(),)*
                }
            }

            /// Encodes the predictor to an opaque snapshot payload: a
            /// one-byte variant tag followed by the wrapped predictor's own
            /// encoding (empty for the stateless oracles).
            pub fn snapshot_bytes(&self) -> Vec<u8> {
                let mut w = SnapWriter::new();
                match self {
                    $(AnyPredictor::$v(p) => {
                        w.u8($tag);
                        p.snap_encode(&mut w);
                    })*
                }
                w.into_bytes()
            }

            /// Restores a predictor from a payload produced by
            /// [`AnyPredictor::snapshot_bytes`], fail-closed: unknown variant
            /// tags, truncation, trailing bytes (including any body after a
            /// stateless oracle's tag), or any inner inconsistency reject the
            /// whole payload.
            ///
            /// # Errors
            ///
            /// Any [`SnapError`] from the inner decode, or
            /// [`SnapError::Corrupt`] for an unknown variant tag.
            pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, SnapError> {
                let mut r = SnapReader::new(bytes);
                let p = match r.u8("predictor variant tag")? {
                    $($tag => AnyPredictor::$v($ty::snap_decode(&mut r)?),)*
                    _ => return Err(SnapError::Corrupt("unknown predictor variant tag")),
                };
                r.finish()?;
                Ok(p)
            }

            /// Folds another predictor's state into this one — the
            /// warm-resharding merge. Both must wrap the same variant (and,
            /// transitively, the same configuration). Returns the number of
            /// entries written from `other`.
            ///
            /// # Errors
            ///
            /// [`SnapError::Corrupt`] on a variant or configuration mismatch.
            pub fn merge_from(&mut self, other: &Self) -> Result<u64, SnapError> {
                match (self, other) {
                    $((AnyPredictor::$v(a), AnyPredictor::$v(b)) => a.merge_from(b),)*
                    _ => Err(SnapError::Corrupt("cannot merge different predictor kinds")),
                }
            }
        }

        impl MemDepPredictor for AnyPredictor {
            type Meta = AnyMeta;

            fn name(&self) -> &'static str {
                match self {
                    $(AnyPredictor::$v(p) => p.name(),)*
                }
            }

            fn predict(
                &mut self,
                pc: u64,
                store_seq: u64,
                oracle: Option<&GroundTruth>,
            ) -> (MemDepPrediction, AnyMeta) {
                match self {
                    $(AnyPredictor::$v(p) => {
                        let (pred, m) = p.predict(pc, store_seq, oracle);
                        (pred, wrap_meta!($kind, m))
                    })*
                }
            }

            // Overridden (not inherited) so that this non-generic body, and
            // with it each variant's `predict_batch_into`, is compiled here
            // with the inner `predict` inlined; the inherited generic
            // default is instantiated in the calling crate and measured
            // slower (EXPERIMENTS.md, "AnyPredictor from one table").
            fn predict_batch(
                &mut self,
                reqs: &[PredictReq],
                out: &mut Vec<(MemDepPrediction, AnyMeta)>,
            ) {
                out.clear();
                out.reserve(reqs.len());
                match self {
                    $(AnyPredictor::$v(p) => p.predict_batch_into(reqs, |pred, m| {
                        out.push((pred, wrap_meta!($kind, m)))
                    }),)*
                }
            }

            fn train(
                &mut self,
                pc: u64,
                meta: AnyMeta,
                predicted: MemDepPrediction,
                outcome: &LoadOutcome,
            ) {
                match self {
                    $(AnyPredictor::$v(p) => match unwrap_meta!($kind, meta) {
                        Some(m) => p.train(pc, m, predicted, outcome),
                        None => debug_assert!(
                            false,
                            "metadata kind {meta:?} does not match predictor {}",
                            p.name()
                        ),
                    },)*
                }
            }

            fn train_batch(&mut self, reqs: &mut Vec<TrainReq<AnyMeta>>) {
                // Hoist the variant dispatch out of the per-record loop; each
                // arm drains with its own meta unwrap (training order is
                // preserved).
                match self {
                    $(AnyPredictor::$v(p) => {
                        for r in reqs.drain(..) {
                            match unwrap_meta!($kind, r.meta) {
                                Some(m) => p.train(r.pc, m, r.predicted, &r.outcome),
                                None => debug_assert!(
                                    false,
                                    "meta kind mismatch for {}",
                                    p.name()
                                ),
                            }
                        }
                    })*
                }
            }

            fn on_branch(&mut self, event: &BranchEvent) {
                match self {
                    $(AnyPredictor::$v(p) => p.on_branch(event),)*
                }
            }

            fn rewind_history(&mut self, recent: &[BranchEvent]) {
                match self {
                    $(AnyPredictor::$v(p) => p.rewind_history(recent),)*
                }
            }

            fn predict_store_wait(
                &mut self,
                pc: u64,
                store_seq: u64,
            ) -> Option<mascot::StoreDistance> {
                match self {
                    $(AnyPredictor::$v(p) => p.predict_store_wait(pc, store_seq),)*
                }
            }

            fn on_store_dispatch(&mut self, pc: u64, store_seq: u64) {
                match self {
                    $(AnyPredictor::$v(p) => p.on_store_dispatch(pc, store_seq),)*
                }
            }

            fn bypass_supports_offset(&self) -> bool {
                match self {
                    $(AnyPredictor::$v(p) => p.bypass_supports_offset(),)*
                }
            }

            fn storage_bits(&self) -> u64 {
                match self {
                    $(AnyPredictor::$v(p) => p.storage_bits(),)*
                }
            }

            fn end_tuning_period(&mut self) {
                match self {
                    $(AnyPredictor::$v(p) => p.end_tuning_period(),)*
                }
            }
        }
    };
}

// The snapshot tags are part of the persisted format, so they are frozen:
// renumbering a row breaks every existing snapshot.
any_predictor! {
    /// MASCOT (MDP + SMB), or the Fig. 11 ablation when built without
    /// non-dependence allocation.
    Mascot(Mascot) = 0, meta: Mascot;
    /// MASCOT used for MDP only (Fig. 9).
    MascotMdp(MascotMdpOnly) = 1, meta: Mascot;
    /// PHAST (Kim & Ros 2024).
    Phast(Phast) = 2, meta: Phast;
    /// NoSQ-style GShare MDP/SMB predictor.
    NoSq(NoSq) = 3, meta: NoSq;
    /// Historical MDP-TAGE baseline (§II).
    MdpTage(MdpTage) = 4, meta: MdpTage;
    /// Store Sets (Chrysos & Emer 1998).
    StoreSets(StoreSets) = 5, meta: Unit;
    /// Perfect memory-dependence oracle (no bypassing).
    PerfectMdp(PerfectMdp) = 6, meta: Unit;
    /// Perfect memory-dependence + bypassing oracle.
    PerfectMdpSmb(PerfectMdpSmb) = 7, meta: Unit;
    /// MASCOT behind keyed index randomization (DESIGN.md §12).
    RandomizedMascot(RandomizedMascot) = 8, meta: Mascot;
}

// The serve event loop owns the shard pool and `Server::spawn` moves it
// onto the loop thread; keep the enum (and thus every wrapped predictor)
// `Send` + `'static`.
const _: () = {
    const fn assert_send_static<T: Send + 'static>() {}
    assert_send_static::<AnyPredictor>();
};

impl AnyPredictor {
    /// The wrapped MASCOT instance, if this is a MASCOT-family predictor
    /// (used by the Figs. 13–14 tuning reports).
    pub fn as_mascot(&self) -> Option<&Mascot> {
        match self {
            AnyPredictor::Mascot(m) => Some(m),
            AnyPredictor::MascotMdp(m) => Some(m.inner()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mascot::config::MascotConfig;

    /// One default-built instance of every variant, in snapshot-tag order.
    fn one_of_each() -> [AnyPredictor; 9] {
        [
            AnyPredictor::Mascot(Mascot::new(MascotConfig::default()).unwrap()),
            AnyPredictor::MascotMdp(MascotMdpOnly::new(MascotConfig::default()).unwrap()),
            AnyPredictor::Phast(Phast::default()),
            AnyPredictor::NoSq(NoSq::default()),
            AnyPredictor::MdpTage(MdpTage::default()),
            AnyPredictor::StoreSets(StoreSets::default()),
            AnyPredictor::PerfectMdp(PerfectMdp::new()),
            AnyPredictor::PerfectMdpSmb(PerfectMdpSmb::new()),
            AnyPredictor::RandomizedMascot(RandomizedMascot::new(MascotConfig::default()).unwrap()),
        ]
    }

    /// Every prediction's metadata is copied from predict to train (the
    /// functional warm-up, the simulator's load entries, batch outputs, the
    /// serve shard's meta slab); at 136 bytes those copies went through
    /// `memcpy`. Grow the record only as a measured decision.
    #[test]
    fn prediction_metadata_stays_small() {
        let why = "per-load metadata grew past 80 bytes; measure the predict→train \
                   copies before raising MAX_TABLES (DESIGN.md §9)";
        assert!(std::mem::size_of::<AnyMeta>() <= 80, "{why}");
        assert!(
            std::mem::size_of::<(MemDepPrediction, AnyMeta)>() <= 80,
            "{why}"
        );
    }

    #[test]
    fn names_are_distinct() {
        let ps = one_of_each();
        let names: std::collections::HashSet<_> = ps.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), ps.len());
    }

    #[test]
    fn snapshot_tags_are_frozen() {
        for (tag, p) in one_of_each().iter().enumerate() {
            assert_eq!(p.snapshot_bytes()[0], tag as u8, "{}", p.name());
        }
    }

    #[test]
    fn dispatch_roundtrip() {
        let mut p = AnyPredictor::Phast(Phast::default());
        let (pred, meta) = p.predict(0x100, 0, None);
        assert_eq!(pred, MemDepPrediction::NoDependence);
        p.train(0x100, meta, pred, &LoadOutcome::independent());
    }

    #[test]
    fn ablation_is_named_through_any() {
        let p = AnyPredictor::Mascot(
            Mascot::without_non_dependence_allocation(MascotConfig::default()).unwrap(),
        );
        assert_eq!(p.name(), "tage-no-nd");
    }

    use mascot::history::BranchKind;
    use mascot::prediction::{BypassClass, ObservedDependence, StoreDistance};

    fn drive(p: &mut AnyPredictor, rounds: u64, salt: u64) {
        let mut rng = 0x243f_6a88_85a3_08d3_u64 ^ salt;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut store_seq = 0u64;
        for r in 0..rounds {
            p.on_branch(&BranchEvent {
                pc: 0x600 + (r % 32) * 4,
                kind: BranchKind::Conditional,
                taken: r % 3 != 0,
                target: 0,
            });
            let store_pc = 0x7000 + (next() % 16) * 8;
            p.on_store_dispatch(store_pc, store_seq);
            store_seq += 1;
            let pc = 0x4000 + (next() % 24) * 4;
            let (pred, meta) = p.predict(pc, store_seq, None);
            let outcome = if next() % 3 == 0 {
                LoadOutcome::independent()
            } else {
                LoadOutcome::dependent(ObservedDependence {
                    distance: StoreDistance::new(1 + (next() % 7) as u32).unwrap(),
                    class: BypassClass::DirectBypass,
                    store_pc,
                    branches_between: (next() % 4) as u32,
                })
            };
            p.train(pc, meta, pred, &outcome);
        }
    }

    #[test]
    fn snapshot_roundtrip_every_kind() {
        use crate::kind::PredictorKind;
        for kind in PredictorKind::ALL {
            let mut p = kind.build();
            drive(&mut p, 300, 0x11);
            let bytes = p.snapshot_bytes();
            let mut q = AnyPredictor::from_snapshot_bytes(&bytes)
                .unwrap_or_else(|e| panic!("{kind:?}: restore failed: {e}"));
            assert_eq!(q.snapshot_bytes(), bytes, "{kind:?}: re-encode differs");
            assert_eq!(q.entry_count(), p.entry_count(), "{kind:?}");
            drive(&mut p, 150, 0x22);
            drive(&mut q, 150, 0x22);
            assert_eq!(
                q.snapshot_bytes(),
                p.snapshot_bytes(),
                "{kind:?}: diverged after identical post-restore traffic"
            );
        }
    }

    #[test]
    fn snapshot_decode_rejects_bad_variants() {
        assert!(AnyPredictor::from_snapshot_bytes(&[]).is_err());
        assert!(AnyPredictor::from_snapshot_bytes(&[0xff]).is_err());
        // A stateless oracle body must be exactly empty.
        assert!(AnyPredictor::from_snapshot_bytes(&[6, 0]).is_err());
        let mut p = AnyPredictor::StoreSets(StoreSets::default());
        drive(&mut p, 50, 0x33);
        let bytes = p.snapshot_bytes();
        for cut in [1, 2, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                AnyPredictor::from_snapshot_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn merge_rejects_kind_mismatch() {
        let ps = one_of_each();
        for (i, a) in ps.iter().enumerate() {
            for (j, b) in ps.iter().enumerate() {
                let merged = a.clone().merge_from(b);
                assert_eq!(merged.is_ok(), i == j, "{} <- {}", a.name(), b.name());
            }
        }
        let mut o = AnyPredictor::PerfectMdp(PerfectMdp::new());
        assert_eq!(
            o.merge_from(&AnyPredictor::PerfectMdp(PerfectMdp::new()))
                .unwrap(),
            0
        );
    }

    #[test]
    fn as_mascot_exposes_family_members() {
        let m = AnyPredictor::Mascot(Mascot::new(MascotConfig::default()).unwrap());
        assert!(m.as_mascot().is_some());
        let p = AnyPredictor::Phast(Phast::default());
        assert!(p.as_mascot().is_none());
    }
}
