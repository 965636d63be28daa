//! Baseline memory-dependence and bypassing predictors evaluated against
//! MASCOT in §VI of the paper, plus oracles and runtime dispatch.
//!
//! * [`StoreSets`] — Chrysos & Emer's Store Sets (18.5 KB, Table II).
//! * [`NoSq`] — a NoSQ-style GShare MDP/SMB predictor (19 KB).
//! * [`Phast`] — Kim & Ros's PHAST (14.5 KB), the state-of-the-art MDP
//!   baseline.
//! * [`MdpTage`] — the historical Perais/Seznec TAGE-for-MDP augmentation
//!   (§II), with its 3-bit distance and single usefulness bit.
//! * [`PerfectMdp`] / [`PerfectMdpSmb`] — trace-oracle baselines used for
//!   normalisation.
//! * [`RandomizedMascot`] — MASCOT behind keyed index randomization and
//!   noisy bypass confidence, the SPOILER-GUARD-style mistraining defense
//!   (DESIGN.md §12).
//! * [`AnyPredictor`] — enum dispatch over every predictor kind for the
//!   benchmark harness, the serve shards and the audit tools.
//!
//! The Fig. 11 ablation ("TAGE without non-dependence allocation") is
//! constructed via [`mascot::Mascot::without_non_dependence_allocation`].
//!
//! [`PredictorKind`] is the runtime registry over all of the above: it
//! names, parses, and builds each configuration for the harness and for
//! the sharded `mascot-serve` service.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod any;
pub mod kind;
pub mod mdp_tage;
pub mod nosq;
pub mod oracle;
pub mod phast;
pub mod randomized;
pub mod store_sets;

pub use any::{AnyMeta, AnyPredictor};
pub use kind::{ParseKindError, PredictorKind};
pub use mdp_tage::{MdpTage, MdpTageConfig, MdpTageMeta};
pub use nosq::{NoSq, NoSqConfig, NoSqMeta};
pub use oracle::{PerfectMdp, PerfectMdpSmb};
pub use phast::{Phast, PhastConfig, PhastMeta};
pub use randomized::RandomizedMascot;
pub use store_sets::{StoreSets, StoreSetsConfig};
