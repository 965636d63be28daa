//! # MASCOT — Memory-dependence And Short-Circuit Optimising TAGE
//!
//! A faithful reproduction of the predictor proposed in *"MASCOT: Predicting
//! Memory Dependencies and Opportunities for Speculative Memory Bypassing"*
//! (HPCA 2025). MASCOT is a TAGE-like predictor that unifies
//! **memory-dependence prediction (MDP)** and **speculative memory bypassing
//! (SMB)** in a single 14 KiB structure by learning *context-dependent
//! non-dependencies* alongside load–store dependencies.
//!
//! ## Quick start
//!
//! ```
//! use mascot::{Mascot, MascotConfig, MemDepPredictor, MemDepPrediction};
//! use mascot::{BypassClass, LoadOutcome, ObservedDependence, StoreDistance};
//!
//! let mut predictor = Mascot::new(MascotConfig::default())?;
//!
//! // A load at PC 0x401000 turns out to depend on the store 2 back.
//! let pc = 0x40_1000;
//! let (prediction, meta) = predictor.predict(pc, 0, None);
//! assert_eq!(prediction, MemDepPrediction::NoDependence); // cold
//!
//! let outcome = LoadOutcome::dependent(ObservedDependence {
//!     distance: StoreDistance::new(2).expect("in range"),
//!     class: BypassClass::DirectBypass,
//!     store_pc: 0x40_0ff0,
//!     branches_between: 1,
//! });
//! predictor.train(pc, meta, prediction, &outcome);
//!
//! // The dependence is learned after a single mispredict.
//! let (next, _) = predictor.predict(pc, 0, None);
//! assert!(next.is_dependence());
//! # Ok::<(), mascot::ConfigError>(())
//! ```
//!
//! ## Crate layout
//!
//! * [`predictor::Mascot`] — the predictor itself, including the §IV-C
//!   try-again allocation policy and §IV-D non-dependence tracking.
//! * [`mdp_only::MascotMdpOnly`] — the MDP-only variant of Fig. 9.
//! * [`config::MascotConfig`] — geometry presets: the default 14 KiB
//!   configuration, MASCOT-OPT and the Fig. 15 tag-reduction sweep.
//! * [`history`] — branch events and the TAGE folded-history registers.
//! * [`table`] — the generic set-associative tagged table in
//!   struct-of-arrays layout.
//! * [`tagged`] — [`tagged::TaggedTables`], the bank of history-indexed
//!   tables plus the global history they fold, shared by MASCOT, the
//!   baseline predictors and the simulator's TAGE branch predictor.
//! * [`tuning`] — §IV-F per-slot F1 instrumentation (Figs. 13–14).
//! * [`prediction`] — the [`MemDepPredictor`] trait and shared vocabulary
//!   types used by the simulator and every baseline predictor.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod entry;
pub mod history;
pub mod mdp_only;
pub mod prediction;
pub mod predictor;
pub mod table;
pub mod tagged;
pub mod tuning;

pub use config::{ConfigError, MascotConfig};
pub use entry::MascotEntry;
pub use history::{BranchEvent, BranchKind};
pub use mdp_only::MascotMdpOnly;
pub use prediction::{
    BypassClass, GroundTruth, LoadOutcome, MemDepPrediction, MemDepPredictor,
    ObservedDependence, PredictReq, StoreDistance, TrainReq,
};
pub use predictor::{Mascot, MascotMeta, MascotStats};
pub use tuning::TuningState;
