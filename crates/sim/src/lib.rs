//! # mascot-sim — cycle-level out-of-order core simulator
//!
//! The evaluation substrate of the MASCOT reproduction: a trace-driven,
//! cycle-level model of a Golden-Cove-class out-of-order core (Table I of
//! the paper) with a multi-level cache hierarchy, TAGE branch prediction,
//! a load-store queue with store-to-load forwarding and memory-order
//! violation detection, and speculative memory bypassing support.
//!
//! Plug any [`mascot::MemDepPredictor`] into [`simulate`]:
//!
//! ```
//! use mascot::{Mascot, MascotConfig};
//! use mascot_sim::{simulate, CoreConfig, Trace, Uop};
//!
//! let trace = Trace::new("demo", vec![
//!     Uop::store(0x0, 0x100, 8, None, None),
//!     Uop::load(0x4, 0x100, 8, None, 1, None),
//! ]);
//! let mut predictor = Mascot::new(MascotConfig::default())?;
//! let stats = simulate(&trace, &CoreConfig::golden_cove(), &mut predictor);
//! assert_eq!(stats.committed_uops, 2);
//! # Ok::<(), mascot::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod branch;
pub mod cache;
pub mod codec;
pub mod config;
pub mod core;
pub mod fxhash;
pub mod stats;
pub mod uop;

pub use branch::{BranchPredictorConfig, BranchStats, TagePredictor};
pub use cache::{CacheLevel, CacheStats, Hierarchy};
pub use codec::CodecError;
pub use config::{CacheConfig, CoreConfig};
pub use core::{simulate, Fault, FunctionalWarmer, Simulator};
pub use fxhash::{FxHashMap, FxHashSet};
pub use stats::{SimStats, TenantCounters};
pub use uop::{ArchReg, Trace, TraceDep, Uop, UopBuf, UopIter, UopKind, UopSlice};

// Re-export the shared prediction vocabulary so trace producers do not need
// a direct `mascot` dependency.
pub use mascot::prediction::{BypassClass, GroundTruth, LoadOutcome, MemDepPredictor};
