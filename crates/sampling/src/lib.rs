//! # mascot-sampling — cluster-and-project sampled simulation
//!
//! Simulating a trace end to end costs wall-clock proportional to its
//! length; every evaluation axis in this repository (figures, ablations,
//! adversarial sweeps, snapshot differentials) is bottlenecked by it. The
//! Memory Access Vectors line of work (PAPERS.md) shows that *sampled* CPU
//! simulation stays faithful when the sampled intervals are chosen by
//! memory-access behaviour rather than position in time. This crate
//! applies that recipe to the MASCOT substrate (DESIGN.md §13):
//!
//! 1. **Slice** the trace into fixed-size intervals
//!    ([`mascot_workloads::intervals`]).
//! 2. **Fingerprint** each interval with a memory-access-vector signature
//!    ([`fingerprint`](mod@fingerprint)): log2 store-distance histogram, alias and
//!    dependence-class rates, load/store/branch mix, branch entropy,
//!    data footprint.
//! 3. **Cluster** the fingerprints with a seeded, deterministic k-means
//!    ([`kmeans`](mod@kmeans)) — same trace and seed always produce bit-identical
//!    assignments.
//! 4. **Simulate** one representative interval per cluster, each primed by
//!    a warm-up prefix, in parallel across worker threads ([`pool`], the
//!    same scoped pool the bench harness runs suites on).
//! 5. **Project** full-trace [`mascot_sim::SimStats`] as cluster-weighted
//!    sums ([`pipeline::project`]), with error bars against occasional
//!    full reference runs ([`mascot_stats::projection`]).
//!
//! ```no_run
//! use mascot_predictors::PredictorKind;
//! use mascot_sampling::{run_sampled, SamplingConfig};
//! use mascot_sim::CoreConfig;
//! use mascot_workloads::{generate, spec};
//!
//! let profile = spec::profile("perlbench2").expect("known benchmark");
//! let trace = generate(&profile, 2025, 1_500_000);
//! let out = run_sampled(
//!     &trace,
//!     PredictorKind::Mascot,
//!     &CoreConfig::golden_cove(),
//!     &SamplingConfig::default(),
//! );
//! println!(
//!     "projected IPC {:.3} from {} of {} uops",
//!     out.projected.ipc(),
//!     out.simulated_uops,
//!     trace.len()
//! );
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fingerprint;
pub mod kmeans;
pub mod pipeline;
pub mod pool;

pub use fingerprint::{fingerprint, Fingerprint, FINGERPRINT_DIMS};
pub use kmeans::{kmeans, KmeansResult};
pub use pipeline::{
    plan, run_sampled, run_sampled_with, warm_checkpoints, Cluster, ClusterPlan, SampledOutcome,
    SamplingConfig, WarmSet,
};
pub use pool::parallel_map;
