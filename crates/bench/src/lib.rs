//! # mascot-bench — the experiment harness
//!
//! Regenerates every table and figure of the MASCOT paper's evaluation.
//! Each experiment in [`experiments`] runs the relevant (benchmark ×
//! predictor × core) sweep through the [`harness`] and prints the same
//! rows/series the paper reports. The `all_experiments` binary runs them
//! in one process, by name (`all_experiments figure07`) or all in order;
//! `--sampled` projects every cell from representative intervals.
//!
//! See DESIGN.md §3 for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured results.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod harness;
pub mod json;
pub mod table;

pub use harness::{
    benchmarks, cached_sampling_prep, cached_trace, find, geomean_normalized_ipc, normalized_ipc,
    run_one, run_one_sampled, run_trace, run_with_predictor, PredictorKind, Run, RunResult,
    SampledRunResult, SamplingConfig, SamplingPrep, DEFAULT_SEED, DEFAULT_TRACE_UOPS,
};
pub use table::TextTable;
