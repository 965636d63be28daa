//! The repository benchmark: four workloads that drive the workspace's
//! crates through their public functions, an untraced mode that measures
//! the end-to-end metrics, and a traced mode that times the calls into
//! each layer (`workloads`, `predictors`, `sim`, `sampling`, `wire`,
//! shard and server) and reports the tracing overhead.
//!
//! See `README.md` in this directory for what each workload and metric
//! means, and `main.rs` for the command line.

pub mod metrics;
pub mod sampled;
pub mod serve;
pub mod sim;
pub mod stats;
pub mod traced;
pub mod tracing;

use mascot_sim::Trace;
use mascot_workloads::{generate, spec};

use crate::metrics::Report;
use crate::stats::median;
use crate::tracing::{SpanId, Tracer};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["sim-alias", "sim-chase", "sampled-stream", "serve-loopback"];

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 2025;

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// Fewest measured repetitions per run (per mode in a traced run).
pub const MIN_REPS: usize = 3;

/// Settings of one benchmark run.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Measurement time, seconds.
    pub seconds: f64,
    /// Time the calls into each layer and print per-layer metrics.
    pub traced: bool,
    /// Trace length override, uops (small values for tests).
    pub uops: Option<usize>,
}

/// Runs workload `name`; `None` for an unknown name.
pub fn run_workload(name: &str, cfg: &RunCfg) -> Option<(Report, Tracer)> {
    let mut tracer = Tracer::new();
    let report = match name {
        "sim-alias" => sim::run(&sim::SIM_ALIAS, cfg, &mut tracer),
        "sim-chase" => sim::run(&sim::SIM_CHASE, cfg, &mut tracer),
        "sampled-stream" => sampled::run(cfg, &mut tracer),
        "serve-loopback" => serve::run(cfg, &mut tracer),
        _ => return None,
    };
    Some((report, tracer))
}

/// Times [`SETUP_REPS`] set-ups: each generates the `bench` trace from
/// `seed` (a real generation, never a cache hit) and then runs `extra` on
/// it. Returns the median set-up and generation times, the last trace
/// and the last value of `extra`.
pub fn generate_setups<T>(
    bench: &str,
    seed: u64,
    uops: usize,
    tracer: &mut Tracer,
    parent: SpanId,
    mut extra: impl FnMut(&Trace) -> T,
) -> (f64, f64, Trace, T) {
    let profile = spec::profile(bench).expect("workload profiles are built in");
    let (mut setup, mut gen) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Free the previous trace first so set-up never holds two.
        drop(last.take());
        let span = tracer.open("setup", parent);
        let g = tracer.open("generate", span);
        let trace = generate(&profile, seed, uops);
        gen.push(tracer.close(g).as_secs_f64());
        let value = extra(&trace);
        setup.push(tracer.close(span).as_secs_f64());
        last = Some((trace, value));
    }
    let (trace, value) = last.expect("at least one set-up");
    (median(&setup), median(&gen), trace, value)
}

/// Records the traced run's reconciliation: the wall time of one traced
/// repetition, the self times of the layers inside it, and the remainder
/// no layer accounts for, next to the tracing overhead and the measured
/// cost of one timer read.
pub fn reconcile(report: &mut Report, wall_s: f64, parts: &[(&str, f64)], overhead_frac: f64) {
    let sum: f64 = parts.iter().map(|(_, s)| s).sum();
    let rest = wall_s - sum;
    let l = &mut report.layers;
    l.insert("trace.wall_s", wall_s);
    l.insert("trace.layer_sum_s", sum);
    l.insert("trace.unattributed_s", rest);
    l.insert("trace.overhead_frac", overhead_frac);
    l.insert("trace.timer_ns", tracing::timer_cost_ns());
    let detail: Vec<String> = parts.iter().map(|(n, s)| format!("{n}={s:.6}")).collect();
    report.lines.push(format!(
        "reconcile: wall_s={wall_s:.6} layers_s={sum:.6} [{}] unattributed_s={rest:.6} \
         trace.overhead_frac={overhead_frac:.4}",
        detail.join(" ")
    ));
}
