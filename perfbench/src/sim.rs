//! `sim-alias` and `sim-chase`: full detailed simulations of one trace
//! from cold caches and a cold predictor, repeated for the run's time.

use std::time::Instant;

use mascot_predictors::PredictorKind;
use mascot_sim::{CoreConfig, SimStats, Simulator, Trace};

use crate::metrics::{peak_rss_mib, Report};
use crate::stats::{median, ratio};
use crate::traced::{PredictorCalls, Traced};
use crate::tracing::{SpanId, Tracer};
use crate::{generate_setups, RunCfg, MIN_REPS};

/// One detailed-simulation workload.
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    /// Workload profile of the trace.
    pub bench: &'static str,
    /// Predictor simulated.
    pub kind: PredictorKind,
    /// Trace length, uops.
    pub uops: usize,
}

/// Alias-heavy store chasing under MASCOT: the predictor-heavy workload.
pub const SIM_ALIAS: SimSpec = SimSpec {
    bench: "perlbench2",
    kind: PredictorKind::Mascot,
    uops: 1_000_000,
};

/// Low-IPC pointer chasing under Store Sets: the core- and cache-heavy
/// workload, where a predictor change should not show.
pub const SIM_CHASE: SimSpec = SimSpec {
    bench: "mcf",
    kind: PredictorKind::StoreSets,
    uops: 1_000_000,
};

/// One simulation of a trace, plain or through the timing wrapper.
#[derive(Debug)]
pub struct SimRun {
    /// The run's statistics.
    pub stats: SimStats,
    /// Host time of `Simulator::new(..).run()`, seconds.
    pub wall_s: f64,
    /// Predictor call aggregates (traced runs only).
    pub calls: Option<PredictorCalls>,
}

/// Simulates `trace` with a freshly built `kind` predictor, recording the
/// run as a `simulate` span under `parent`.
pub fn simulate_once(
    trace: &Trace,
    core: &CoreConfig,
    kind: PredictorKind,
    traced: bool,
    tracer: &mut Tracer,
    parent: SpanId,
) -> SimRun {
    let mut pred = kind.build();
    if traced {
        let mut wrapped = Traced::new(pred);
        let span = tracer.open("simulate", parent);
        let stats = Simulator::new(trace, core, &mut wrapped).run();
        let wall_s = tracer.close(span).as_secs_f64();
        let calls = wrapped.calls().clone();
        tracer.merge_agg("predictors.predict", &calls.predict);
        tracer.merge_agg("predictors.train", &calls.train);
        tracer.merge_agg("predictors.history", &calls.history);
        SimRun {
            stats,
            wall_s,
            calls: Some(calls),
        }
    } else {
        let span = tracer.open("simulate", parent);
        let stats = Simulator::new(trace, core, &mut pred).run();
        let wall_s = tracer.close(span).as_secs_f64();
        SimRun {
            stats,
            wall_s,
            calls: None,
        }
    }
}

/// Checks one run against the identities and the reference run.
pub fn check_run(report: &mut Report, run: &SimRun, reference: &SimStats, what: &str) -> bool {
    let before = report.failures.len();
    if let Err(e) = run.stats.check_identities() {
        report
            .failures
            .push(format!("{what}: SimStats identity violated: {e}"));
    }
    report.check(run.stats == *reference, || {
        format!("{what}: SimStats differ from the first untraced run")
    });
    report.failures.len() == before
}

/// Per-layer metrics of the predictor and the sim core from traced runs.
pub fn layer_metrics(report: &mut Report, stats: &SimStats, traced: &[SimRun]) {
    let calls: Vec<&PredictorCalls> = traced.iter().filter_map(|r| r.calls.as_ref()).collect();
    let Some(first) = calls.first() else {
        return;
    };
    let med = |f: &dyn Fn(&SimRun, &PredictorCalls) -> f64| -> f64 {
        let v: Vec<f64> = traced
            .iter()
            .filter_map(|r| r.calls.as_ref().map(|c| f(r, c)))
            .collect();
        median(&v)
    };
    let self_s = med(&|r, c| r.wall_s - c.total_ns() as f64 * 1e-9);
    let l = &mut report.layers;
    l.insert("predictors.predict_calls", first.predict.count as f64);
    l.insert("predictors.train_calls", first.train.count as f64);
    l.insert("predictors.history_calls", first.history.count as f64);
    l.insert(
        "predictors.predict_ns",
        med(&|_, c| c.predict.total_ns as f64),
    );
    l.insert("predictors.train_ns", med(&|_, c| c.train.total_ns as f64));
    l.insert(
        "predictors.history_ns",
        med(&|_, c| c.history.total_ns as f64),
    );
    l.insert(
        "predictors.share",
        med(&|r, c| c.total_ns() as f64 * 1e-9 / r.wall_s),
    );
    l.insert("sim.self_s", self_s);
    l.insert(
        "sim.self_ns_per_uop",
        ratio(self_s * 1e9, stats.committed_uops as f64),
    );
    l.insert(
        "sim.host_ns_per_cycle",
        ratio(self_s * 1e9, stats.cycles as f64),
    );
    l.insert("sim.cycles", stats.cycles as f64);
    l.insert(
        "sim.squashes",
        (stats.mem_order_squashes + stats.smb_squashes + stats.branch_mispredicts) as f64,
    );
    l.insert("sim.dispatch_stalls", stats.total_dispatch_stalls() as f64);
    l.insert("sim.l1d_misses", stats.l1d_misses as f64);
    l.insert("sim.l3_misses", stats.l3_misses as f64);
    l.insert("sim.loads_bypassed", stats.loads_bypassed as f64);
    l.insert("sim.ipc", stats.ipc());
    l.insert("sim.mdp_mpki", stats.mdp_mpki());
}

/// Runs a detailed-simulation workload.
pub fn run(spec: &SimSpec, cfg: &RunCfg, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let uops = cfg.uops.unwrap_or(spec.uops);
    let core = CoreConfig::golden_cove();
    let root = tracer.open("workload", 0);

    let (setup_s, generate_s, trace, ()) =
        generate_setups(spec.bench, cfg.seed, uops, tracer, root, |_| {
            std::hint::black_box(spec.kind.build());
        });

    let measure = tracer.open("measure", root);
    let start = Instant::now();
    let mut reference: Option<SimStats> = None;
    let (mut plain, mut traced): (Vec<SimRun>, Vec<SimRun>) = (Vec::new(), Vec::new());
    let mut rep_walls = Vec::new();
    let min_reps = if cfg.traced { 2 * MIN_REPS } else { MIN_REPS };
    while plain.len() + traced.len() < min_reps || start.elapsed().as_secs_f64() < cfg.seconds {
        // Traced runs alternate with plain ones so both see the same noise.
        let trace_this = cfg.traced && plain.len() > traced.len();
        let rep = tracer.open(if trace_this { "rep_traced" } else { "rep" }, measure);
        let run = simulate_once(&trace, &core, spec.kind, trace_this, tracer, rep);
        let reference = reference.get_or_insert_with(|| run.stats.clone());
        report.attempted += 1;
        let what = if trace_this { "traced run" } else { "run" };
        if !check_run(&mut report, &run, reference, what) {
            report.failed += 1;
        }
        let rep_wall = tracer.close(rep).as_secs_f64();
        if trace_this {
            rep_walls.push(rep_wall);
            traced.push(run);
        } else {
            plain.push(run);
        }
    }
    tracer.close(measure);
    tracer.close(root);
    let stats = reference.expect("at least one run");

    let wall: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
    let wall_med = median(&wall);
    let e = &mut report.e2e;
    e.insert("setup_s", setup_s);
    e.insert("throughput_per_s", stats.committed_uops as f64 / wall_med);
    e.insert("op_p50_us", wall_med * 1e6);
    e.insert("peak_rss_mib", peak_rss_mib());

    report.line(
        "sim_uops_per_s",
        stats.committed_uops as f64 / wall_med,
        "uops/s",
    );
    report.line("ipc", stats.ipc(), "uops/cycle");
    report.line("mdp_mpki", stats.mdp_mpki(), "mpki");
    report.line("runs", plain.len() as f64, "count");

    if cfg.traced {
        report.layers.insert("workloads.generate_s", generate_s);
        layer_metrics(&mut report, &stats, &traced);
        let traced_wall: Vec<f64> = traced.iter().map(|r| r.wall_s).collect();
        let overhead = median(&traced_wall) / wall_med - 1.0;
        // Reconcile one traced repetition: its wall time against the
        // predictor and sim-core self times inside it.
        let n = traced.len() as f64;
        let rep_wall = rep_walls.iter().sum::<f64>() / n;
        let pred_s = traced
            .iter()
            .filter_map(|r| r.calls.as_ref())
            .map(|c| c.total_ns() as f64 * 1e-9)
            .sum::<f64>()
            / n;
        let sim_s = traced.iter().map(|r| r.wall_s).sum::<f64>() / n - pred_s;
        crate::reconcile(
            &mut report,
            rep_wall,
            &[("predictors", pred_s), ("sim", sim_s)],
            overhead,
        );
    }
    report
}
