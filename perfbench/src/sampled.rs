//! `sampled-stream`: cold cluster-and-project sampled simulation of a
//! long streaming trace (`plan` → `warm_checkpoints` →
//! `run_sampled_with`, default `SamplingConfig`), against a full detailed
//! run of the same trace that is kept outside the timed region.

use std::time::Instant;

use mascot_predictors::PredictorKind;
use mascot_sampling::{plan, run_sampled_with, warm_checkpoints, SampledOutcome, SamplingConfig};
use mascot_sim::CoreConfig;

use crate::metrics::{peak_rss_mib, Report};
use crate::sim::{check_run, layer_metrics, simulate_once};
use crate::stats::median;
use crate::tracing::{SpanId, Tracer};
use crate::{generate_setups, RunCfg, MIN_REPS};

/// Workload profile of the trace.
pub const BENCH: &str = "bwaves";
/// Predictor simulated.
pub const KIND: PredictorKind = PredictorKind::Mascot;
/// Trace length, uops.
pub const UOPS: usize = 1_500_000;

/// Phase times of one sampled run, seconds.
#[derive(Debug, Clone, Copy)]
struct Phases {
    plan: f64,
    warm: f64,
    measure: f64,
}

impl Phases {
    fn total(&self) -> f64 {
        self.plan + self.warm + self.measure
    }
}

fn sampled_once(
    trace: &mascot_sim::Trace,
    core: &CoreConfig,
    tracer: &mut Tracer,
    parent: SpanId,
) -> (SampledOutcome, Phases) {
    let cfg = SamplingConfig::default();
    let span = tracer.open("plan", parent);
    let clusters = plan(trace, &cfg);
    let plan_s = tracer.close(span).as_secs_f64();
    let span = tracer.open("warm", parent);
    let warm = warm_checkpoints(trace, &clusters, KIND, core, &cfg);
    let warm_s = tracer.close(span).as_secs_f64();
    let span = tracer.open("measure_windows", parent);
    let out = run_sampled_with(trace, &clusters, &warm, core, &cfg);
    let measure_s = tracer.close(span).as_secs_f64();
    (
        out,
        Phases {
            plan: plan_s,
            warm: warm_s,
            measure: measure_s,
        },
    )
}

/// Runs the sampled-simulation workload.
pub fn run(cfg: &RunCfg, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let uops = cfg.uops.unwrap_or(UOPS);
    let core = CoreConfig::golden_cove();
    let root = tracer.open("workload", 0);

    let (setup_s, generate_s, trace, ()) =
        generate_setups(BENCH, cfg.seed, uops, tracer, root, |_| {
            std::hint::black_box(KIND.build());
        });

    // The full detailed reference, outside the timed region.
    let span = tracer.open("reference", root);
    let full = simulate_once(&trace, &core, KIND, false, tracer, span);
    let reference_s = tracer.close(span).as_secs_f64();
    let full_stats = full.stats.clone();
    report.attempted += 1;
    if !check_run(&mut report, &full, &full_stats, "reference run") {
        report.failed += 1;
    }
    let traced_full = cfg.traced.then(|| {
        let span = tracer.open("reference_traced", root);
        let run = simulate_once(&trace, &core, KIND, true, tracer, span);
        tracer.close(span);
        report.attempted += 1;
        if !check_run(&mut report, &run, &full_stats, "traced reference run") {
            report.failed += 1;
        }
        run
    });

    let measure = tracer.open("measure", root);
    let start = Instant::now();
    let mut first: Option<SampledOutcome> = None;
    let (mut plain, mut traced): (Vec<Phases>, Vec<Phases>) = (Vec::new(), Vec::new());
    let mut rep_walls = Vec::new();
    let min_reps = if cfg.traced { 2 * MIN_REPS } else { MIN_REPS };
    while plain.len() + traced.len() < min_reps || start.elapsed().as_secs_f64() < cfg.seconds {
        let trace_this = cfg.traced && plain.len() > traced.len();
        let rep = tracer.open(if trace_this { "rep_traced" } else { "rep" }, measure);
        let (out, phases) = sampled_once(&trace, &core, tracer, rep);
        report.attempted += 1;
        let before = report.failures.len();
        report.check(out.projected.committed_uops == trace.len() as u64, || {
            format!(
                "projected committed_uops {} != trace length {}",
                out.projected.committed_uops,
                trace.len()
            )
        });
        let first = first.get_or_insert_with(|| out.clone());
        report.check(out == *first, || {
            "sampled outcome differs between runs".into()
        });
        if report.failures.len() > before {
            report.failed += 1;
        }
        let rep_wall = tracer.close(rep).as_secs_f64();
        if trace_this {
            rep_walls.push(rep_wall);
            traced.push(phases);
        } else {
            plain.push(phases);
        }
    }
    tracer.close(measure);
    tracer.close(root);
    let out = first.expect("at least one sampled run");

    let totals: Vec<f64> = plain.iter().map(Phases::total).collect();
    let wall_med = median(&totals);
    let represented = out.represented_uops as f64;
    let projected_ipc = out.projected.ipc();
    let ipc_err = (projected_ipc - full_stats.ipc()).abs() / full_stats.ipc();
    let e = &mut report.e2e;
    e.insert("setup_s", setup_s);
    e.insert("throughput_per_s", represented / wall_med);
    e.insert("op_p50_us", wall_med * 1e6);
    e.insert("peak_rss_mib", peak_rss_mib());

    report.line("sampled_uops_per_s", represented / wall_med, "uops/s");
    report.line("ipc", projected_ipc, "uops/cycle");
    report.line("ipc_full", full_stats.ipc(), "uops/cycle");
    report.line("ipc_err", ipc_err, "frac");
    report.line("mdp_mpki", out.projected.mdp_mpki(), "mpki");
    report.line("runs", plain.len() as f64, "count");

    if let Some(full_traced) = traced_full {
        let l = &mut report.layers;
        l.insert("workloads.generate_s", generate_s);
        let med = |f: fn(&Phases) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        let (plan_s, warm_s, measure_s) = (med(|p| p.plan), med(|p| p.warm), med(|p| p.measure));
        l.insert("sampling.plan_s", plan_s);
        l.insert("sampling.warm_s", warm_s);
        l.insert("sampling.measure_s", measure_s);
        l.insert("sampling.reference_s", reference_s);
        l.insert("sampling.simulated_uops", out.simulated_uops as f64);
        l.insert("sampling.warmed_uops", out.warmed_uops as f64);
        l.insert("sampling.clusters", out.plan.clusters.len() as f64);
        l.insert(
            "sampling.detail_frac",
            out.simulated_uops as f64 / represented,
        );
        l.insert("sampling.ipc_err", ipc_err);
        // The predictor and sim-core layers, from the traced reference.
        layer_metrics(&mut report, &full_stats, std::slice::from_ref(&full_traced));
        let overhead = med(Phases::total) / wall_med - 1.0;
        let n = traced.len() as f64;
        let mean = |f: fn(&Phases) -> f64| traced.iter().map(f).sum::<f64>() / n;
        crate::reconcile(
            &mut report,
            rep_walls.iter().sum::<f64>() / n,
            &[
                ("sampling.plan", mean(|p| p.plan)),
                ("sampling.warm", mean(|p| p.warm)),
                ("sampling.measure", mean(|p| p.measure)),
            ],
            overhead,
        );
    }
    report
}
