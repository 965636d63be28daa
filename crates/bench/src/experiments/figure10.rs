//! Fig. 10: distribution of MASCOT's prediction and misprediction types
//! per benchmark.
//!
//! Left panel: fractions of loads predicted no-dependence / MDP / SMB (over
//! 80 % of predictions are "no dependence" in the paper). Right panel: the
//! misprediction mix (SMB mispredictions stay rare thanks to the saturated
//! confidence requirement; *mcf* is the outlier).

use crate::{table::frac_pct, PredictorKind, Run, TextTable};
use mascot_sim::CoreConfig;
use mascot_workloads::spec;

pub fn run(run: &Run) {
    let profiles = spec::all_profiles();
    let results = run.suite(
        &profiles,
        &[PredictorKind::Mascot],
        &CoreConfig::golden_cove(),
    );
    let mut preds = TextTable::new(["benchmark", "no-dep", "mdp", "smb"]);
    let mut mis = TextTable::new([
        "benchmark",
        "missed dep",
        "false dep",
        "wrong store",
        "smb error",
        "total",
    ]);
    let mut agg = [0.0f64; 3];
    for r in &results {
        let s = &r.stats;
        let loads = (s.pred_no_dep + s.pred_mdp + s.pred_smb).max(1) as f64;
        let f = [
            s.pred_no_dep as f64 / loads,
            s.pred_mdp as f64 / loads,
            s.pred_smb as f64 / loads,
        ];
        for (a, v) in agg.iter_mut().zip(f) {
            *a += v;
        }
        preds.row([
            r.benchmark.clone(),
            frac_pct(f[0]),
            frac_pct(f[1]),
            frac_pct(f[2]),
        ]);
        let total = s.total_mispredictions().max(1) as f64;
        mis.row([
            r.benchmark.clone(),
            frac_pct(s.missed_dependencies as f64 / total),
            frac_pct(s.false_dependencies as f64 / total),
            frac_pct(s.wrong_store as f64 / total),
            frac_pct(s.smb_errors as f64 / total),
            s.total_mispredictions().to_string(),
        ]);
    }
    let n = results.len() as f64;
    preds.row([
        "MEAN".to_string(),
        frac_pct(agg[0] / n),
        frac_pct(agg[1] / n),
        frac_pct(agg[2] / n),
    ]);
    println!(
        "== Fig. 10 (left) — MASCOT prediction types ==\n{}",
        preds.render()
    );
    println!("paper: over 80% of all predictions are no-dependence\n");
    println!(
        "== Fig. 10 (right) — MASCOT misprediction types ==\n{}",
        mis.render()
    );
}
