//! Fig. 14: per-slot F1 scores, ranked within each MASCOT table (§IV-F).
//!
//! Runs MASCOT with tuning instrumentation across the suite, averages the
//! ranked F1 curves over benchmarks, and prints selected rank percentiles
//! per table. The paper reads the curves as: table 1's worst slots are still
//! useful (it could be larger), tables 5–8 have mostly idle slots (they can
//! shrink) — the observation behind MASCOT-OPT's sizing.

use crate::{run_with_predictor, Run, TextTable};
use mascot::config::MascotConfig;
use mascot::predictor::Mascot;
use mascot_predictors::AnyPredictor;
use mascot_sim::CoreConfig;
use mascot_workloads::spec;

/// Tuning period in cycles: the paper uses 1 M cycles on 100 M-instruction
/// SimPoints; we scale to our shorter traces.
const TUNING_PERIOD: u64 = 25_000;

/// Prints the ranked per-slot F1 curves and the sizing readout. The cells
/// simulate the whole trace, also under a sampled [`Run`]: the curves are
/// read from the predictor's tuning state after the run.
pub fn run(run: &Run) {
    let profiles = spec::all_profiles();
    let core = CoreConfig::golden_cove();
    let mut curves: Vec<Vec<f64>> = Vec::new(); // per table, rank-averaged
    let mut n_runs = 0.0;
    for profile in &profiles {
        let cfg = MascotConfig::default().with_tuning();
        let mut p = AnyPredictor::Mascot(Mascot::new(cfg).expect("valid preset"));
        let _ = run_with_predictor(
            profile,
            &mut p,
            &core,
            run.uops,
            run.seed,
            Some(TUNING_PERIOD),
        );
        let m = p.as_mascot().expect("mascot predictor");
        let tuning = m.tuning().expect("tuning enabled");
        let ranked = tuning.ranked_f1_all();
        if curves.is_empty() {
            curves = vec![vec![0.0; ranked[0].len()]; ranked.len()];
        }
        for (acc, r) in curves.iter_mut().zip(&ranked) {
            for (a, v) in acc.iter_mut().zip(r) {
                *a += v;
            }
        }
        n_runs += 1.0;
    }
    for c in &mut curves {
        for v in c.iter_mut() {
            *v /= n_runs;
        }
    }
    let ranks = [0usize, 15, 31, 63, 127, 255, 383, 511];
    let mut t = TextTable::new([
        "table", "rank 1", "rank 16", "rank 32", "rank 64", "rank 128", "rank 256", "rank 384",
        "rank 512",
    ]);
    for (i, c) in curves.iter().enumerate() {
        let mut cells = vec![format!(
            "T{} (h{})",
            i + 1,
            [0, 2, 4, 8, 16, 32, 64, 128][i]
        )];
        cells.extend(
            ranks
                .iter()
                .map(|&r| c.get(r).map_or("-".to_string(), |v| format!("{v:.3}"))),
        );
        t.row(cells);
    }
    println!("== Fig. 14 — averaged ranked per-slot F1 per table ==");
    println!("{}", t.render());

    // The §IV-F sizing readout: fraction of slots with any usefulness.
    let mut u = TextTable::new(["table", "slots with avg F1 >= 0.1", "sizing implication"]);
    for (i, c) in curves.iter().enumerate() {
        let useful = c.iter().filter(|&&v| v >= 0.1).count();
        let frac = useful as f64 / c.len() as f64;
        let implication = if frac > 0.75 {
            "could be larger"
        } else if frac < 0.35 {
            "can shrink"
        } else {
            "about right"
        };
        u.row([
            format!("T{}", i + 1),
            format!("{useful}/{} ({:.0}%)", c.len(), frac * 100.0),
            implication.to_string(),
        ]);
    }
    println!("{}", u.render());
    println!("paper conclusion: grow table 1, halve tables 5-7, quarter table 8 -> MASCOT-OPT");
}
