//! Fig. 2: percentage of loads with a dependence on an in-flight prior
//! store, split by bypass class.
//!
//! Runs every benchmark under the perfect-MDP predictor (the census does not
//! depend on the predictor; perfect MDP avoids squash noise) and prints the
//! per-class fractions of committed loads.

use crate::{table::frac_pct, PredictorKind, Run, TextTable};
use mascot::BypassClass;
use mascot_sim::CoreConfig;
use mascot_workloads::spec;

pub fn run(run: &Run) {
    let profiles = spec::all_profiles();
    let results = run.suite(
        &profiles,
        &[PredictorKind::PerfectMdp],
        &CoreConfig::golden_cove(),
    );
    let mut t = TextTable::new([
        "benchmark",
        "DirectBypass",
        "NoOffset",
        "Offset",
        "MDP only",
        "any dependence",
    ]);
    let mut sums = [0.0f64; 5];
    for r in &results {
        let s = &r.stats;
        let cols = [
            s.class_fraction(BypassClass::DirectBypass),
            s.class_fraction(BypassClass::NoOffset),
            s.class_fraction(BypassClass::Offset),
            s.class_fraction(BypassClass::MdpOnly),
            s.dependent_load_fraction(),
        ];
        for (acc, v) in sums.iter_mut().zip(cols) {
            *acc += v;
        }
        t.row([
            r.benchmark.clone(),
            frac_pct(cols[0]),
            frac_pct(cols[1]),
            frac_pct(cols[2]),
            frac_pct(cols[3]),
            frac_pct(cols[4]),
        ]);
    }
    let n = results.len() as f64;
    t.row([
        "MEAN".to_string(),
        frac_pct(sums[0] / n),
        frac_pct(sums[1] / n),
        frac_pct(sums[2] / n),
        frac_pct(sums[3] / n),
        frac_pct(sums[4] / n),
    ]);
    println!("== Fig. 2 — loads with an in-flight store dependence, by class ==");
    println!("{}", t.render());
    println!(
        "paper shape: perlbench/lbm ~40% bypassable loads, bwaves/wrf ~5%; \
         the DirectBypass case dominates everywhere"
    );
}
