//! Fig. 13: distribution of MASCOT predictions across its tables.
//!
//! "Base" is the default non-dependence prediction when no table hits.
//! The paper observes most non-base predictions come from the short-history
//! tables, with table 1 heavily used.

use crate::{run_with_predictor, table::frac_pct, PredictorKind, Run, TextTable};
use mascot::MemDepPredictor;
use mascot_sim::CoreConfig;
use mascot_workloads::spec;

/// Prints each table's share of MASCOT's predictions. The cells simulate
/// the whole trace, also under a sampled [`Run`]: the counts are read from
/// the predictor after the run.
pub fn run(run: &Run) {
    let profiles = spec::all_profiles();
    let core = CoreConfig::golden_cove();
    let mut per_table = [0u64; 8];
    let mut base = 0u64;
    let mut rows: Vec<(String, Vec<u64>, u64)> = Vec::new();
    for profile in &profiles {
        let mut p = PredictorKind::Mascot.build();
        let _ = run_with_predictor(profile, &mut p, &core, run.uops, run.seed, None);
        let m = p.as_mascot().expect("mascot predictor");
        let stats = m.stats();
        for (acc, v) in per_table.iter_mut().zip(&stats.table_predictions) {
            *acc += v;
        }
        base += stats.base_predictions;
        rows.push((
            profile.name.to_string(),
            stats.table_predictions.clone(),
            stats.base_predictions,
        ));
        let _ = m.storage_bits();
    }
    let mut t = TextTable::new([
        "benchmark",
        "base",
        "T1(h0)",
        "T2(h2)",
        "T3(h4)",
        "T4(h8)",
        "T5(h16)",
        "T6(h32)",
        "T7(h64)",
        "T8(h128)",
    ]);
    for (name, tables, b) in &rows {
        let total = (tables.iter().sum::<u64>() + b).max(1) as f64;
        let mut cells = vec![name.clone(), frac_pct(*b as f64 / total)];
        cells.extend(tables.iter().map(|&v| frac_pct(v as f64 / total)));
        t.row(cells);
    }
    let total = (per_table.iter().sum::<u64>() + base).max(1) as f64;
    let mut cells = vec!["TOTAL".to_string(), frac_pct(base as f64 / total)];
    cells.extend(per_table.iter().map(|&v| frac_pct(v as f64 / total)));
    t.row(cells);
    println!("== Fig. 13 — share of predictions provided by each MASCOT table ==");
    println!("{}", t.render());
    println!("paper shape: the base prediction dominates; among table hits, short-history tables provide most predictions");
}
