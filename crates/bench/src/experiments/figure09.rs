//! Fig. 9: MDP-only comparison — Store Sets, PHAST and MDP-only MASCOT,
//! normalised to perfect MDP.
//!
//! Paper headline: MASCOT-MDP out-performs Store Sets by 6.2 % and PHAST by
//! 0.4 %; on a few benchmarks imperfect predictors beat "perfect" MDP
//! because an occasional missed dependence resolves in time anyway.

use crate::{
    benchmarks, geomean_normalized_ipc, normalized_ipc, table::ratio, PredictorKind, Run, TextTable,
};
use mascot_sim::CoreConfig;
use mascot_workloads::spec;

pub fn run(run: &Run) {
    let profiles = spec::all_profiles();
    let kinds = [
        PredictorKind::PerfectMdp,
        PredictorKind::StoreSets,
        PredictorKind::MdpTage,
        PredictorKind::Phast,
        PredictorKind::MascotMdp,
    ];
    let results = run.suite(&profiles, &kinds, &CoreConfig::golden_cove());
    let benches = benchmarks(&results);
    let shown = ["store-sets", "mdp-tage", "phast", "mascot-mdp"];
    let mut t = TextTable::new(["benchmark", "store-sets", "mdp-tage", "phast", "mascot-mdp"]);
    for b in &benches {
        let cells: Vec<String> = shown
            .iter()
            .map(|p| ratio(normalized_ipc(&results, b, p, "perfect-mdp").unwrap_or(f64::NAN)))
            .collect();
        t.row(std::iter::once(b.clone()).chain(cells));
    }
    let gm: Vec<f64> = shown
        .iter()
        .map(|p| geomean_normalized_ipc(&results, &benches, p, "perfect-mdp").unwrap_or(f64::NAN))
        .collect();
    t.row([
        "GEOMEAN".to_string(),
        ratio(gm[0]),
        ratio(gm[1]),
        ratio(gm[2]),
        ratio(gm[3]),
    ]);
    println!("== Fig. 9 — MDP-only IPC normalised to perfect MDP ==");
    println!("{}", t.render());
    println!(
        "mascot-mdp vs store-sets: {:+.2}% (paper: +6.18%)",
        (gm[3] / gm[0] - 1.0) * 100.0
    );
    println!(
        "mascot-mdp vs mdp-tage:   {:+.2}% (historical baseline, beyond the paper)",
        (gm[3] / gm[1] - 1.0) * 100.0
    );
    println!(
        "mascot-mdp vs phast:      {:+.2}% (paper: +0.36%)",
        (gm[3] / gm[2] - 1.0) * 100.0
    );
    let above: Vec<&String> = benches
        .iter()
        .filter(|b| normalized_ipc(&results, b, "mascot-mdp", "perfect-mdp").unwrap_or(0.0) > 1.0)
        .collect();
    println!("benchmarks where MDP-only MASCOT beats perfect MDP: {above:?}");
}
