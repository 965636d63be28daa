//! Fig. 7: IPC of NoSQ, PHAST and MASCOT (MDP + SMB), normalised to a
//! perfect memory-dependence predictor that does no bypassing.
//!
//! Paper headline: MASCOT out-performs NoSQ by 4.9 %, PHAST by 1.9 % and
//! perfect MDP by 1.0 % on the geometric mean; peak gains on perlbench2.

use crate::{
    benchmarks, geomean_normalized_ipc, normalized_ipc, table::ratio, PredictorKind, Run, TextTable,
};
use mascot_sim::CoreConfig;
use mascot_workloads::spec;

pub fn run(run: &Run) {
    let profiles = spec::all_profiles();
    let kinds = [
        PredictorKind::PerfectMdp,
        PredictorKind::NoSq,
        PredictorKind::Phast,
        PredictorKind::Mascot,
        PredictorKind::PerfectMdpSmb,
    ];
    let results = run.suite(&profiles, &kinds, &CoreConfig::golden_cove());
    let benches = benchmarks(&results);
    let shown = ["nosq", "phast", "mascot"];
    let mut t = TextTable::new(["benchmark", "nosq", "phast", "mascot"]);
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
    ]);
    println!("== Fig. 7 — IPC normalised to perfect MDP (no SMB) ==");
    println!("{}", t.render());
    let ceiling =
        geomean_normalized_ipc(&results, &benches, "perfect-mdp-smb", "perfect-mdp").unwrap();
    println!("mascot vs nosq:  {:+.2}%", (gm[2] / gm[0] - 1.0) * 100.0);
    println!("mascot vs phast: {:+.2}%", (gm[2] / gm[1] - 1.0) * 100.0);
    println!("mascot vs perfect MDP: {:+.2}%", (gm[2] - 1.0) * 100.0);
    println!(
        "perfect MDP+SMB ceiling: {:+.2}% (mascot is {:+.2}% below it)",
        (ceiling - 1.0) * 100.0,
        (gm[2] / ceiling - 1.0) * 100.0
    );
    println!("paper: mascot +4.9% vs NoSQ, +1.9% vs PHAST, +1.0% vs perfect MDP, -1.0% vs perfect MDP+SMB");
}
