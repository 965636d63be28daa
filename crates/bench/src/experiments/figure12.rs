//! Fig. 12: MASCOT and the perfect MDP+SMB ceiling on Golden Cove vs Lion
//! Cove, each normalised to that architecture's perfect MDP.
//!
//! Paper headline: the SMB ceiling grows from +2.1 % (Golden Cove) to
//! +2.8 % (Lion Cove); MASCOT's gain grows from +1.0 % to +1.3 %.

use crate::{benchmarks, geomean_normalized_ipc, table::pct, PredictorKind, Run, TextTable};
use mascot_sim::CoreConfig;
use mascot_workloads::spec;

pub fn run(run: &Run) {
    let profiles = spec::all_profiles();
    let kinds = [
        PredictorKind::PerfectMdp,
        PredictorKind::Mascot,
        PredictorKind::PerfectMdpSmb,
    ];
    let mut t = TextTable::new([
        "core",
        "mascot vs perfect MDP",
        "perfect MDP+SMB vs perfect MDP",
    ]);
    for core in [CoreConfig::golden_cove(), CoreConfig::lion_cove()] {
        let results = run.suite(&profiles, &kinds, &core);
        let benches = benchmarks(&results);
        let mascot = geomean_normalized_ipc(&results, &benches, "mascot", "perfect-mdp").unwrap();
        let ceiling =
            geomean_normalized_ipc(&results, &benches, "perfect-mdp-smb", "perfect-mdp").unwrap();
        t.row([
            core.name.clone(),
            pct((mascot - 1.0) * 100.0),
            pct((ceiling - 1.0) * 100.0),
        ]);
    }
    println!("== Fig. 12 — SMB opportunity across core generations ==");
    println!("{}", t.render());
    println!("paper: ceiling +2.1% (Golden Cove) -> +2.8% (Lion Cove); mascot +1.0% -> +1.3%");
}
