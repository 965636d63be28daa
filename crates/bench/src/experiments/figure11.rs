//! Fig. 11: MASCOT vs a structurally identical TAGE predictor that does not
//! allocate non-dependence entries (it only decays confidence on a false
//! dependence, like prior TAGE-based MDP/SMB designs).
//!
//! Paper headline: the ablation accumulates more than 12× MASCOT's false
//! dependencies and loses IPC, especially when bypassing.

use crate::{
    benchmarks, geomean_normalized_ipc, normalized_ipc, table::count, table::ratio, PredictorKind,
    Run, TextTable,
};
use mascot_sim::CoreConfig;
use mascot_workloads::spec;

pub fn run(run: &Run) {
    let profiles = spec::all_profiles();
    let kinds = [
        PredictorKind::PerfectMdp,
        PredictorKind::Mascot,
        PredictorKind::TageNoNd,
    ];
    let results = run.suite(&profiles, &kinds, &CoreConfig::golden_cove());
    let benches = benchmarks(&results);
    let mut t = TextTable::new([
        "benchmark",
        "mascot (norm IPC)",
        "tage-no-nd (norm IPC)",
        "mascot false deps",
        "no-nd false deps",
        "mascot smb squashes",
        "no-nd smb squashes",
    ]);
    let (mut fd_m, mut fd_a, mut sq_m, mut sq_a) = (0u64, 0u64, 0u64, 0u64);
    for b in &benches {
        let m = crate::find(&results, b, "mascot").unwrap();
        let a = crate::find(&results, b, "tage-no-nd").unwrap();
        fd_m += m.stats.false_dependencies;
        fd_a += a.stats.false_dependencies;
        sq_m += m.stats.smb_squashes;
        sq_a += a.stats.smb_squashes;
        t.row([
            b.clone(),
            ratio(normalized_ipc(&results, b, "mascot", "perfect-mdp").unwrap()),
            ratio(normalized_ipc(&results, b, "tage-no-nd", "perfect-mdp").unwrap()),
            count(m.stats.false_dependencies),
            count(a.stats.false_dependencies),
            count(m.stats.smb_squashes),
            count(a.stats.smb_squashes),
        ]);
    }
    let gm_m = geomean_normalized_ipc(&results, &benches, "mascot", "perfect-mdp").unwrap();
    let gm_a = geomean_normalized_ipc(&results, &benches, "tage-no-nd", "perfect-mdp").unwrap();
    t.row([
        "GEOMEAN/TOTAL".to_string(),
        ratio(gm_m),
        ratio(gm_a),
        count(fd_m),
        count(fd_a),
        count(sq_m),
        count(sq_a),
    ]);
    println!("== Fig. 11 — MASCOT vs TAGE without non-dependence allocation ==");
    println!("{}", t.render());
    println!(
        "IPC: mascot {:+.2}% vs ablation",
        (gm_m / gm_a - 1.0) * 100.0
    );
    if fd_m > 0 {
        println!(
            "false dependencies: ablation has {:.1}x MASCOT's (paper: >12x)",
            fd_a as f64 / fd_m as f64
        );
    }
}
