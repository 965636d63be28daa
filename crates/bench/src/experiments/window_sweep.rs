//! Out-of-order window sweep: how memory-dependence prediction quality
//! scales with core size.
//!
//! The paper argues (§VI-A, §VI-C) that bigger windows expose more
//! potentially-conflicting load/store pairs, raising both the cost of bad
//! MDP (Store Sets' deficit on the 512-entry Golden Cove ROB) and the
//! opportunity for SMB (Lion Cove's larger ceiling). This sweep scales
//! ROB/IQ/LQ/SB together from a small OoO core up past Golden Cove and
//! reports each predictor's normalised IPC per point.

use crate::{benchmarks, geomean_normalized_ipc, table::ratio, PredictorKind, Run, TextTable};
use mascot_sim::CoreConfig;
use mascot_workloads::spec;

fn scaled_core(scale: f64) -> CoreConfig {
    let base = CoreConfig::golden_cove();
    let s = |v: u32| ((f64::from(v) * scale).round() as u32).max(8);
    CoreConfig {
        name: format!("rob-{}", s(base.rob_entries)),
        rob_entries: s(base.rob_entries),
        iq_entries: s(base.iq_entries),
        lq_entries: s(base.lq_entries),
        sb_entries: s(base.sb_entries),
        ..base
    }
}

pub fn run(run: &Run) {
    let profiles = spec::quick_suite();
    let kinds = [
        PredictorKind::PerfectMdp,
        PredictorKind::PerfectMdpSmb,
        PredictorKind::StoreSets,
        PredictorKind::Phast,
        PredictorKind::MascotMdp,
        PredictorKind::Mascot,
    ];
    let mut t = TextTable::new([
        "window",
        "store-sets",
        "phast",
        "mascot-mdp",
        "mascot",
        "smb ceiling",
    ]);
    for scale in [0.25, 0.5, 1.0, 1.5] {
        let core = scaled_core(scale);
        let results = run.suite(&profiles, &kinds, &core);
        let benches = benchmarks(&results);
        let gm = |p: &str| {
            geomean_normalized_ipc(&results, &benches, p, "perfect-mdp").unwrap_or(f64::NAN)
        };
        t.row([
            format!("ROB {} / SB {}", core.rob_entries, core.sb_entries),
            ratio(gm("store-sets")),
            ratio(gm("phast")),
            ratio(gm("mascot-mdp")),
            ratio(gm("mascot")),
            ratio(gm("perfect-mdp-smb")),
        ]);
    }
    println!("== Window sweep — normalised IPC vs OoO window size (quick suite) ==");
    println!("{}", t.render());
    println!("paper's argument: larger windows raise both the cost of bad MDP and the SMB ceiling (§VI-A/C)");
}
