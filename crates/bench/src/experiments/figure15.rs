//! Fig. 15: MASCOT-OPT and its tag-reduced variants — area vs IPC.
//!
//! Paper headline: MASCOT-OPT loses only 0.09 % IPC for a 16 % area saving;
//! reducing its tags by 4 bits loses 0.13 % total while shrinking to
//! 10.1 KiB (27.7 % smaller than the 14 KiB default), at the cost of a
//! 17.4 % rise in mispredictions.

use crate::{
    benchmarks, find, geomean_normalized_ipc, table::count, PredictorKind, Run, TextTable,
};
use mascot_sim::CoreConfig;
use mascot_workloads::spec;

pub fn run(run: &Run) {
    let profiles = spec::all_profiles();
    let kinds = [
        PredictorKind::PerfectMdp,
        PredictorKind::Mascot,
        PredictorKind::MascotOpt(0),
        PredictorKind::MascotOpt(2),
        PredictorKind::MascotOpt(4),
        PredictorKind::MascotOpt(6),
    ];
    let results = run.suite(&profiles, &kinds, &CoreConfig::golden_cove());
    let benches = benchmarks(&results);
    let baseline = geomean_normalized_ipc(&results, &benches, "mascot", "perfect-mdp").unwrap();
    let base_mis: u64 = benches
        .iter()
        .map(|b| {
            find(&results, b, "mascot")
                .unwrap()
                .stats
                .total_mispredictions()
        })
        .sum();
    let mut t = TextTable::new([
        "configuration",
        "size (KiB)",
        "area vs 14 KiB",
        "IPC vs MASCOT",
        "mispredictions",
        "vs MASCOT",
    ]);
    for kind in &kinds[1..] {
        let label = kind.label();
        let gm = geomean_normalized_ipc(&results, &benches, &label, "perfect-mdp").unwrap();
        let mis: u64 = benches
            .iter()
            .map(|b| {
                find(&results, b, &label)
                    .unwrap()
                    .stats
                    .total_mispredictions()
            })
            .sum();
        let kib = find(&results, &benches[0], &label).unwrap().storage_kib;
        t.row([
            label.clone().into_owned(),
            format!("{kib:.2}"),
            format!("{:+.1}%", (kib / 14.0 - 1.0) * 100.0),
            format!("{:+.3}%", (gm / baseline - 1.0) * 100.0),
            count(mis),
            format!(
                "{:+.1}%",
                (mis as f64 / base_mis.max(1) as f64 - 1.0) * 100.0
            ),
        ]);
    }
    println!("== Fig. 15 — MASCOT-OPT tag-size sweep ==");
    println!("{}", t.render());
    println!(
        "paper: OPT -0.09% IPC at 11.8 KiB; OPT(tag-4) -0.13% IPC at 10.1 KiB with +17.4% mispredictions"
    );
}
