//! Compare every memory-dependence predictor on one benchmark.
//!
//! Generates a synthetic SPEC-like workload, runs the full predictor zoo on
//! the Golden Cove core, and prints IPC plus the misprediction taxonomy.
//!
//! Run with: `cargo run --release --example mdp_exploration [benchmark]`
//! (default benchmark: `perlbench2`; list with `--list`).

use mascot_bench::{run_one, PredictorKind, TextTable};
use mascot_sim::CoreConfig;
use mascot_workloads::spec;

fn main() {
    let arg = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "perlbench2".into());
    if arg == "--list" {
        for p in spec::all_profiles() {
            println!("{}", p.name);
        }
        return;
    }
    let Some(profile) = spec::profile(&arg) else {
        eprintln!("unknown benchmark {arg:?}; try --list");
        std::process::exit(1);
    };
    let kinds = [
        PredictorKind::PerfectMdp,
        PredictorKind::PerfectMdpSmb,
        PredictorKind::StoreSets,
        PredictorKind::NoSq,
        PredictorKind::Phast,
        PredictorKind::MascotMdp,
        PredictorKind::Mascot,
        PredictorKind::MascotOpt(4),
        PredictorKind::TageNoNd,
    ];
    let core = CoreConfig::golden_cove();
    println!(
        "benchmark {}: expected dependent-load fraction {:.0}%\n",
        profile.name,
        profile.expected_dependent_fraction() * 100.0
    );
    let mut t = TextTable::new([
        "predictor",
        "KiB",
        "IPC",
        "missed",
        "false",
        "wrong-store",
        "smb-err",
        "squashes",
        "bypassed",
    ]);
    let mut base_ipc = None;
    for kind in kinds {
        let r = run_one(&profile, kind, &core, 150_000, 2025);
        let s = &r.stats;
        base_ipc.get_or_insert(s.ipc());
        t.row([
            r.predictor.clone(),
            format!("{:.1}", r.storage_kib),
            format!(
                "{:.3} ({:+.2}%)",
                s.ipc(),
                (s.ipc() / base_ipc.unwrap() - 1.0) * 100.0
            ),
            s.missed_dependencies.to_string(),
            s.false_dependencies.to_string(),
            s.wrong_store.to_string(),
            s.smb_errors.to_string(),
            (s.mem_order_squashes + s.smb_squashes).to_string(),
            s.loads_bypassed.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("IPC deltas are relative to perfect MDP (the paper's baseline).");
}
