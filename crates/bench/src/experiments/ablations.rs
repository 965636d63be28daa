//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! Sweeps, each against the default MASCOT on a representative benchmark
//! subset:
//!
//! 1. **Associativity** (§IV-B: "4-way to tolerate conflicts").
//! 2. **History-length schedule** (geometric [0,2,...,128] vs shorter and
//!    PC-only variants).
//! 3. **Allocation usefulness** (§IV-C allocates dependents at 6,
//!    non-dependents at 2).
//! 4. **Periodic usefulness decay** (§IV-C: "no meaningful change").
//! 5. **Offset-bypass extension** (§IV-E: small upside, matching the thin
//!    Offset slice in Fig. 2).

use crate::{run_with_predictor, table::ratio, Run, TextTable};
use mascot::config::MascotConfig;
use mascot::predictor::Mascot;
use mascot_predictors::AnyPredictor;
use mascot_sim::CoreConfig;
use mascot_workloads::spec;

fn benchmarks() -> Vec<mascot_workloads::WorkloadProfile> {
    ["perlbench2", "gcc4", "mcf", "lbm", "exchange2", "xalancbmk"]
        .iter()
        .map(|n| spec::profile(n).expect("known benchmark"))
        .collect()
}

/// Runs a MASCOT config over the subset; returns (geomean IPC, total
/// mispredictions).
fn evaluate(run: &Run, cfg: MascotConfig, label: &str) -> (f64, u64) {
    let core = CoreConfig::golden_cove();
    let mut ipcs = Vec::new();
    let mut mis = 0u64;
    for profile in benchmarks() {
        let mut p = AnyPredictor::Mascot(
            Mascot::new(cfg.clone()).unwrap_or_else(|e| panic!("{label}: {e}")),
        );
        let r = run_with_predictor(&profile, &mut p, &core, run.uops, run.seed, None);
        ipcs.push(r.stats.ipc());
        mis += r.stats.total_mispredictions();
    }
    (
        mascot_stats::summary::geometric_mean(ipcs).expect("positive IPCs"),
        mis,
    )
}

/// Prints the ablation table. Every cell simulates the whole trace, also
/// under a sampled [`Run`]: the sweeps run caller-built predictor configs.
pub fn run(run: &Run) {
    let (base_ipc, base_mis) = evaluate(run, MascotConfig::default(), "default");
    let mut t = TextTable::new([
        "configuration",
        "geomean IPC",
        "vs default",
        "mispredictions",
        "KiB",
    ]);
    let mut row = |label: &str, cfg: MascotConfig| {
        let kib = cfg.storage_kib();
        let (ipc, mis) = evaluate(run, cfg, label);
        t.row([
            label.to_string(),
            ratio(ipc),
            format!("{:+.3}%", (ipc / base_ipc - 1.0) * 100.0),
            format!(
                "{mis} ({:+.1}%)",
                (mis as f64 / base_mis.max(1) as f64 - 1.0) * 100.0
            ),
            format!("{kib:.1}"),
        ]);
    };

    row("default (4-way)", MascotConfig::default());

    // 1. Associativity sweep at constant storage.
    for assoc in [1u32, 2, 8] {
        let cfg = MascotConfig {
            associativity: assoc,
            ..MascotConfig::default()
        };
        row(&format!("{assoc}-way"), cfg);
    }

    // 2. History schedules.
    row(
        "histories [0,1,2,4,8,16,32,64]",
        MascotConfig {
            history_lengths: vec![0, 1, 2, 4, 8, 16, 32, 64],
            ..MascotConfig::default()
        },
    );
    row(
        "PC-only (single table, 4K entries)",
        MascotConfig {
            history_lengths: vec![0],
            table_entries: vec![4096],
            tag_bits: vec![16],
            ..MascotConfig::default()
        },
    );

    // 3. Allocation usefulness.
    row(
        "dep alloc u=3 (weak)",
        MascotConfig {
            dep_alloc_usefulness: 3,
            ..MascotConfig::default()
        },
    );
    row(
        "nondep alloc u=6 (sticky non-deps)",
        MascotConfig {
            nondep_alloc_usefulness: 6,
            ..MascotConfig::default()
        },
    );

    // 4. Periodic decay (§IV-C: expected ~no change).
    row(
        "periodic decay /4096",
        MascotConfig::default().with_periodic_decay(4096),
    );
    row(
        "periodic decay /512",
        MascotConfig::default().with_periodic_decay(512),
    );

    // 5. Offset-bypass extension (§IV-E).
    row(
        "offset-bypass extension",
        MascotConfig::default().with_offset_bypass(),
    );

    println!("== Ablations — MASCOT design choices (6-benchmark subset) ==");
    println!("{}", t.render());
    println!("expected shapes: 4-way ≈ 8-way > 1-way; geometric histories ≥ compressed;");
    println!("PC-only loses the §III-A contexts; sticky non-deps hurt; periodic decay ≈ no change (§IV-C);");
    println!("offset bypassing a small win (the Offset slice of Fig. 2 is thin).");
}
