//! Free-form exploration CLI: run any benchmark × predictor × core
//! configuration without writing code.
//!
//! ```text
//! explore [key=value ...]
//!
//!   bench=perlbench2          benchmark profile (see `--list`)
//!   pred=mascot               mascot | mascot-mdp | mascot-opt | mascot-opt-tagN |
//!                             tage-no-nd | phast | nosq | mdp-tage | store-sets |
//!                             perfect-mdp | perfect-mdp-smb
//!   core=golden-cove          golden-cove | lion-cove
//!   uops=150000               trace length
//!   seed=2025                 generation seed
//!   rob=512 iq=204 lq=192 sb=114   core structure overrides
//!   l1d=5 mem=100             latency overrides (cycles)
//!   drain=40                  store-drain delay override
//! ```
//!
//! Example: `explore bench=mcf pred=mascot rob=768 sb=171`

use mascot_bench::{run_one, PredictorKind, TextTable};
use mascot_sim::CoreConfig;
use mascot_workloads::spec;

fn parse_kind(s: &str) -> Option<PredictorKind> {
    Some(match s {
        "mascot" => PredictorKind::Mascot,
        "mascot-mdp" => PredictorKind::MascotMdp,
        "mascot-opt" => PredictorKind::MascotOpt(0),
        "tage-no-nd" => PredictorKind::TageNoNd,
        "phast" => PredictorKind::Phast,
        "nosq" => PredictorKind::NoSq,
        "mdp-tage" => PredictorKind::MdpTage,
        "store-sets" => PredictorKind::StoreSets,
        "perfect-mdp" => PredictorKind::PerfectMdp,
        "perfect-mdp-smb" => PredictorKind::PerfectMdpSmb,
        other => {
            let n = other.strip_prefix("mascot-opt-tag")?.parse().ok()?;
            PredictorKind::MascotOpt(n)
        }
    })
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}\nrun with --help for usage");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("usage: explore [bench=NAME] [pred=KIND] [core=NAME] [uops=N] [seed=N]");
        println!("               [rob=N] [iq=N] [lq=N] [sb=N] [l1d=N] [mem=N] [drain=N]");
        println!("       explore --list   # available benchmarks");
        return;
    }
    if args.iter().any(|a| a == "--list") {
        for p in spec::all_profiles() {
            println!("{}", p.name);
        }
        return;
    }

    let mut bench = "perlbench2".to_string();
    let mut kind = PredictorKind::Mascot;
    let mut core = CoreConfig::golden_cove();
    let mut uops = 150_000usize;
    let mut seed = mascot_bench::DEFAULT_SEED;
    for arg in &args {
        let Some((key, value)) = arg.split_once('=') else {
            fail(&format!("expected key=value, got {arg:?}"));
        };
        let num = || -> u32 {
            value
                .parse()
                .unwrap_or_else(|_| fail(&format!("{key}: not a number: {value:?}")))
        };
        match key {
            "bench" => bench = value.to_string(),
            "pred" => {
                kind = parse_kind(value)
                    .unwrap_or_else(|| fail(&format!("unknown predictor {value:?}")));
            }
            "core" => {
                core = match value {
                    "golden-cove" => CoreConfig::golden_cove(),
                    "lion-cove" => CoreConfig::lion_cove(),
                    _ => fail(&format!("unknown core {value:?}")),
                };
            }
            "uops" => uops = num() as usize,
            "seed" => seed = u64::from(num()),
            "rob" => core.rob_entries = num(),
            "iq" => core.iq_entries = num(),
            "lq" => core.lq_entries = num(),
            "sb" => core.sb_entries = num(),
            "l1d" => core.l1d.hit_latency = num(),
            "mem" => core.memory_latency = num(),
            "drain" => core.store_drain_delay = num(),
            _ => fail(&format!("unknown key {key:?}")),
        }
    }
    let Some(profile) = spec::profile(&bench) else {
        fail(&format!("unknown benchmark {bench:?} (try --list)"));
    };
    core.validate().unwrap_or_else(|e| fail(&e));

    let r = run_one(&profile, kind, &core, uops, seed);
    let s = &r.stats;
    println!(
        "{} on {} with {} ({:.1} KiB), {} uops, seed {}\n",
        r.benchmark, r.core, r.predictor, r.storage_kib, uops, seed
    );
    let mut t = TextTable::new(["metric", "value"]);
    t.row(["IPC".to_string(), format!("{:.4}", s.ipc())]);
    t.row(["cycles".to_string(), s.cycles.to_string()]);
    t.row([
        "loads / stores / branches".to_string(),
        format!(
            "{} / {} / {}",
            s.committed_loads, s.committed_stores, s.committed_branches
        ),
    ]);
    t.row([
        "predictions (no-dep / mdp / smb)".to_string(),
        format!("{} / {} / {}", s.pred_no_dep, s.pred_mdp, s.pred_smb),
    ]);
    t.row([
        "mispredictions (missed/false/wrong-store/smb)".to_string(),
        format!(
            "{} / {} / {} / {}",
            s.missed_dependencies, s.false_dependencies, s.wrong_store, s.smb_errors
        ),
    ]);
    t.row([
        "squashes (memory-order / smb)".to_string(),
        format!("{} / {}", s.mem_order_squashes, s.smb_squashes),
    ]);
    t.row([
        "loads bypassed / forwarded / from cache".to_string(),
        format!(
            "{} / {} / {}",
            s.loads_bypassed, s.loads_forwarded, s.loads_from_cache
        ),
    ]);
    t.row([
        "branch mispredicts (MPKI)".to_string(),
        format!(
            "{} ({:.1})",
            s.branch_mispredicts,
            s.branch_mispredicts as f64 * 1000.0 / s.committed_uops.max(1) as f64
        ),
    ]);
    t.row([
        "cache misses (l1i/l1d/l2/l3)".to_string(),
        format!(
            "{} / {} / {} / {}",
            s.l1i_misses, s.l1d_misses, s.l2_misses, s.l3_misses
        ),
    ]);
    t.row([
        "dispatch stalls (fe/rob/iq/lq/sb)".to_string(),
        format!(
            "{} / {} / {} / {} / {}",
            s.stall_frontend, s.stall_rob, s.stall_iq, s.stall_lq, s.stall_sb
        ),
    ]);
    t.row([
        "avg dependent issue wait".to_string(),
        format!("{:.1} cycles", s.avg_dependent_wait()),
    ]);
    t.row([
        "dependent-load fraction".to_string(),
        format!("{:.1}%", s.dependent_load_fraction() * 100.0),
    ]);
    println!("{}", t.render());
}
