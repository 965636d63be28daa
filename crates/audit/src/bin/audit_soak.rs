//! `audit-soak`: seeded randomized soak of the audited simulator.
//!
//! Generates every workload profile (or a filtered subset) plus the three
//! adversarial mistraining compositions, runs each trace through the
//! cycle-audited engine under several predictor kinds, checks run-to-run
//! determinism and MDP-only/MASCOT agreement, and — on any failure —
//! shrinks the trace to a minimal repro, writes it as an `.mtrc` artifact
//! and prints the one-line command that replays it.
//!
//!     audit-soak [--seed N] [--uops N] [--profiles a,b,...] [--kinds a,b]
//!                [--inject FAULT] [--out-dir DIR] [--no-diff]
//!     audit-soak --repro FILE [--kinds a,b] [--inject FAULT]
//!
//! Exit code 0 when every check passes, 1 when any failed (repros written),
//! 2 on usage errors.

use std::path::PathBuf;
use std::process::ExitCode;

use mascot_audit::runner::quiet_panics;
use mascot_audit::{
    check_batch_equivalence, check_determinism, check_mdp_agreement, check_sampled_determinism,
    check_snapshot_roundtrip, run_audited, shrink, write_repro,
};
use mascot_predictors::PredictorKind;
use mascot_sampling::SamplingConfig;
use mascot_sim::{codec, CoreConfig, Fault, Trace};
use mascot_workloads::{generate, spec};

const DEFAULT_SEED: u64 = 2025;
const DEFAULT_UOPS: usize = 20_000;

struct Args {
    seed: u64,
    uops: usize,
    profiles: Option<Vec<String>>,
    kinds: Vec<PredictorKind>,
    inject: Option<Fault>,
    out_dir: PathBuf,
    repro: Option<PathBuf>,
    no_diff: bool,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            seed: DEFAULT_SEED,
            uops: DEFAULT_UOPS,
            profiles: None,
            kinds: vec![
                PredictorKind::Mascot,
                PredictorKind::NoSq,
                PredictorKind::StoreSets,
                PredictorKind::RandomizedMascot,
            ],
            inject: None,
            out_dir: PathBuf::from("target/audit-repros"),
            repro: None,
            no_diff: false,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: audit-soak [--seed N] [--uops N] [--profiles a,b,...] [--kinds a,b]\n\
         \x20                [--inject FAULT] [--out-dir DIR] [--no-diff]\n\
         \x20      audit-soak --repro FILE [--kinds a,b] [--inject FAULT]\n\
         \n\
         FAULT: skip-violation-purge | skip-ready-mask-purge | skip-served-accounting\n\
         kinds: labels from the predictor registry (e.g. mascot, nosq, store-sets)"
    );
    std::process::exit(2);
}

fn parse_fault(s: &str) -> Option<Fault> {
    match s {
        "skip-violation-purge" => Some(Fault::SkipViolationPurge),
        "skip-ready-mask-purge" => Some(Fault::SkipReadyMaskPurge),
        "skip-served-accounting" => Some(Fault::SkipServedAccounting),
        _ => None,
    }
}

fn fault_label(f: Fault) -> &'static str {
    match f {
        Fault::SkipViolationPurge => "skip-violation-purge",
        Fault::SkipReadyMaskPurge => "skip-ready-mask-purge",
        Fault::SkipServedAccounting => "skip-served-accounting",
    }
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--uops" => args.uops = value().parse().unwrap_or_else(|_| usage()),
            "--profiles" => {
                args.profiles = Some(value().split(',').map(str::to_string).collect());
            }
            "--kinds" => {
                args.kinds = value()
                    .split(',')
                    .map(|k| k.parse().unwrap_or_else(|_| usage()))
                    .collect();
            }
            "--inject" => args.inject = Some(parse_fault(&value()).unwrap_or_else(|| usage())),
            "--out-dir" => args.out_dir = PathBuf::from(value()),
            "--repro" => args.repro = Some(PathBuf::from(value())),
            "--no-diff" => args.no_diff = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if args.kinds.is_empty() {
        usage();
    }
    args
}

/// One failed check, with enough context to label its repro artifact.
struct Failure {
    label: String,
    message: String,
}

/// Runs every check for one trace; on failure shrinks and writes a repro.
/// Returns the failures found.
fn soak_trace(trace: &Trace, cfg: &CoreConfig, args: &Args, context: &str) -> Vec<Failure> {
    let mut failures = Vec::new();

    for &kind in &args.kinds {
        let run = quiet_panics(|| run_audited(trace, cfg, kind, args.inject));
        match run {
            Ok(stats) => println!(
                "audit ok: {context} {kind} ({} uops, {} cycles, ipc {:.2})",
                trace.len(),
                stats.cycles,
                stats.ipc(),
                kind = kind.label()
            ),
            Err(err) => {
                println!("AUDIT FAILURE: {context} {}: {}", kind.label(), err.message);
                let mut fails = |t: &Trace| run_audited(t, cfg, kind, args.inject).is_err();
                let minimal = quiet_panics(|| shrink(trace, &mut fails));
                let mut label = format!("{context}-{}", kind.label());
                if let Some(f) = args.inject {
                    label = format!("{label}-{}", fault_label(f));
                }
                report_repro(&minimal, args, &label, &kind);
                failures.push(Failure {
                    label,
                    message: err.message,
                });
            }
        }
    }

    if !args.no_diff {
        if let Some(&kind) = args.kinds.first() {
            if let Err(e) = check_determinism(trace, cfg, kind) {
                println!("DIFF FAILURE: {context} {}: {e}", kind.label());
                let mut fails = |t: &Trace| check_determinism(t, cfg, kind).is_err();
                let minimal = quiet_panics(|| shrink(trace, &mut fails));
                let label = format!("{context}-{}-nondeterminism", kind.label());
                report_repro(&minimal, args, &label, &kind);
                failures.push(Failure {
                    label,
                    message: e.to_string(),
                });
            }
        }
        if let Err(e) = check_mdp_agreement(trace) {
            println!("DIFF FAILURE: {context} mdp-agreement: {e}");
            let mut fails = |t: &Trace| check_mdp_agreement(t).is_err();
            let minimal = quiet_panics(|| shrink(trace, &mut fails));
            let label = format!("{context}-mdp-agreement");
            report_repro(&minimal, args, &label, &PredictorKind::Mascot);
            failures.push(Failure {
                label,
                message: e.to_string(),
            });
        }
        // Sampled-pipeline determinism: plan → warm → measure → project run
        // twice must agree bit-for-bit (DESIGN.md §13). Sized down so the
        // soak trace yields a handful of intervals per cluster.
        if let Some(&kind) = args.kinds.first() {
            let samp = SamplingConfig {
                interval_uops: (trace.len() / 8).max(1_000),
                clusters: 4,
                warmup_uops: 500,
                ..SamplingConfig::default()
            };
            if let Err(e) = check_sampled_determinism(trace, cfg, kind, &samp) {
                println!(
                    "DIFF FAILURE: {context} sampled-determinism {}: {e}",
                    kind.label()
                );
                failures.push(Failure {
                    label: format!("{context}-{}-sampled-determinism", kind.label()),
                    message: e.to_string(),
                });
            }
        }
    }

    failures
}

fn report_repro(minimal: &Trace, args: &Args, label: &str, kind: &PredictorKind) {
    match write_repro(minimal, &args.out_dir, label) {
        Ok((path, mut command)) => {
            command.push_str(&format!(" --kinds {}", kind.label()));
            if let Some(f) = args.inject {
                command.push_str(&format!(" --inject {}", fault_label(f)));
            }
            println!(
                "  minimal repro: {} uops -> {}",
                minimal.len(),
                path.display()
            );
            println!("  reproduce: {command}");
        }
        Err(e) => println!("  (failed to write repro artifact: {e})"),
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let cfg = CoreConfig::golden_cove();

    // Repro mode: replay one saved trace.
    if let Some(path) = &args.repro {
        let file = match std::fs::File::open(path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("cannot open {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let trace = match codec::load(std::io::BufReader::new(file)) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot decode {}: {e:?}", path.display());
                return ExitCode::from(2);
            }
        };
        if let Err(e) = trace.validate() {
            eprintln!("invalid trace {}: {e}", path.display());
            return ExitCode::from(2);
        }
        let mut failed = false;
        for &kind in &args.kinds {
            match quiet_panics(|| run_audited(&trace, &cfg, kind, args.inject)) {
                Ok(stats) => println!(
                    "repro clean: {} ({} uops, {} cycles)",
                    kind.label(),
                    trace.len(),
                    stats.cycles
                ),
                Err(err) => {
                    println!("repro FAILS: {}: {}", kind.label(), err.message);
                    failed = true;
                }
            }
        }
        return ExitCode::from(u8::from(failed));
    }

    // Soak mode: every (selected) profile.
    let profiles = spec::all_profiles();
    let selected: Vec<_> = match &args.profiles {
        Some(names) => {
            let mut sel = Vec::new();
            for n in names {
                match profiles.iter().find(|p| p.name == n.as_str()) {
                    Some(p) => sel.push(p.clone()),
                    None => {
                        eprintln!("unknown profile {n:?}");
                        return ExitCode::from(2);
                    }
                }
            }
            sel
        }
        None => profiles,
    };

    println!(
        "audit-soak: {} profiles x {} kinds, {} uops each, seed {}{}",
        selected.len(),
        args.kinds.len(),
        args.uops,
        args.seed,
        args.inject
            .map(|f| format!(", injecting {}", fault_label(f)))
            .unwrap_or_default()
    );

    let mut failures = Vec::new();

    // Trace-independent: the batch API's sequential-equivalence contract,
    // for every predictor in the registry (seeded synthetic streams).
    if !args.no_diff {
        for kind in PredictorKind::ALL {
            match check_batch_equivalence(kind, args.seed, 4_000) {
                Ok(()) => println!("batch-equivalence ok: {}", kind.label()),
                Err(e) => {
                    println!("DIFF FAILURE: batch-equivalence {}: {e}", kind.label());
                    failures.push(Failure {
                        label: format!("batch-equivalence-{}", kind.label()),
                        message: e.to_string(),
                    });
                }
            }
        }
        // Snapshot round-trip: restore must reproduce a bit-identical
        // payload and an identical behavioral fingerprint, and stay in
        // lockstep with the original under continued traffic.
        for kind in PredictorKind::ALL {
            match check_snapshot_roundtrip(kind, args.seed, 3_000) {
                Ok(()) => println!("snapshot-roundtrip ok: {}", kind.label()),
                Err(e) => {
                    println!("DIFF FAILURE: snapshot-roundtrip {}: {e}", kind.label());
                    failures.push(Failure {
                        label: format!("snapshot-roundtrip-{}", kind.label()),
                        message: e.to_string(),
                    });
                }
            }
        }
    }

    for profile in &selected {
        let trace = generate(profile, args.seed, args.uops);
        failures.extend(soak_trace(&trace, &cfg, &args, profile.name));
    }

    // Adversarial mistraining traffic (DESIGN.md §12): the same invariant
    // sweep must hold while an attacker tenant deliberately aliases the
    // victim's predictor contexts. Skipped when `--profiles` narrows the
    // run to specific benign profiles.
    if args.profiles.is_none() {
        for attack in mascot_workloads::AttackKind::ALL {
            let trace = mascot_workloads::compose(attack, args.seed, args.uops);
            failures.extend(soak_trace(&trace, &cfg, &args, attack.name()));
        }
    }

    if failures.is_empty() {
        println!("audit-soak: all checks passed");
        ExitCode::SUCCESS
    } else {
        println!("audit-soak: {} failure(s):", failures.len());
        for f in &failures {
            println!("  {}: {}", f.label, f.message);
        }
        ExitCode::FAILURE
    }
}
