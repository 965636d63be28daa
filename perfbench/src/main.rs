//! Command line of the repository benchmark:
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints a human-readable report, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Exits non-zero when
//! a correctness check fails.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{run_workload, RunCfg, DEFAULT_SEED, WORKLOADS};

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<(String, RunCfg), String> {
    let mut workload = None;
    let mut cfg = RunCfg {
        seed: DEFAULT_SEED,
        seconds: 10.0,
        traced: false,
        uops: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                cfg.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !cfg.seconds.is_finite() || cfg.seconds < 0.0 {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok((workload, cfg))
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let Some((mut report, tracer)) = run_workload(&workload, &cfg) else {
        eprintln!("unknown workload {workload}\n{}", usage());
        return ExitCode::from(2);
    };
    println!(
        "workload {workload} seed {} seconds {} trace {}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.traced)
    );
    if cfg.traced {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{workload}.jsonl"));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("spans and aggregates written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    let json = report.result_json(cfg.traced);
    for line in &report.lines {
        println!("{line}");
    }
    println!(
        "failed_frac = {} frac ({} of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for failure in &report.failures {
        println!("CHECK FAILED: {failure}");
    }
    println!("{json}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
