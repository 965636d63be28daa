//! Runs the paper's experiments in one process, mirroring its evaluation
//! section end to end; see DESIGN.md §3 for the index.
//!
//! ```text
//! all_experiments [NAME ...] [--sampled]
//! ```
//!
//! Names select experiments from `mascot_bench::experiments::EXPERIMENTS`
//! and run them in the order given; with none, every experiment runs in
//! the paper's order. `MASCOT_TRACE_UOPS` sets the trace length per
//! benchmark (default 150,000). `--sampled` projects each (benchmark,
//! predictor, core) cell from representative intervals (DESIGN.md §13)
//! instead of simulating it end to end: useful for a fast smoke pass over
//! the full evaluation, while headline numbers should still come from the
//! default full-trace run. An unknown name exits with status 2.

use mascot_bench::experiments::parse_args;
use mascot_bench::{Run, DEFAULT_SEED, DEFAULT_TRACE_UOPS};

fn main() {
    let (experiments, sampled) = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}\nusage: all_experiments [NAME ...] [--sampled]");
        std::process::exit(2);
    });
    let run = Run {
        uops: std::env::var("MASCOT_TRACE_UOPS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_TRACE_UOPS),
        seed: DEFAULT_SEED,
        sampled,
    };
    if sampled {
        println!("sampled mode: projecting every cell from representative intervals");
    }
    let started = std::time::Instant::now();
    for experiment in experiments {
        println!("\n######## {} ########\n", experiment.name);
        (experiment.run)(&run);
    }
    println!("\nall experiments completed in {:?}", started.elapsed());
}
