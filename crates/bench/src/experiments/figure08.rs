//! Fig. 8: total mispredictions per predictor and their split into false
//! dependencies vs speculative errors.
//!
//! "speculative errors" counts mispredictions found at execute (missed
//! dependencies, wrong-store conflicts, SMB errors). A bypass that fails
//! its pre-commit check squashes without being counted there, so the
//! table prints those `SMB squashes` in a column of their own.
//!
//! Paper headline: MASCOT reduces total errors by 98 % vs NoSQ and 85 % vs
//! PHAST; vs PHAST it cuts speculative errors by 39 % and false
//! dependencies by 91 %.

use crate::{table::count, PredictorKind, Run, TextTable};
use mascot_sim::CoreConfig;
use mascot_workloads::spec;

pub fn run(run: &Run) {
    let profiles = spec::all_profiles();
    let kinds = [
        PredictorKind::NoSq,
        PredictorKind::Phast,
        PredictorKind::Mascot,
    ];
    let results = run.suite(&profiles, &kinds, &CoreConfig::golden_cove());
    let mut t = TextTable::new([
        "predictor",
        "total",
        "false deps",
        "speculative errors",
        "SMB squashes",
        "MPKI",
    ]);
    let mut totals = std::collections::HashMap::new();
    for kind in &kinds {
        let label = kind.label();
        let (mut total, mut false_d, mut spec_e, mut smb_sq, mut uops) = (0u64, 0, 0, 0, 0);
        for r in results.iter().filter(|r| r.predictor == label) {
            total += r.stats.total_mispredictions();
            false_d += r.stats.false_dependencies;
            spec_e += r.stats.speculative_errors();
            smb_sq += r.stats.smb_squashes;
            uops += r.stats.committed_uops;
        }
        totals.insert(label.clone(), (total, false_d, spec_e));
        t.row([
            label.into_owned(),
            count(total),
            count(false_d),
            count(spec_e),
            count(smb_sq),
            format!("{:.3}", mascot_stats::summary::mpki(total, uops)),
        ]);
    }
    println!("== Fig. 8 — total mispredictions and their distribution ==");
    println!("{}", t.render());
    let m = totals["mascot"];
    let p = totals["phast"];
    let n = totals["nosq"];
    let red = |a: u64, b: u64| {
        if b == 0 {
            0.0
        } else {
            (1.0 - a as f64 / b as f64) * 100.0
        }
    };
    println!(
        "mascot vs nosq:  total errors reduced {:.1}% (paper: 98%)",
        red(m.0, n.0)
    );
    println!(
        "mascot vs phast: total errors reduced {:.1}% (paper: 85%)",
        red(m.0, p.0)
    );
    println!(
        "mascot vs phast: false dependencies reduced {:.1}% (paper: 91%), \
         speculative errors reduced {:.1}% (paper: 39%)",
        red(m.1, p.1),
        red(m.2, p.2)
    );
}
