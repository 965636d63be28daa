//! Regression tests over committed shrunken repro traces.
//!
//! Each `.mtrc` under `tests/repros/` was produced by the audit shrinker
//! (`audit-soak`) from a 20 000-uop soak failure with an injected engine
//! fault, then delta-debugged to ~a dozen micro-ops. They pin two things:
//!
//! 1. the *engine* stays clean on the exact shape that once broke it
//!    (or would break it under the named fault), and
//! 2. the *auditor* keeps catching that bug class — if a refactor ever
//!    silences the check, the injected-fault replay here fails first.

use std::path::PathBuf;

use mascot_audit::{renormalize, run_audited};
use mascot_predictors::PredictorKind;
use mascot_sim::{codec, CoreConfig, Fault, Trace};

fn load_repro(name: &str) -> Trace {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/repros")
        .join(name);
    let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    codec::decode(&bytes).unwrap_or_else(|e| panic!("decode {}: {e:?}", path.display()))
}

const FAULT_REPROS: [&str; 2] = [
    "repro-wrf-nosq-skip-violation-purge.mtrc",
    "repro-cactuBSSN-nosq-skip-violation-purge.mtrc",
];

/// Every committed repro is a well-formed trace whose dependence
/// annotations match an independent re-derivation (the shrinker's own
/// invariant — a drifting codec or renormalizer shows up here).
#[test]
fn committed_repros_are_valid_and_normal() {
    for name in FAULT_REPROS {
        let trace = load_repro(name);
        trace.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            trace.len() < 100,
            "{name}: shrinker output grew to {} uops",
            trace.len()
        );
        let renorm = renormalize(&trace);
        assert_eq!(trace.uops, renorm.uops, "{name}");
    }
}

/// The un-faulted engine passes the full cycle audit on each repro — these
/// shapes are exactly the ones that expose purge bookkeeping, so any
/// regression in squash handling trips here with a ~12-uop witness.
#[test]
fn engine_is_clean_on_repro_shapes() {
    let cfg = CoreConfig::golden_cove();
    for name in FAULT_REPROS {
        let trace = load_repro(name);
        for kind in [
            PredictorKind::Mascot,
            PredictorKind::NoSq,
            PredictorKind::StoreSets,
        ] {
            run_audited(&trace, &cfg, kind, None)
                .unwrap_or_else(|e| panic!("{name} under {kind:?}: {e}"));
        }
    }
}

/// With the fault the repros were shrunk against re-injected, the auditor
/// must still catch it — this guards the detector, not the engine.
#[test]
fn auditor_still_catches_the_injected_fault() {
    let cfg = CoreConfig::golden_cove();
    for name in FAULT_REPROS {
        let trace = load_repro(name);
        let err = mascot_audit::runner::quiet_panics(|| {
            run_audited(
                &trace,
                &cfg,
                PredictorKind::NoSq,
                Some(Fault::SkipViolationPurge),
            )
        })
        .expect_err("fault must surface");
        assert!(
            err.message.contains("audit violation"),
            "{name}: unexpected failure: {}",
            err.message
        );
    }
}
