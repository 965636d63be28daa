//! Audited simulation driver: runs the engine with its cycle auditor on and
//! converts panics into values.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use mascot_predictors::{AnyPredictor, PredictorKind};
use mascot_sim::{CoreConfig, Fault, SimStats, Simulator, Trace};

/// An audit (or watchdog) failure observed while simulating a trace: the
/// payload of the panic the engine raised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditFailure {
    /// The engine's panic message (an `audit violation [...]` description,
    /// a hard assert, or the no-forward-progress watchdog).
    pub message: String,
}

impl std::fmt::Display for AuditFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for AuditFailure {}

/// Depth of nested [`quiet_panics`] scopes; while non-zero the process
/// panic hook swallows panic output (the shrinker provokes hundreds of
/// expected panics and their reports would drown the useful output).
static QUIET: AtomicUsize = AtomicUsize::new(0);

/// Runs `f` with panic reports suppressed. Nesting is fine; panics from
/// other threads during the window are suppressed too, so keep the scope
/// tight (shrink loops, soak probes).
pub fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let default = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if QUIET.load(Ordering::Relaxed) == 0 {
                default(info);
            }
        }));
    });
    QUIET.fetch_add(1, Ordering::Relaxed);
    let out = f();
    QUIET.fetch_sub(1, Ordering::Relaxed);
    out
}

fn panic_payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        String::from("<non-string panic payload>")
    }
}

/// Runs `trace` through `pred` with the cycle auditor enabled, catching any
/// engine panic as an [`AuditFailure`]. On failure the predictor is left in
/// whatever state the partial run produced — build a fresh one per attempt.
pub fn run_audited_with(
    trace: &Trace,
    cfg: &CoreConfig,
    pred: &mut AnyPredictor,
    fault: Option<Fault>,
) -> Result<SimStats, AuditFailure> {
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        let mut sim = Simulator::new(trace, cfg, pred).with_audit();
        if let Some(f) = fault {
            sim = sim.with_fault(f);
        }
        sim.run()
    }));
    outcome.map_err(|payload| AuditFailure {
        message: panic_payload_message(payload),
    })
}

/// [`run_audited_with`] over a fresh predictor of the given kind.
pub fn run_audited(
    trace: &Trace,
    cfg: &CoreConfig,
    kind: PredictorKind,
    fault: Option<Fault>,
) -> Result<SimStats, AuditFailure> {
    let mut pred = kind.build();
    run_audited_with(trace, cfg, &mut pred, fault)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mascot_workloads::{generate, spec};

    #[test]
    fn clean_trace_passes_the_audit() {
        let profile = spec::profile("perlbench2").expect("known profile");
        let trace = generate(&profile, 7, 4_000);
        let stats = run_audited(
            &trace,
            &CoreConfig::golden_cove(),
            PredictorKind::Mascot,
            None,
        )
        .expect("audited run is clean");
        assert_eq!(stats.committed_uops, trace.len() as u64);
    }

    #[test]
    fn injected_fault_surfaces_as_a_failure_value() {
        // Slow store data + same-address loads: untrained predictors let the
        // loads issue stale, so squashes (and violation-table churn) are
        // guaranteed within the first few hundred micro-ops.
        let mut b = mascot_workloads::TraceBuilder::new();
        for i in 0..400u64 {
            b.alu(0x400, [None, None], Some(1), 12);
            b.store(0x410, 0x1000 + i * 64, 8, 1);
            b.load(0x420, 0x1000 + i * 64, 8, 2, None);
        }
        let trace = b.build("squashy");
        let err = quiet_panics(|| {
            run_audited(
                &trace,
                &CoreConfig::golden_cove(),
                PredictorKind::NoSq,
                Some(Fault::SkipViolationPurge),
            )
        })
        .expect_err("fault must be caught");
        assert!(err.message.contains("audit violation"), "{}", err.message);
    }
}
