//! Differential checks: same-input determinism, MDP-only agreement, and
//! batch/scalar predictor equivalence.
//!
//! Three properties the rest of the repository silently relies on:
//!
//! 1. **Determinism** — a trace simulated twice under the same predictor
//!    kind must produce bit-identical [`SimStats`] and leave the predictor
//!    in the same state. The engine has no randomness; any divergence means
//!    iteration-order or uninitialised-state leakage.
//! 2. **Bypass demotion** — [`mascot::MascotMdpOnly`] is full MASCOT with
//!    the bypass bit masked off, and MASCOT's training is invariant under
//!    that demotion (`Dependence` and `Bypass` share a training arm). Walked
//!    in lockstep over the same lookup/train stream, the two must therefore
//!    agree on every prediction modulo [`MemDepPrediction::demote_bypass`].
//! 3. **Batch equivalence** — `predict_batch`/`train_batch` promise strict
//!    sequential equivalence with per-request scalar calls; the serve
//!    shard drain leans on it. A scalar and a batched instance driven over
//!    the same seeded stream must agree on every prediction, every piece
//!    of metadata, and the final state.
//!
//! Predictor state is compared behaviorally, the same way for every kind:
//! instead of comparing encoded tables we clone the predictor and probe it
//! with every distinct load PC in the trace ("what would you predict
//! now?"). Two predictors that answer every probe identically are
//! interchangeable for any continuation of the run.

use mascot::config::MascotConfig;
use mascot::history::{BranchEvent, BranchKind};
use mascot::mdp_only::MascotMdpOnly;
use mascot::prediction::{
    BypassClass, GroundTruth, LoadOutcome, MemDepPrediction, MemDepPredictor, ObservedDependence,
    PredictReq, StoreDistance, TrainReq,
};
use mascot::predictor::Mascot;
use mascot_predictors::{AnyMeta, AnyPredictor, PredictorKind};
use mascot_sampling::{run_sampled, SampledOutcome, SamplingConfig};
use mascot_sim::{CoreConfig, SimStats, Simulator, Trace, TraceDep, UopKind};

/// A divergence found by a differential check.
#[derive(Debug, Clone, PartialEq)]
pub enum DiffError {
    /// Two runs of the same configuration produced different statistics.
    StatsDiverged {
        /// Statistics of the first run.
        first: Box<SimStats>,
        /// Statistics of the second run.
        second: Box<SimStats>,
    },
    /// Two runs left the predictor answering probes differently.
    StateDiverged {
        /// Probe PC whose answer differs.
        pc: u64,
        /// First run's answer.
        first: MemDepPrediction,
        /// Second run's answer.
        second: MemDepPrediction,
    },
    /// MDP-only disagreed with demoted full MASCOT on a load.
    DemotionDisagreed {
        /// Trace index of the load.
        trace_idx: usize,
        /// Load PC.
        pc: u64,
        /// Full MASCOT's prediction.
        full: MemDepPrediction,
        /// MDP-only's prediction (expected `full.demote_bypass()`).
        mdp_only: MemDepPrediction,
    },
    /// The batched predictor API diverged from sequential scalar calls.
    BatchDiverged {
        /// Predictor kind under test.
        kind: PredictorKind,
        /// Request index within the stream (or stream length for the final
        /// state fingerprint).
        step: usize,
        /// Load PC of the diverging request or probe.
        pc: u64,
        /// What diverged (prediction, metadata, or final state).
        detail: String,
    },
    /// Snapshot → restore failed to reproduce the predictor exactly.
    SnapshotDiverged {
        /// Predictor kind under test.
        kind: PredictorKind,
        /// Which stage of the round-trip diverged or failed.
        detail: String,
    },
    /// Two sampled runs of the same configuration diverged.
    SampledDiverged {
        /// Predictor kind under test.
        kind: PredictorKind,
        /// Which part of the sampled pipeline diverged (plan, projection).
        detail: String,
    },
}

impl std::fmt::Display for DiffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiffError::StatsDiverged { first, second } => write!(
                f,
                "nondeterministic statistics: first {first:?} vs second {second:?}"
            ),
            DiffError::StateDiverged { pc, first, second } => write!(
                f,
                "nondeterministic predictor state: probe pc {pc:#x} answers {first:?} vs {second:?}"
            ),
            DiffError::DemotionDisagreed {
                trace_idx,
                pc,
                full,
                mdp_only,
            } => write!(
                f,
                "mdp-only diverged from demoted MASCOT at uop {trace_idx} (pc {pc:#x}): \
                 full {full:?}, mdp-only {mdp_only:?}"
            ),
            DiffError::BatchDiverged {
                kind,
                step,
                pc,
                detail,
            } => write!(
                f,
                "batched {} diverged from scalar at request {step} (pc {pc:#x}): {detail}",
                kind.label()
            ),
            DiffError::SnapshotDiverged { kind, detail } => write!(
                f,
                "snapshot round-trip for {} diverged: {detail}",
                kind.label()
            ),
            DiffError::SampledDiverged { kind, detail } => write!(
                f,
                "sampled run for {} diverged between repetitions: {detail}",
                kind.label()
            ),
        }
    }
}

impl std::error::Error for DiffError {}

/// Every distinct load PC of `trace`, in first-appearance order — the probe
/// set for behavioral state comparison.
fn probe_pcs(trace: &Trace) -> Vec<u64> {
    let mut seen = std::collections::BTreeSet::new();
    let mut pcs = Vec::new();
    for u in &trace.uops {
        if matches!(u.kind, UopKind::Load { .. }) && seen.insert(u.pc) {
            pcs.push(u.pc);
        }
    }
    pcs
}

/// Asks a clone of `pred` for its prediction at every probe PC. Cloning
/// keeps the probe itself from perturbing the compared state. Two
/// predictors with equal fingerprints over the same probe set are
/// behaviorally interchangeable for any continuation of the run.
pub fn fingerprint(pred: &AnyPredictor, pcs: &[u64]) -> Vec<MemDepPrediction> {
    let mut probe = pred.clone();
    pcs.iter()
        .map(|&pc| probe.predict(pc, u64::MAX / 2, None).0)
        .collect()
}

/// Simulates `trace` twice under fresh predictors of `kind` and diffs both
/// the statistics and the final predictor state. Returns the (identical)
/// statistics on success.
pub fn check_determinism(
    trace: &Trace,
    cfg: &CoreConfig,
    kind: PredictorKind,
) -> Result<SimStats, DiffError> {
    let run = |kind: PredictorKind| {
        let mut pred = kind.build();
        let stats = Simulator::new(trace, cfg, &mut pred).run();
        (stats, pred)
    };
    let (s1, p1) = run(kind);
    let (s2, p2) = run(kind);
    if s1 != s2 {
        return Err(DiffError::StatsDiverged {
            first: Box::new(s1),
            second: Box::new(s2),
        });
    }
    let pcs = probe_pcs(trace);
    let (f1, f2) = (fingerprint(&p1, &pcs), fingerprint(&p2, &pcs));
    for (i, (a, b)) in f1.iter().zip(&f2).enumerate() {
        if a != b {
            return Err(DiffError::StateDiverged {
                pc: pcs[i],
                first: *a,
                second: *b,
            });
        }
    }
    Ok(s1)
}

/// Walks `trace` through a full MASCOT and a [`MascotMdpOnly`] in lockstep
/// (same branch events, store dispatches, lookups and training outcomes)
/// and verifies that every MDP-only prediction equals the full predictor's
/// demoted one, including a final-state fingerprint over all load PCs.
pub fn check_mdp_agreement(trace: &Trace) -> Result<(), DiffError> {
    let mut full = Mascot::new(MascotConfig::default()).expect("valid default config");
    let mut mdp = MascotMdpOnly::new(MascotConfig::default()).expect("valid default config");
    let mut store_count = 0u64;
    for (trace_idx, u) in trace.uops.iter().enumerate() {
        match u.kind {
            UopKind::Alu => {}
            UopKind::Branch {
                kind,
                taken,
                target,
            } => {
                let ev = BranchEvent {
                    pc: u.pc,
                    kind,
                    taken,
                    target,
                };
                full.on_branch(&ev);
                mdp.on_branch(&ev);
            }
            UopKind::Store { .. } => {
                full.on_store_dispatch(u.pc, store_count);
                mdp.on_store_dispatch(u.pc, store_count);
                store_count += 1;
            }
            UopKind::Load { dep, .. } => {
                let oracle = dep.and_then(|d| {
                    Some(GroundTruth {
                        distance: StoreDistance::new(d.distance)?,
                        class: d.class,
                    })
                });
                let (fp, fmeta) = full.predict(u.pc, store_count, oracle.as_ref());
                let (mp, mmeta) = mdp.predict(u.pc, store_count, oracle.as_ref());
                if mp != fp.demote_bypass() {
                    return Err(DiffError::DemotionDisagreed {
                        trace_idx,
                        pc: u.pc,
                        full: fp,
                        mdp_only: mp,
                    });
                }
                let out = dep
                    .as_ref()
                    .map_or_else(LoadOutcome::independent, TraceDep::outcome);
                full.train(u.pc, fmeta, fp, &out);
                mdp.train(u.pc, mmeta, mp, &out);
            }
        }
    }
    // Final state: after identical histories the two must still answer every
    // probe identically (modulo demotion). One clone each for the whole
    // probe sweep — the probes themselves may perturb the clones, but both
    // clones see the identical probe stream, so agreement is preserved.
    let mut full = full.clone();
    let mut mdp = mdp.clone();
    for pc in probe_pcs(trace) {
        let fp = full.predict(pc, u64::MAX / 2, None).0;
        let mp = mdp.predict(pc, u64::MAX / 2, None).0;
        if mp != fp.demote_bypass() {
            return Err(DiffError::DemotionDisagreed {
                trace_idx: trace.len(),
                pc,
                full: fp,
                mdp_only: mp,
            });
        }
    }
    Ok(())
}

/// Drives two fresh instances of `kind` over one seeded request stream —
/// one through scalar `predict`/`train` calls, one through
/// `predict_batch`/`train_batch` in randomly sized chunks — and verifies
/// the batch API's sequential-equivalence contract: identical predictions,
/// identical metadata, and an identical final-state fingerprint.
///
/// The PC pool is deliberately tiny so chunks repeatedly contain the same
/// PC (within-batch aliasing, the contract's hardest case), and branch /
/// store-dispatch events are interleaved between chunks so history-hashed
/// table indices keep moving.
pub fn check_batch_equivalence(
    kind: PredictorKind,
    seed: u64,
    steps: usize,
) -> Result<(), DiffError> {
    let mut scalar = kind.build();
    let mut batched = kind.build();

    let mut state = seed | 1;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let classes = [
        BypassClass::DirectBypass,
        BypassClass::NoOffset,
        BypassClass::Offset,
        BypassClass::MdpOnly,
    ];
    let pcs: Vec<u64> = (0..24u64).map(|i| 0x4000 + i * 4).collect();

    let mut store_seq = 0u64;
    let mut reqs: Vec<PredictReq> = Vec::new();
    let mut batch_out: Vec<(MemDepPrediction, AnyMeta)> = Vec::new();
    let mut train_reqs: Vec<TrainReq<AnyMeta>> = Vec::new();
    let mut step = 0usize;
    while step < steps {
        let chunk = 1 + (rng() % 13) as usize;
        reqs.clear();
        for _ in 0..chunk {
            let pc = pcs[(rng() as usize) % pcs.len()];
            let oracle = (rng() % 4 == 0)
                .then(|| StoreDistance::new(1 + (rng() % 7) as u32))
                .flatten()
                .map(|distance| GroundTruth {
                    distance,
                    class: classes[(rng() as usize) % classes.len()],
                });
            reqs.push(PredictReq {
                pc,
                store_seq,
                oracle,
            });
        }

        let scalar_out: Vec<(MemDepPrediction, AnyMeta)> = reqs
            .iter()
            .map(|r| scalar.predict(r.pc, r.store_seq, r.oracle.as_ref()))
            .collect();
        batched.predict_batch(&reqs, &mut batch_out);
        if batch_out.len() != reqs.len() {
            return Err(DiffError::BatchDiverged {
                kind,
                step,
                pc: reqs[0].pc,
                detail: format!(
                    "{} requests produced {} outputs",
                    reqs.len(),
                    batch_out.len()
                ),
            });
        }
        for (i, ((sp, sm), (bp, bm))) in scalar_out.iter().zip(&batch_out).enumerate() {
            if bp != sp {
                return Err(DiffError::BatchDiverged {
                    kind,
                    step: step + i,
                    pc: reqs[i].pc,
                    detail: format!("prediction {bp:?} != scalar {sp:?}"),
                });
            }
            if bm != sm {
                return Err(DiffError::BatchDiverged {
                    kind,
                    step: step + i,
                    pc: reqs[i].pc,
                    detail: format!("metadata mismatch (predictions agree on {sp:?})"),
                });
            }
        }

        // Train both on identical outcomes: per-call for the scalar
        // instance, one `train_batch` for the batched one.
        train_reqs.clear();
        for (i, r) in reqs.iter().enumerate() {
            let outcome = if rng() % 2 == 0 {
                LoadOutcome::dependent(ObservedDependence {
                    distance: StoreDistance::new(1 + (rng() % 90) as u32)
                        .expect("non-zero distance"),
                    class: classes[(rng() as usize) % classes.len()],
                    store_pc: 0x9000 + (rng() % 16) * 8,
                    branches_between: (rng() % 4) as u32,
                })
            } else {
                LoadOutcome::independent()
            };
            let (sp, sm) = scalar_out[i];
            scalar.train(r.pc, sm, sp, &outcome);
            let (bp, bm) = batch_out[i];
            train_reqs.push(TrainReq {
                pc: r.pc,
                meta: bm,
                predicted: bp,
                outcome,
            });
        }
        batched.train_batch(&mut train_reqs);

        // Interleave shared predictor-state events between chunks.
        if rng() % 3 == 0 {
            let ev = BranchEvent {
                pc: 0x100 + (rng() % 32) * 4,
                kind: BranchKind::Conditional,
                taken: rng() % 2 == 0,
                target: 0x800,
            };
            scalar.on_branch(&ev);
            batched.on_branch(&ev);
        }
        if rng() % 2 == 0 {
            let spc = 0x9000 + (rng() % 16) * 8;
            scalar.on_store_dispatch(spc, store_seq);
            batched.on_store_dispatch(spc, store_seq);
            store_seq += 1;
        }
        step += chunk;
    }

    let (f1, f2) = (fingerprint(&scalar, &pcs), fingerprint(&batched, &pcs));
    for (i, (a, b)) in f1.iter().zip(&f2).enumerate() {
        if a != b {
            return Err(DiffError::BatchDiverged {
                kind,
                step: steps,
                pc: pcs[i],
                detail: format!("final state: scalar answers {a:?}, batched {b:?}"),
            });
        }
    }
    Ok(())
}

/// Drives `pred` through `steps` seeded requests (interleaved branches,
/// store dispatches, predicts and trains) — the shared traffic generator
/// for the snapshot round-trip check. Deterministic in `(seed, steps)`, so
/// two predictors driven with the same arguments see identical streams.
fn drive_traffic(pred: &mut AnyPredictor, seed: u64, steps: usize) {
    let mut state = seed | 1;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let classes = [
        BypassClass::DirectBypass,
        BypassClass::NoOffset,
        BypassClass::Offset,
        BypassClass::MdpOnly,
    ];
    let mut store_seq = 0u64;
    for _ in 0..steps {
        if rng() % 3 == 0 {
            pred.on_branch(&BranchEvent {
                pc: 0x100 + (rng() % 32) * 4,
                kind: BranchKind::Conditional,
                taken: rng() % 2 == 0,
                target: 0x800,
            });
        }
        if rng() % 2 == 0 {
            pred.on_store_dispatch(0x9000 + (rng() % 16) * 8, store_seq);
            store_seq += 1;
        }
        let pc = 0x4000 + (rng() % 24) * 4;
        let oracle = (rng() % 4 == 0)
            .then(|| StoreDistance::new(1 + (rng() % 7) as u32))
            .flatten()
            .map(|distance| GroundTruth {
                distance,
                class: classes[(rng() as usize) % classes.len()],
            });
        let (p, meta) = pred.predict(pc, store_seq, oracle.as_ref());
        let outcome = if rng() % 2 == 0 {
            LoadOutcome::dependent(ObservedDependence {
                distance: StoreDistance::new(1 + (rng() % 90) as u32).expect("non-zero distance"),
                class: classes[(rng() as usize) % classes.len()],
                store_pc: 0x9000 + (rng() % 16) * 8,
                branches_between: (rng() % 4) as u32,
            })
        } else {
            LoadOutcome::independent()
        };
        pred.train(pc, meta, p, &outcome);
    }
}

/// Proves the snapshot round-trip for `kind`: warm a predictor over
/// `steps` seeded requests, serialize it, restore a second instance from
/// the bytes, and require (a) the restored instance re-encodes to the
/// **bit-identical** payload, (b) both answer an identical behavioral
/// fingerprint over the traffic's PC pool, and (c) after `steps / 2`
/// further identical requests on each, the fingerprints and payloads still
/// agree — i.e. hidden state (history folds, LRU, decay phase) survived
/// the trip, not just the visible tables.
///
/// # Errors
///
/// [`DiffError::SnapshotDiverged`] naming the failing stage.
pub fn check_snapshot_roundtrip(
    kind: PredictorKind,
    seed: u64,
    steps: usize,
) -> Result<(), DiffError> {
    let diverged = |detail: String| DiffError::SnapshotDiverged { kind, detail };
    let pcs: Vec<u64> = (0..24u64).map(|i| 0x4000 + i * 4).collect();

    let mut original = kind.build();
    drive_traffic(&mut original, seed, steps);

    let bytes = original.snapshot_bytes();
    let mut restored = AnyPredictor::from_snapshot_bytes(&bytes)
        .map_err(|e| diverged(format!("restore failed: {e}")))?;
    if restored.snapshot_bytes() != bytes {
        return Err(diverged("restored state re-encodes differently".into()));
    }
    if restored.entry_count() != original.entry_count() {
        return Err(diverged(format!(
            "entry count {} != original {}",
            restored.entry_count(),
            original.entry_count()
        )));
    }
    let (f1, f2) = (fingerprint(&original, &pcs), fingerprint(&restored, &pcs));
    if let Some(i) = f1.iter().zip(&f2).position(|(a, b)| a != b) {
        return Err(diverged(format!(
            "probe pc {:#x} answers {:?} on original, {:?} on restored",
            pcs[i], f1[i], f2[i]
        )));
    }

    // Hidden state: continue both under identical traffic and require they
    // stay in lockstep.
    let cont = steps / 2;
    drive_traffic(&mut original, seed ^ 0xC0FF_EE00, cont);
    drive_traffic(&mut restored, seed ^ 0xC0FF_EE00, cont);
    let (f1, f2) = (fingerprint(&original, &pcs), fingerprint(&restored, &pcs));
    if let Some(i) = f1.iter().zip(&f2).position(|(a, b)| a != b) {
        return Err(diverged(format!(
            "diverged after restore: continued traffic answers {:?} vs {:?} at pc {:#x}",
            f1[i], f2[i], pcs[i]
        )));
    }
    if restored.snapshot_bytes() != original.snapshot_bytes() {
        return Err(diverged(
            "continued traffic produced different snapshot payloads".into(),
        ));
    }
    Ok(())
}

/// Sampled-simulation determinism: planning, functional warm-up and
/// projection are promised to be pure functions of (trace, kind, core,
/// config). Runs the cluster-and-project pipeline twice and requires
/// bit-identical interval assignments, representatives and projected
/// statistics — the property the bench harness's prep cache and the
/// `sampling --check` gate both lean on.
///
/// # Errors
///
/// [`DiffError::SampledDiverged`] naming the diverging stage.
pub fn check_sampled_determinism(
    trace: &Trace,
    core: &CoreConfig,
    kind: PredictorKind,
    cfg: &SamplingConfig,
) -> Result<SampledOutcome, DiffError> {
    let diverged = |detail: String| DiffError::SampledDiverged { kind, detail };
    let first = run_sampled(trace, kind, core, cfg);
    let second = run_sampled(trace, kind, core, cfg);
    if first.plan.assignments != second.plan.assignments {
        return Err(diverged(format!(
            "cluster assignments differ ({:?} vs {:?})",
            first.plan.assignments, second.plan.assignments
        )));
    }
    let reps = |o: &SampledOutcome| -> Vec<usize> {
        o.plan.clusters.iter().map(|c| c.representative).collect()
    };
    if reps(&first) != reps(&second) {
        return Err(diverged(format!(
            "representatives differ ({:?} vs {:?})",
            reps(&first),
            reps(&second)
        )));
    }
    if first.projected != second.projected {
        return Err(diverged(format!(
            "projected stats differ (ipc {} vs {})",
            first.projected.ipc(),
            second.projected.ipc()
        )));
    }
    if first != second {
        return Err(diverged("outcomes differ outside plan/projection".into()));
    }
    Ok(first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mascot_workloads::{generate, spec};

    #[test]
    fn sampled_runs_deterministic_on_generated_workload() {
        let profile = spec::profile("exchange2").expect("known profile");
        let trace = generate(&profile, 11, 16_000);
        let cfg = SamplingConfig {
            interval_uops: 2_000,
            clusters: 3,
            warmup_uops: 500,
            ..SamplingConfig::default()
        };
        let outcome = check_sampled_determinism(
            &trace,
            &CoreConfig::golden_cove(),
            PredictorKind::Mascot,
            &cfg,
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(outcome.represented_uops, trace.len() as u64);
    }

    #[test]
    fn deterministic_on_generated_workloads() {
        let profile = spec::profile("exchange2").expect("known profile");
        let trace = generate(&profile, 11, 5_000);
        for kind in [PredictorKind::Mascot, PredictorKind::StoreSets] {
            let stats = check_determinism(&trace, &CoreConfig::golden_cove(), kind)
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert_eq!(stats.committed_uops, trace.len() as u64);
        }
    }

    #[test]
    fn batch_matches_scalar_on_every_kind() {
        for kind in PredictorKind::ALL {
            check_batch_equivalence(kind, 0xB47C, 2_000)
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        }
    }

    #[test]
    fn snapshot_roundtrips_on_every_kind() {
        for kind in PredictorKind::ALL {
            check_snapshot_roundtrip(kind, 0x5AAF, 1_500)
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        }
    }

    #[test]
    fn mdp_only_agrees_with_demoted_mascot() {
        for name in ["perlbench2", "bwaves", "mcf"] {
            let profile = spec::profile(name).expect("known profile");
            let trace = generate(&profile, 3, 8_000);
            check_mdp_agreement(&trace).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}
