//! The simulator's side of the paper's Fig. 4 contract: the memory
//! dependence predictor is consulted when a load dispatches and trained
//! once when it commits. A counting wrapper around a real predictor checks
//! both on generated traces.

use mascot::history::BranchEvent;
use mascot::prediction::{
    GroundTruth, LoadOutcome, MemDepPrediction, MemDepPredictor, StoreDistance,
};
use mascot_predictors::PredictorKind;
use mascot_sim::{simulate, CoreConfig, SimStats, Trace, UopKind};
use mascot_workloads::{generate, spec};

/// Forwards every call to `inner` and counts `predict` and `train`.
#[derive(Debug)]
struct Counting<P> {
    inner: P,
    predicts: u64,
    trains: u64,
}

impl<P> Counting<P> {
    fn new(inner: P) -> Self {
        Self {
            inner,
            predicts: 0,
            trains: 0,
        }
    }
}

impl<P: MemDepPredictor> MemDepPredictor for Counting<P> {
    type Meta = P::Meta;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn predict(
        &mut self,
        pc: u64,
        store_seq: u64,
        oracle: Option<&GroundTruth>,
    ) -> (MemDepPrediction, P::Meta) {
        self.predicts += 1;
        self.inner.predict(pc, store_seq, oracle)
    }

    fn train(
        &mut self,
        pc: u64,
        meta: P::Meta,
        predicted: MemDepPrediction,
        outcome: &LoadOutcome,
    ) {
        self.trains += 1;
        self.inner.train(pc, meta, predicted, outcome);
    }

    fn on_branch(&mut self, event: &BranchEvent) {
        self.inner.on_branch(event);
    }

    fn rewind_history(&mut self, recent: &[BranchEvent]) {
        self.inner.rewind_history(recent);
    }

    fn on_store_dispatch(&mut self, pc: u64, store_seq: u64) {
        self.inner.on_store_dispatch(pc, store_seq);
    }

    fn predict_store_wait(&mut self, pc: u64, store_seq: u64) -> Option<StoreDistance> {
        self.inner.predict_store_wait(pc, store_seq)
    }

    fn bypass_supports_offset(&self) -> bool {
        self.inner.bypass_supports_offset()
    }

    fn storage_bits(&self) -> u64 {
        self.inner.storage_bits()
    }

    fn end_tuning_period(&mut self) {
        self.inner.end_tuning_period();
    }
}

fn trace(profile: &str, uops: usize) -> Trace {
    generate(&spec::profile(profile).expect("known profile"), 2025, uops)
}

fn loads_in(trace: &Trace) -> u64 {
    trace
        .uops
        .iter()
        .filter(|u| matches!(u.kind, UopKind::Load { .. }))
        .count() as u64
}

fn run(trace: &Trace, kind: PredictorKind) -> (SimStats, Counting<impl MemDepPredictor>) {
    let mut pred = Counting::new(kind.build());
    let stats = simulate(trace, &CoreConfig::golden_cove(), &mut pred);
    (stats, pred)
}

/// Without squashes every load dispatches exactly once, so it is predicted
/// exactly once. Perfect MDP never squashes on memory order, and a branch
/// mispredict stalls fetch instead of squashing.
#[test]
fn squash_free_run_predicts_each_load_once() {
    let trace = trace("perlbench2", 40_000);
    let (stats, pred) = run(&trace, PredictorKind::PerfectMdp);
    assert_eq!(stats.mem_order_squashes + stats.smb_squashes, 0);
    assert!(stats.branch_mispredicts > 0, "no fetch redirects exercised");
    assert_eq!(stats.committed_loads, loads_in(&trace));
    assert_eq!(pred.predicts, stats.committed_loads);
    assert_eq!(pred.trains, stats.committed_loads);
}

/// A squash re-dispatches, and so re-predicts, the loads behind it, but
/// each load still trains exactly once, when it commits. This is the
/// squash-heavy golden cell (bwaves under NoSQ at 150k uops).
#[test]
fn squashing_run_trains_each_committed_load_once() {
    let trace = trace("bwaves", 150_000);
    let (stats, pred) = run(&trace, PredictorKind::NoSq);
    assert!(
        stats.mem_order_squashes + stats.smb_squashes > 0,
        "no squash"
    );
    assert_eq!(stats.committed_loads, loads_in(&trace));
    assert_eq!(pred.trains, stats.committed_loads);
    assert!(pred.predicts > stats.committed_loads, "replays re-predict");
}
