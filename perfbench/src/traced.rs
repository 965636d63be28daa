//! A pass-through [`MemDepPredictor`] that times every call into the
//! wrapped predictor. Handed to `Simulator::new` in place of the bare
//! `AnyPredictor`, it attributes host time to the `predictors` layer
//! without changing a single prediction: every method forwards to the
//! inner predictor's own implementation, batched calls included.

use std::time::Instant;

use mascot::history::BranchEvent;
use mascot::prediction::{
    GroundTruth, LoadOutcome, MemDepPrediction, MemDepPredictor, PredictReq, StoreDistance,
    TrainReq,
};

use crate::tracing::Agg;

/// Call aggregates of one predictor, by call family.
#[derive(Debug, Default, Clone)]
pub struct PredictorCalls {
    /// `predict`, `predict_batch` and `predict_store_wait`.
    pub predict: Agg,
    /// `train` and `train_batch`.
    pub train: Agg,
    /// `on_branch`, `rewind_history` and `on_store_dispatch`.
    pub history: Agg,
}

impl PredictorCalls {
    /// Host time spent inside the predictor, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.predict.total_ns + self.train.total_ns + self.history.total_ns
    }
}

/// Times every call into `P`; see the module docs.
#[derive(Debug)]
pub struct Traced<P> {
    inner: P,
    calls: PredictorCalls,
}

impl<P> Traced<P> {
    /// Wraps `inner` with empty call aggregates.
    pub fn new(inner: P) -> Self {
        Self {
            inner,
            calls: PredictorCalls::default(),
        }
    }

    /// The call aggregates recorded so far.
    pub fn calls(&self) -> &PredictorCalls {
        &self.calls
    }
}

impl<P: MemDepPredictor> MemDepPredictor for Traced<P> {
    type Meta = P::Meta;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn predict(
        &mut self,
        pc: u64,
        store_seq: u64,
        oracle: Option<&GroundTruth>,
    ) -> (MemDepPrediction, Self::Meta) {
        let t0 = Instant::now();
        let out = self.inner.predict(pc, store_seq, oracle);
        self.calls.predict.record_since(t0);
        out
    }

    fn predict_batch(
        &mut self,
        reqs: &[PredictReq],
        out: &mut Vec<(MemDepPrediction, Self::Meta)>,
    ) {
        let t0 = Instant::now();
        self.inner.predict_batch(reqs, out);
        self.calls.predict.record_since(t0);
    }

    fn train(
        &mut self,
        pc: u64,
        meta: Self::Meta,
        predicted: MemDepPrediction,
        outcome: &LoadOutcome,
    ) {
        let t0 = Instant::now();
        self.inner.train(pc, meta, predicted, outcome);
        self.calls.train.record_since(t0);
    }

    fn train_batch(&mut self, reqs: &mut Vec<TrainReq<Self::Meta>>) {
        let t0 = Instant::now();
        self.inner.train_batch(reqs);
        self.calls.train.record_since(t0);
    }

    fn on_branch(&mut self, event: &BranchEvent) {
        let t0 = Instant::now();
        self.inner.on_branch(event);
        self.calls.history.record_since(t0);
    }

    fn rewind_history(&mut self, recent: &[BranchEvent]) {
        let t0 = Instant::now();
        self.inner.rewind_history(recent);
        self.calls.history.record_since(t0);
    }

    fn on_store_dispatch(&mut self, pc: u64, store_seq: u64) {
        let t0 = Instant::now();
        self.inner.on_store_dispatch(pc, store_seq);
        self.calls.history.record_since(t0);
    }

    fn predict_store_wait(&mut self, pc: u64, store_seq: u64) -> Option<StoreDistance> {
        let t0 = Instant::now();
        let out = self.inner.predict_store_wait(pc, store_seq);
        self.calls.predict.record_since(t0);
        out
    }

    fn bypass_supports_offset(&self) -> bool {
        self.inner.bypass_supports_offset()
    }

    fn storage_bits(&self) -> u64 {
        self.inner.storage_bits()
    }

    fn storage_kib(&self) -> f64 {
        self.inner.storage_kib()
    }

    fn end_tuning_period(&mut self) {
        self.inner.end_tuning_period();
    }
}
