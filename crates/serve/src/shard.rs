//! The shard pool: PC-hash partitions of the service, each owning a private
//! predictor instance and pending-ticket slab, run to completion on the
//! calling thread.
//!
//! Requests are routed by a hash of the load PC, so every dynamic instance
//! of a load trains and queries the *same* predictor — the property the
//! PC-indexed tables rely on — while shards share nothing with each other.
//! There are no worker threads and no queues: [`ShardPool::send`] (and,
//! inside the crate, `ShardPool::predict` / `ShardPool::train`) execute
//! the job on the caller's thread (in `mascotd`, the event loop) under the
//! shard's own `Mutex`, and return once it is done. The server calls from
//! one thread, so the locks are never contended; they only make the pool
//! `Sync`. A shard's counters ([`ShardStats`]) and service-time
//! [`Histogram`] live in its state under that same lock: every job bumps
//! them with plain adds, and [`ShardPool::stats_report`] reads them.
//!
//! Because [`mascot::MemDepPredictor`] threads opaque metadata from
//! `predict` to `train`, each shard keeps a fixed-size *pending table*: a
//! predict call parks `(pc, prediction, meta)` in a slot and returns the
//! slot's ticket; the train call quotes the ticket to retrieve them. A
//! ticket whose slot has been reused (the prediction outlived the window)
//! counts as a stale train and is dropped — predictor state is never
//! trained with someone else's metadata.

use std::sync::mpsc::Sender;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use mascot::history::BranchEvent;
use mascot::prediction::{MemDepPrediction, MemDepPredictor, PredictReq, TrainReq};
use mascot_predictors::{AnyMeta, AnyPredictor, PredictorKind};

use crate::metrics::Histogram;
use crate::wire::{PredictItem, PredictReply, ShardStats, StatsReport, TrainItem};

/// Default shard count.
pub const DEFAULT_SHARDS: usize = 4;
/// Default pending-prediction slots per shard (power of two).
pub const DEFAULT_PENDING_CAPACITY: usize = 1 << 15;

/// Sizing knobs for a [`ShardPool`].
#[derive(Debug, Clone)]
pub struct ShardPoolConfig {
    /// Number of shards (predictor instances).
    pub shards: usize,
    /// Pending-prediction slots per shard (rounded up to a power of two).
    pub pending_capacity: usize,
    /// Treat a pending-table eviction as fatal instead of a silent drop.
    ///
    /// A `predict` whose slot is recycled before its `train` arrives is
    /// normally just counted (`evicted_pending`) and the late train goes
    /// stale — acceptable under overload, but in an audit run it means the
    /// deployment's in-flight window exceeds `pending_capacity` and
    /// training silently diverges from the measured workload. `mascotd
    /// --audit` runs with this set.
    pub strict_tickets: bool,
}

impl Default for ShardPoolConfig {
    fn default() -> Self {
        Self {
            shards: DEFAULT_SHARDS,
            pending_capacity: DEFAULT_PENDING_CAPACITY,
            strict_tickets: false,
        }
    }
}

/// A predictor-state event broadcast to every shard (replay traffic).
#[derive(Debug, Clone, Copy)]
pub enum SyncEvent {
    /// A committed-path branch.
    Branch(BranchEvent),
    /// A store dispatch.
    StoreDispatch {
        /// PC of the store.
        pc: u64,
        /// Sequence number of the store.
        store_seq: u64,
    },
}

/// Where [`ShardPool::send`] delivers a job's reply: a channel the caller
/// reads after `send` returns.
#[derive(Debug, Clone)]
pub struct ReplySink {
    tx: Sender<(u64, ShardReply)>,
}

impl ReplySink {
    /// A sink delivering to `tx`.
    pub fn new(tx: Sender<(u64, ShardReply)>) -> Self {
        Self { tx }
    }

    /// Delivers one reply. A gone receiver is fine — the work is already
    /// done either way.
    pub fn send(&self, tag: u64, reply: ShardReply) {
        let _ = self.tx.send((tag, reply));
    }
}

/// A unit of work for [`ShardPool::send`].
#[derive(Debug)]
pub enum ShardJob {
    /// Predict a sub-batch; the reply carries `tag`.
    Predict {
        /// The items, all owned by this shard.
        items: Vec<PredictItem>,
        /// Caller-chosen tag echoed in the reply.
        tag: u64,
        /// Where to deliver the reply.
        reply: ReplySink,
    },
    /// Train from a sub-batch of outcomes.
    Train {
        /// The items, all owned by this shard.
        items: Vec<TrainItem>,
        /// Caller-chosen tag echoed in the reply.
        tag: u64,
        /// Where to deliver the reply.
        reply: ReplySink,
    },
}

/// A shard's answer to a [`ShardJob`].
#[derive(Debug)]
pub enum ShardReply {
    /// Predictions, in sub-batch order.
    Predict(Vec<PredictReply>),
    /// Training summary for the sub-batch.
    Train {
        /// Items whose ticket matched.
        applied: u32,
        /// Items dropped on a stale ticket.
        stale: u32,
    },
}

/// A reply slot not yet written by [`ShardPool::predict`].
pub(crate) const UNANSWERED: PredictReply = PredictReply {
    ticket: 0,
    prediction: MemDepPrediction::NoDependence,
};

/// Routes a PC to a shard: multiply-shift mixing (fibonacci hashing) so
/// that the low bits of the shard index depend on every bit of the PC —
/// stride-patterned PCs must not all land on one shard.
#[inline]
pub fn shard_of(pc: u64, shards: usize) -> usize {
    debug_assert!(shards > 0);
    let mixed = pc.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    ((mixed >> 32) as usize) % shards
}

/// A parked prediction awaiting its training outcome.
struct Pending {
    ticket: u32,
    pc: u64,
    prediction: mascot::prediction::MemDepPrediction,
    meta: AnyMeta,
}

/// Fixed-capacity, ticket-indexed open slab. Tickets increase monotonically
/// per shard; slot = ticket % capacity, so a slot naturally evicts the
/// prediction `capacity` tickets older — matching the intuition that
/// training interest decays with age.
struct PendingTable {
    slots: Vec<Option<Pending>>,
    mask: u32,
    next_ticket: u32,
}

impl PendingTable {
    fn new(capacity: usize) -> Self {
        let capacity = capacity.next_power_of_two().max(2);
        Self {
            slots: (0..capacity).map(|_| None).collect(),
            mask: capacity as u32 - 1,
            next_ticket: 0,
        }
    }

    /// Parks a prediction and returns `(ticket, evicted)`: `evicted` is
    /// true when the slot still held an untrained prediction (the window
    /// outran the table and that older ticket is now silently stale).
    fn insert(
        &mut self,
        pc: u64,
        prediction: mascot::prediction::MemDepPrediction,
        meta: AnyMeta,
    ) -> (u32, bool) {
        let ticket = self.next_ticket;
        self.next_ticket = self.next_ticket.wrapping_add(1);
        let slot = &mut self.slots[(ticket & self.mask) as usize];
        let evicted = slot.is_some();
        *slot = Some(Pending {
            ticket,
            pc,
            prediction,
            meta,
        });
        (ticket, evicted)
    }

    fn take(&mut self, ticket: u32, pc: u64) -> Option<Pending> {
        let slot = &mut self.slots[(ticket & self.mask) as usize];
        match slot {
            Some(p) if p.ticket == ticket && p.pc == pc => slot.take(),
            _ => None,
        }
    }
}

/// Scratch for the batched predictor calls: one request build, one
/// `predict_batch`/`train_batch` per job, no per-item predictor dispatch.
#[derive(Default)]
struct BatchScratch {
    reqs: Vec<PredictReq>,
    out: Vec<(MemDepPrediction, AnyMeta)>,
    trains: Vec<TrainReq<AnyMeta>>,
}

/// One shard's state, counters included.
struct Shard {
    predictor: AnyPredictor,
    pending: PendingTable,
    scratch: BatchScratch,
    /// Work counters. The service-time fields stay 0 here; `stats_report`
    /// fills them from `service`.
    stats: ShardStats,
    /// Per-job service time.
    service: Histogram,
}

/// The pool: per-shard state behind per-shard locks.
pub struct ShardPool {
    shards: Vec<Mutex<Shard>>,
    strict_tickets: bool,
}

impl std::fmt::Debug for ShardPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPool")
            .field("shards", &self.shards.len())
            .field("strict_tickets", &self.strict_tickets)
            .finish()
    }
}

impl ShardPool {
    /// Builds `cfg.shards` shards, each owning a freshly built `kind`
    /// predictor.
    pub fn new(kind: PredictorKind, cfg: &ShardPoolConfig) -> Self {
        assert!(cfg.shards > 0, "at least one shard");
        Self::with_predictors((0..cfg.shards).map(|_| kind.build()).collect(), cfg)
    }

    /// Builds one shard per element of `predictors`, each owning its
    /// pre-built (e.g. snapshot-restored) predictor and reporting that
    /// predictor's entry count as `restored_entries` (0 for a fresh one).
    /// `cfg.shards` is ignored; the pool's shard count is
    /// `predictors.len()`.
    pub fn with_predictors(predictors: Vec<AnyPredictor>, cfg: &ShardPoolConfig) -> Self {
        assert!(!predictors.is_empty(), "at least one shard");
        let shards = predictors
            .into_iter()
            .map(|predictor| {
                Mutex::new(Shard {
                    stats: ShardStats {
                        restored_entries: predictor.entry_count(),
                        ..ShardStats::default()
                    },
                    predictor,
                    pending: PendingTable::new(cfg.pending_capacity),
                    scratch: BatchScratch::default(),
                    service: Histogram::new(),
                })
            })
            .collect();
        Self {
            shards,
            strict_tickets: cfg.strict_tickets,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `pc`.
    pub fn shard_of(&self, pc: u64) -> usize {
        shard_of(pc, self.shards.len())
    }

    /// Runs `job` on `shard` and delivers its reply to the job's sink
    /// before returning.
    ///
    /// # Panics
    ///
    /// As `ShardPool::predict`.
    pub fn send(&self, shard: usize, job: ShardJob) {
        match job {
            ShardJob::Predict { items, tag, reply } => {
                reply.send(tag, ShardReply::Predict(self.predict_all(shard, &items)));
            }
            ShardJob::Train { items, tag, reply } => {
                let (applied, stale) = self.train(shard, &items, 0..items.len());
                reply.send(tag, ShardReply::Train { applied, stale });
            }
        }
    }

    /// Predicts all of `items` (owned by `shard`); replies in order.
    ///
    /// # Panics
    ///
    /// As `ShardPool::predict`.
    pub(crate) fn predict_all(&self, shard: usize, items: &[PredictItem]) -> Vec<PredictReply> {
        let mut out = vec![UNANSWERED; items.len()];
        self.predict(shard, items, 0..items.len(), &mut out);
        out
    }

    /// Predicts `items[i]` for every `i` in `idxs` (all owned by `shard`),
    /// in `idxs` order, parks each prediction for its train, and writes its
    /// reply to `out[i]`.
    ///
    /// # Panics
    ///
    /// Under `strict_tickets`, when parking recycles a slot whose
    /// prediction was never trained. The shard is dead from then on: every
    /// later call on it panics too, and so does [`ShardPool::shutdown`].
    pub(crate) fn predict(
        &self,
        shard: usize,
        items: &[PredictItem],
        idxs: impl Iterator<Item = usize> + Clone,
        out: &mut [PredictReply],
    ) {
        let strict_tickets = self.strict_tickets;
        self.run(shard, |s| {
            let Shard {
                predictor,
                pending,
                scratch,
                stats,
                ..
            } = s;
            scratch.reqs.clear();
            scratch.reqs.extend(idxs.clone().map(|i| PredictReq {
                pc: items[i].pc,
                store_seq: items[i].store_seq,
                oracle: None,
            }));
            let n = scratch.reqs.len() as u64;
            predictor.predict_batch(&scratch.reqs, &mut scratch.out);
            let mut evicted = 0u64;
            for (i, (prediction, meta)) in idxs.zip(scratch.out.drain(..)) {
                let (ticket, evicted_one) = pending.insert(items[i].pc, prediction, meta);
                evicted += u64::from(evicted_one);
                out[i] = PredictReply { ticket, prediction };
            }
            if evicted > 0 {
                stats.evicted_pending += evicted;
                assert!(
                    !strict_tickets,
                    "pending-table eviction under strict_tickets: {evicted} \
                     in-flight prediction(s) recycled before their train \
                     arrived (capacity {}); raise pending_capacity or lower \
                     the in-flight window",
                    pending.slots.len(),
                );
            }
            stats.predicts += n;
            stats.requests += n;
        });
    }

    /// Trains `shard` from `items[i]` for every `i` in `idxs` (all owned by
    /// it), each quoting the ticket of its prediction. Returns `(applied,
    /// stale)`.
    pub(crate) fn train(
        &self,
        shard: usize,
        items: &[TrainItem],
        idxs: impl Iterator<Item = usize>,
    ) -> (u32, u32) {
        self.run(shard, |s| {
            let Shard {
                predictor,
                pending,
                scratch,
                stats,
                ..
            } = s;
            let (mut applied, mut stale) = (0u32, 0u32);
            scratch.trains.clear();
            for item in idxs.map(|i| &items[i]) {
                match pending.take(item.ticket, item.pc) {
                    Some(p) => {
                        // Misprediction taxonomy of the drained outcomes (the
                        // serving mirror of the simulator's per-tenant
                        // pollution counters).
                        match (&p.prediction, item.outcome.dependence.is_some()) {
                            (MemDepPrediction::NoDependence, true) => {
                                stats.missed_dependencies += 1;
                            }
                            (MemDepPrediction::Dependence { .. }, false) => {
                                stats.false_dependencies += 1;
                            }
                            (MemDepPrediction::Bypass { .. }, false) => stats.false_bypasses += 1,
                            _ => {}
                        }
                        scratch.trains.push(TrainReq {
                            pc: item.pc,
                            meta: p.meta,
                            predicted: p.prediction,
                            outcome: item.outcome,
                        });
                        applied += 1;
                    }
                    None => stale += 1,
                }
            }
            predictor.train_batch(&mut scratch.trains);
            stats.trains += u64::from(applied);
            stats.stale_trains += u64::from(stale);
            stats.requests += u64::from(applied + stale);
            (applied, stale)
        })
    }

    /// Applies predictor-state events to every shard.
    pub fn broadcast_sync(&self, events: &[SyncEvent]) {
        if events.is_empty() {
            return;
        }
        for shard in 0..self.shards.len() {
            self.run(shard, |s| {
                for event in events {
                    match *event {
                        SyncEvent::Branch(e) => s.predictor.on_branch(&e),
                        SyncEvent::StoreDispatch { pc, store_seq } => {
                            s.predictor.on_store_dispatch(pc, store_seq);
                        }
                    }
                }
            });
        }
    }

    /// Encodes every shard's predictor state, in shard order.
    pub fn snapshot_shards(&self) -> Vec<Vec<u8>> {
        (0..self.shards.len())
            .map(|shard| self.run(shard, |s| s.predictor.snapshot_bytes()))
            .collect()
    }

    /// Swaps one pre-built predictor into each shard (in shard order),
    /// clears the pending tables — parked tickets reference metadata from
    /// the predictors being replaced — and records each shard's restored
    /// entry count in its counters. Returns the total across shards.
    ///
    /// # Panics
    ///
    /// When `predictors.len()` differs from the pool's shard count — the
    /// caller performs any resharding *before* handing the pool its new
    /// per-shard states.
    pub fn restore_shards(&self, predictors: Vec<AnyPredictor>) -> u64 {
        assert_eq!(
            predictors.len(),
            self.shards.len(),
            "one replacement predictor per shard"
        );
        let mut total = 0u64;
        for (shard, predictor) in predictors.into_iter().enumerate() {
            total += self.run(shard, |s| {
                s.predictor = predictor;
                s.pending = PendingTable::new(s.pending.slots.len());
                s.stats.restored_entries = s.predictor.entry_count();
                s.stats.restored_entries
            });
        }
        total
    }

    /// Stamps the warm-start observability counters (snapshot age at
    /// restore, checkpoint/restore generation) on every shard.
    pub fn set_warm_start(&self, snapshot_age_s: u64, restarts: u64) {
        for shard in 0..self.shards.len() {
            let stats = &mut self.lock(shard).stats;
            stats.snapshot_age_s = snapshot_age_s;
            stats.restarts = restarts;
        }
    }

    /// Copies every shard's counters. A shard that died of a panic (see
    /// [`ShardPool::shutdown`]) still reports what it counted before it
    /// died: each counter update is a single add, so a panic leaves none
    /// half-written, and reading through the poison is sound.
    pub fn stats_report(&self) -> StatsReport {
        let shards = self
            .shards
            .iter()
            .map(|shard| {
                let s = shard.lock().unwrap_or_else(PoisonError::into_inner);
                ShardStats {
                    service_samples: s.service.total(),
                    service_p50_ns: s.service.quantile_ns(0.50),
                    service_p99_ns: s.service.quantile_ns(0.99),
                    ..s.stats
                }
            })
            .collect();
        StatsReport { shards }
    }

    /// Consumes the pool and returns its final statistics.
    ///
    /// # Panics
    ///
    /// When a shard died of a panic — most notably the `strict_tickets`
    /// pending-eviction hard error — so an audit run that caught the panic
    /// still cannot report a clean exit.
    pub fn shutdown(self) -> StatsReport {
        let dead_shards = self.shards.iter().filter(|s| s.is_poisoned()).count();
        assert_eq!(
            dead_shards, 0,
            "{dead_shards} shard(s) panicked (see stderr)"
        );
        self.stats_report()
    }

    /// Runs `f` on `shard`'s state and records it as one job in the
    /// shard's counters (one `batches` count, one service-time sample).
    fn run<R>(&self, shard: usize, f: impl FnOnce(&mut Shard) -> R) -> R {
        let mut state = self.lock(shard);
        let t0 = Instant::now();
        let result = f(&mut state);
        state.stats.batches += 1;
        state
            .service
            .record_ns(t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
        result
    }

    /// Locks `shard`'s state.
    ///
    /// # Panics
    ///
    /// When the shard died of an earlier panic.
    fn lock(&self, shard: usize) -> MutexGuard<'_, Shard> {
        self.shards[shard]
            .lock()
            .unwrap_or_else(|_| panic!("shard {shard} died of an earlier panic"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    fn predict_job(pcs: &[u64], tag: u64, reply: &Sender<(u64, ShardReply)>) -> ShardJob {
        ShardJob::Predict {
            items: pcs
                .iter()
                .map(|&pc| PredictItem { pc, store_seq: 0 })
                .collect(),
            tag,
            reply: ReplySink::new(reply.clone()),
        }
    }

    #[test]
    fn routing_is_deterministic_and_spread() {
        let mut seen = [false; 8];
        // Stride-4 PCs (typical code addresses) must hit several shards.
        for i in 0..512u64 {
            let s = shard_of(0x40_0000 + i * 4, 8);
            assert_eq!(s, shard_of(0x40_0000 + i * 4, 8));
            seen[s] = true;
        }
        assert!(seen.iter().filter(|&&b| b).count() >= 6);
    }

    #[test]
    fn predict_then_train_applies_metadata() {
        let pool = ShardPool::new(PredictorKind::Mascot, &ShardPoolConfig::default());
        let (tx, rx) = channel();
        let pc = 0x1234u64;
        let shard = pool.shard_of(pc);
        pool.send(shard, predict_job(&[pc, pc, pc], 7, &tx));
        let (tag, reply) = rx.recv().unwrap();
        assert_eq!(tag, 7);
        let replies = match reply {
            ShardReply::Predict(r) => r,
            other => panic!("expected predict reply, got {other:?}"),
        };
        assert_eq!(replies.len(), 3);
        // Train each ticket once; all must apply.
        let items: Vec<TrainItem> = replies
            .iter()
            .map(|r| TrainItem {
                ticket: r.ticket,
                pc,
                outcome: mascot::prediction::LoadOutcome::independent(),
            })
            .collect();
        pool.send(
            shard,
            ShardJob::Train {
                items: items.clone(),
                tag: 8,
                reply: ReplySink::new(tx.clone()),
            },
        );
        match rx.recv().unwrap() {
            (8, ShardReply::Train { applied, stale }) => {
                assert_eq!((applied, stale), (3, 0));
            }
            other => panic!("unexpected reply {other:?}"),
        }
        // Replaying the same tickets is stale, not a retrain.
        pool.send(
            shard,
            ShardJob::Train {
                items,
                tag: 9,
                reply: ReplySink::new(tx.clone()),
            },
        );
        match rx.recv().unwrap() {
            (9, ShardReply::Train { applied, stale }) => {
                assert_eq!((applied, stale), (0, 3));
            }
            other => panic!("unexpected reply {other:?}"),
        }
        let report = pool.shutdown();
        assert_eq!(report.total_predicts(), 3);
        assert_eq!(report.total_trains(), 3);
        assert_eq!(report.shards[shard].stale_trains, 3);
        assert_eq!(report.total_requests(), 9);
    }

    /// The run-to-completion contract: by the time `send` returns, the job
    /// has run and its reply sits in the sink — `try_recv`, never `recv`,
    /// finds it — and the shard counts exactly one job per `send`.
    #[test]
    fn send_delivers_the_reply_before_returning() {
        let cfg = ShardPoolConfig {
            shards: 2,
            ..Default::default()
        };
        let pool = ShardPool::new(PredictorKind::Mascot, &cfg);
        let (tx, rx) = channel();
        for (tag, pc) in (0u64..).zip([0x40u64, 0x44, 0x48, 0x4c, 0x50]) {
            let shard = pool.shard_of(pc);
            pool.send(shard, predict_job(&[pc], tag, &tx));
            let ticket = match rx.try_recv() {
                Ok((t, ShardReply::Predict(r))) if t == tag => r[0].ticket,
                other => panic!("predict reply not delivered by send: {other:?}"),
            };
            pool.send(
                shard,
                ShardJob::Train {
                    items: vec![TrainItem {
                        ticket,
                        pc,
                        outcome: mascot::prediction::LoadOutcome::independent(),
                    }],
                    tag,
                    reply: ReplySink::new(tx.clone()),
                },
            );
            match rx.try_recv() {
                Ok((
                    t,
                    ShardReply::Train {
                        applied: 1,
                        stale: 0,
                    },
                )) if t == tag => {}
                other => panic!("train reply not delivered by send: {other:?}"),
            }
        }
        assert!(rx.try_recv().is_err(), "one reply per job");
        let report = pool.shutdown();
        assert_eq!(report.total_trains(), 5);
        let jobs: u64 = report.shards.iter().map(|s| s.batches).sum();
        let samples: u64 = report.shards.iter().map(|s| s.service_samples).sum();
        assert_eq!(
            (jobs, samples),
            (10, 10),
            "one batch and one sample per job"
        );
    }

    #[test]
    fn wrong_pc_on_ticket_is_stale() {
        let pool = ShardPool::new(PredictorKind::StoreSets, &ShardPoolConfig::default());
        let (tx, rx) = channel();
        let pc = 0x40u64;
        let shard = pool.shard_of(pc);
        pool.send(shard, predict_job(&[pc], 0, &tx));
        let ticket = match rx.recv().unwrap().1 {
            ShardReply::Predict(r) => r[0].ticket,
            other => panic!("unexpected reply {other:?}"),
        };
        pool.send(
            shard,
            ShardJob::Train {
                items: vec![TrainItem {
                    ticket,
                    pc: pc + 8, // lies about the pc
                    outcome: mascot::prediction::LoadOutcome::independent(),
                }],
                tag: 1,
                reply: ReplySink::new(tx),
            },
        );
        match rx.recv().unwrap().1 {
            ShardReply::Train { applied, stale } => assert_eq!((applied, stale), (0, 1)),
            other => panic!("unexpected reply {other:?}"),
        }
        pool.shutdown();
    }

    #[test]
    fn pending_table_evicts_after_capacity_wraps() {
        let mut table = PendingTable::new(2);
        let p = mascot::prediction::MemDepPrediction::NoDependence;
        let (t0, e0) = table.insert(0x10, p, AnyMeta::Unit);
        let (_t1, e1) = table.insert(0x14, p, AnyMeta::Unit);
        let (_t2, e2) = table.insert(0x18, p, AnyMeta::Unit); // evicts t0's slot
        assert!(!e0 && !e1, "fresh slots are not evictions");
        assert!(e2, "wrapping onto an occupied slot reports the eviction");
        assert!(table.take(t0, 0x10).is_none(), "evicted ticket is stale");
        assert!(table.take(_t2, 0x18).is_some());
        assert!(table.take(_t1, 0x14).is_some());
        assert!(table.take(_t1, 0x14).is_none(), "tickets are single-use");
    }

    /// Property-style check of the ticket slab against a slot-indexed
    /// model: after arbitrary interleavings of inserts (slot reuse) and
    /// takes — including across the `u32` ticket wrap — a take succeeds iff
    /// the slot still holds exactly that (ticket, pc) pair, so a recycled
    /// slot can never satisfy the ticket it evicted. Seeded and offline.
    #[test]
    fn pending_table_matches_model_under_random_reuse() {
        use std::collections::HashMap;

        const CAPACITY: u32 = 8; // tiny: every few inserts recycle a slot
        let mut table = PendingTable::new(CAPACITY as usize);
        table.next_ticket = u32::MAX - 500; // cross the wrap mid-test
        let mut model: HashMap<u32, (u32, u64)> = HashMap::new(); // slot -> (ticket, pc)
        let mut issued: Vec<(u32, u64)> = Vec::new(); // every ticket ever issued

        let mut rng_state = 0x5eed_0123_4567_89abu64;
        let mut rng = move || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            rng_state
        };

        let p = mascot::prediction::MemDepPrediction::NoDependence;
        for round in 0..4_000u32 {
            match rng() % 4 {
                // Insert: the slot's previous occupant (if any) is evicted.
                0 | 1 => {
                    let pc = 0x40_0000 + (rng() % 64) * 4;
                    let (ticket, evicted) = table.insert(pc, p, AnyMeta::Unit);
                    assert_eq!(
                        evicted,
                        model.contains_key(&(ticket % CAPACITY)),
                        "round {round}: eviction flag must track slot occupancy"
                    );
                    model.insert(ticket % CAPACITY, (ticket, pc));
                    issued.push((ticket, pc));
                }
                // Take a previously issued ticket with its true pc.
                2 if !issued.is_empty() => {
                    let (ticket, pc) = issued[(rng() as usize) % issued.len()];
                    let expect_hit = model.get(&(ticket % CAPACITY)) == Some(&(ticket, pc));
                    let got = table.take(ticket, pc);
                    assert_eq!(
                        got.is_some(),
                        expect_hit,
                        "round {round}, ticket {ticket:#x}"
                    );
                    if let Some(pending) = got {
                        assert_eq!((pending.ticket, pending.pc), (ticket, pc));
                        model.remove(&(ticket % CAPACITY));
                    }
                }
                // Take with a lying pc (or a never-issued ticket): never hits.
                _ => {
                    let ticket = if issued.is_empty() || rng() % 2 == 0 {
                        rng() as u32
                    } else {
                        issued[(rng() as usize) % issued.len()].0
                    };
                    let bogus_pc = u64::MAX - u64::from(round);
                    let expect_hit = model.get(&(ticket % CAPACITY)) == Some(&(ticket, bogus_pc));
                    assert_eq!(
                        table.take(ticket, bogus_pc).is_some(),
                        expect_hit,
                        "round {round}, ticket {ticket:#x}"
                    );
                    if expect_hit {
                        model.remove(&(ticket % CAPACITY));
                    }
                }
            }
        }
        // The surviving slots drain exactly once each.
        for (_, (ticket, pc)) in model {
            assert!(table.take(ticket, pc).is_some());
            assert!(table.take(ticket, pc).is_none(), "tickets are single-use");
        }
    }

    /// The 16 load PCs, 4 bytes apart, that [`warmed_pool`] trains.
    const WARM_PCS: std::ops::Range<u64> = 0x5000..0x5040;

    /// A `shards`-wide MASCOT pool trained with 20 rounds of dependent
    /// outcomes on the `WARM_PCS` loads, so its tables hold entries.
    fn warmed_pool(shards: usize) -> ShardPool {
        let cfg = ShardPoolConfig {
            shards,
            ..Default::default()
        };
        let pool = ShardPool::new(PredictorKind::Mascot, &cfg);
        for _ in 0..20 {
            for pc in WARM_PCS.step_by(4) {
                let shard = pool.shard_of(pc);
                let ticket = pool.predict_all(shard, &[PredictItem { pc, store_seq: 0 }])[0].ticket;
                let outcome = mascot::prediction::LoadOutcome::dependent(
                    mascot::prediction::ObservedDependence {
                        distance: mascot::prediction::StoreDistance::new(3).unwrap(),
                        class: mascot::prediction::BypassClass::DirectBypass,
                        store_pc: 0x9000,
                        branches_between: 0,
                    },
                );
                let train = TrainItem {
                    ticket,
                    pc,
                    outcome,
                };
                pool.train(shard, &[train], 0..1);
            }
        }
        pool
    }

    /// The counters a `Stats` request reports are the ones the shard jobs
    /// bumped under the lock, with the service fields filled from the
    /// histogram.
    #[test]
    fn stats_report_counts_shard_work() {
        let pool = ShardPool::new(PredictorKind::Mascot, &ShardPoolConfig::default());
        let pc = 0x40u64;
        let shard = pool.shard_of(pc);
        let items = [PredictItem { pc, store_seq: 0 }; 4];
        let replies = pool.predict_all(shard, &items);
        let trains = [TrainItem {
            ticket: replies[0].ticket,
            pc,
            outcome: mascot::prediction::LoadOutcome::independent(),
        }];
        assert_eq!(pool.train(shard, &trains, 0..1), (1, 0));
        let s = pool.stats_report().shards[shard];
        assert_eq!((s.requests, s.predicts, s.trains), (5, 4, 1));
        assert_eq!((s.batches, s.service_samples), (2, 2));
        assert!(s.service_p50_ns > 0, "a job takes measurable time");
        assert!(s.service_p99_ns >= s.service_p50_ns);
        pool.shutdown();
    }

    /// A pool built from pre-built predictors reports each one's entry
    /// count as restored; a fresh pool reports none.
    #[test]
    fn with_predictors_reports_restored_entries() {
        let cfg = ShardPoolConfig {
            shards: 2,
            ..Default::default()
        };
        let restored = |pool: &ShardPool| -> Vec<u64> {
            let report = pool.stats_report();
            report.shards.iter().map(|s| s.restored_entries).collect()
        };
        let fresh = ShardPool::new(PredictorKind::Mascot, &cfg);
        assert_eq!(restored(&fresh), [0, 0]);
        let predictors: Vec<AnyPredictor> = warmed_pool(2)
            .snapshot_shards()
            .iter()
            .map(|p| AnyPredictor::from_snapshot_bytes(p).expect("valid shard payload"))
            .collect();
        let entries: Vec<u64> = predictors.iter().map(AnyPredictor::entry_count).collect();
        assert!(entries.iter().any(|&n| n > 0), "warm shards carry entries");
        let pool = ShardPool::with_predictors(predictors, &cfg);
        assert_eq!(restored(&pool), entries);
    }

    /// Pool-level state transplant: snapshot a warmed pool shard-by-shard,
    /// restore the payloads into a cold pool of the same width, and require
    /// the cold pool's shards to answer predictions exactly like the warm
    /// ones (and to report the restore in their counters).
    #[test]
    fn snapshot_restore_transplants_pool_state() {
        let cfg = ShardPoolConfig {
            shards: 2,
            ..Default::default()
        };
        let warm = warmed_pool(2);
        let (tx, rx) = channel();
        let payloads = warm.snapshot_shards();
        assert_eq!(payloads.len(), 2);

        let cold = ShardPool::new(PredictorKind::Mascot, &cfg);
        let predictors: Vec<AnyPredictor> = payloads
            .iter()
            .map(|p| AnyPredictor::from_snapshot_bytes(p).expect("valid shard payload"))
            .collect();
        let restored = cold.restore_shards(predictors);
        assert!(restored > 0, "warm shards must carry entries");
        cold.set_warm_start(7, 2);
        let report = cold.stats_report();
        assert_eq!(report.total_restored(), restored);
        assert!(report.shards.iter().all(|s| s.snapshot_age_s == 7));
        assert!(report.shards.iter().all(|s| s.restarts == 2));

        // Both pools must now answer every PC identically.
        for pc in WARM_PCS.step_by(4) {
            let shard = warm.shard_of(pc);
            warm.send(shard, predict_job(&[pc], 1, &tx));
            let warm_reply = match rx.recv().unwrap().1 {
                ShardReply::Predict(r) => r[0].prediction,
                other => panic!("unexpected reply {other:?}"),
            };
            cold.send(shard, predict_job(&[pc], 2, &tx));
            let cold_reply = match rx.recv().unwrap().1 {
                ShardReply::Predict(r) => r[0].prediction,
                other => panic!("unexpected reply {other:?}"),
            };
            assert_eq!(warm_reply, cold_reply, "pc {pc:#x}");
        }
        warm.shutdown();
        cold.shutdown();
    }

    #[test]
    fn sync_events_reach_every_shard() {
        use mascot::history::{BranchEvent, BranchKind};
        let cfg = ShardPoolConfig {
            shards: 3,
            ..Default::default()
        };
        let pool = ShardPool::new(PredictorKind::Mascot, &cfg);
        pool.broadcast_sync(&[
            SyncEvent::Branch(BranchEvent {
                pc: 0x100,
                kind: BranchKind::Conditional,
                taken: true,
                target: 0x200,
            }),
            SyncEvent::StoreDispatch {
                pc: 0x300,
                store_seq: 1,
            },
        ]);
        let report = pool.shutdown();
        assert!(
            report.shards.iter().all(|s| s.batches == 1),
            "every shard ran the broadcast exactly once"
        );
    }

    /// Repro for the in-flight-window overrun the audit flushed out: with a
    /// pending table smaller than the number of outstanding predictions,
    /// the oldest tickets are recycled before their trains arrive. The
    /// default (non-strict) pool must surface that as `evicted_pending`
    /// plus stale trains — not as silently applied mistraining.
    #[test]
    fn pending_overrun_is_counted_not_applied() {
        let cfg = ShardPoolConfig {
            shards: 1,
            pending_capacity: 2,
            ..Default::default()
        };
        let pool = ShardPool::new(PredictorKind::Mascot, &cfg);
        let (tx, rx) = channel();
        let pcs = [0x40u64, 0x44, 0x48, 0x4c];
        pool.send(0, predict_job(&pcs, 1, &tx));
        let replies = match rx.recv().unwrap().1 {
            ShardReply::Predict(r) => r,
            other => panic!("unexpected reply {other:?}"),
        };
        assert_eq!(pool.stats_report().total_evicted_pending(), 2);
        // Train every ticket: the two evicted ones must go stale.
        let items: Vec<TrainItem> = replies
            .iter()
            .zip(&pcs)
            .map(|(r, &pc)| TrainItem {
                ticket: r.ticket,
                pc,
                outcome: mascot::prediction::LoadOutcome::independent(),
            })
            .collect();
        pool.send(
            0,
            ShardJob::Train {
                items,
                tag: 2,
                reply: ReplySink::new(tx.clone()),
            },
        );
        match rx.recv().unwrap() {
            (2, ShardReply::Train { applied, stale }) => {
                assert_eq!((applied, stale), (2, 2));
            }
            other => panic!("unexpected reply {other:?}"),
        }
        let report = pool.shutdown();
        assert_eq!(report.total_evicted_pending(), 2);
        assert_eq!(report.shards[0].stale_trains, 2);
    }

    /// Under `strict_tickets` (the `mascotd --audit` configuration) the
    /// same overrun is a hard error: the offending `Predict` panics before
    /// any reply is delivered, the shard stays dead, and `shutdown` still
    /// refuses to report a clean exit.
    #[test]
    fn strict_tickets_turns_eviction_into_hard_error() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let cfg = ShardPoolConfig {
            shards: 1,
            pending_capacity: 2,
            strict_tickets: true,
        };
        let pool = ShardPool::new(PredictorKind::Mascot, &cfg);
        let (tx, rx) = channel();
        let predicted = catch_unwind(AssertUnwindSafe(|| {
            pool.send(0, predict_job(&[0x40u64, 0x44, 0x48], 1, &tx));
        }));
        assert!(predicted.is_err(), "the offending Predict must panic");
        drop(tx);
        assert!(rx.recv().is_err(), "no reply escapes the dead shard");
        let again = catch_unwind(AssertUnwindSafe(|| {
            pool.predict_all(
                0,
                &[PredictItem {
                    pc: 0x4c,
                    store_seq: 0,
                }],
            )
        }));
        assert!(again.is_err(), "a dead shard serves nothing more");
        assert!(
            pool.stats_report().shards[0].evicted_pending > 0,
            "a dead shard still reports what it counted"
        );
        let joined = catch_unwind(AssertUnwindSafe(|| pool.shutdown()));
        assert!(joined.is_err(), "shutdown must propagate the shard panic");
    }
}
