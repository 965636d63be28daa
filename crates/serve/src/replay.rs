//! Trace replay: drive a shard pool with the training traffic a simulated
//! core would generate, straight from an `.mtrc` trace.
//!
//! `mascotd --replay <trace>` uses this to warm every shard's predictor
//! before taking live traffic. The trace is walked in program order and cut
//! into segments; each segment broadcasts its branch/store events to every
//! shard (predictor history is global, but shards are independent — each
//! keeps its own copy), then predicts the segment's loads and immediately
//! trains them with the trace's ground-truth outcome.
//!
//! This is a deliberate approximation of the simulator's timing: a real
//! core interleaves history events and lookups per-uop, while replay
//! applies them with segment granularity ([`SEGMENT_UOPS`] uops). The
//! predictors tolerate this — their history registers shift the same
//! events in the same order, just slightly earlier relative to each
//! lookup — and it is what lets replay batch work per shard instead of
//! doing one predictor call per uop.

use mascot::prediction::LoadOutcome;
use mascot_sim::uop::{Trace, TraceDep, UopKind};

use crate::shard::{ShardPool, SyncEvent};
use crate::wire::{PredictItem, TrainItem};

/// Uops per replay segment (events broadcast + loads predicted/trained).
pub const SEGMENT_UOPS: usize = 1024;

/// What a replay run did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Total uops walked.
    pub uops: u64,
    /// Loads predicted (and trained).
    pub loads: u64,
    /// Train items the shards applied.
    pub applied: u64,
    /// Train items dropped on a stale ticket (0 unless the pending window
    /// is smaller than a segment's per-shard load count).
    pub stale: u64,
    /// Segments replayed.
    pub segments: u64,
}

/// One load awaiting its segment flush.
struct PendingLoad {
    item: PredictItem,
    outcome: LoadOutcome,
}

/// Replays `trace` through `pool`; every segment is trained on return.
pub fn replay_trace(pool: &ShardPool, trace: &Trace) -> ReplayReport {
    let mut report = ReplayReport::default();
    let mut events: Vec<SyncEvent> = Vec::with_capacity(SEGMENT_UOPS);
    let mut loads: Vec<PendingLoad> = Vec::with_capacity(SEGMENT_UOPS);
    let mut store_count: u64 = 0;
    let mut in_segment = 0usize;

    for uop in &trace.uops {
        match uop.kind {
            UopKind::Alu => {}
            UopKind::Branch {
                kind,
                taken,
                target,
            } => {
                events.push(SyncEvent::Branch(mascot::history::BranchEvent {
                    pc: uop.pc,
                    kind,
                    taken,
                    target,
                }));
            }
            UopKind::Store { .. } => {
                // Same numbering as the simulator: the store's own seq is
                // the count of stores dispatched before it.
                events.push(SyncEvent::StoreDispatch {
                    pc: uop.pc,
                    store_seq: store_count,
                });
                store_count += 1;
            }
            UopKind::Load { dep, .. } => {
                loads.push(PendingLoad {
                    item: PredictItem {
                        pc: uop.pc,
                        store_seq: store_count,
                    },
                    outcome: dep
                        .as_ref()
                        .map_or_else(LoadOutcome::independent, TraceDep::outcome),
                });
            }
        }
        report.uops += 1;
        in_segment += 1;
        if in_segment >= SEGMENT_UOPS {
            flush_segment(pool, &mut events, &mut loads, &mut report);
            in_segment = 0;
        }
    }
    flush_segment(pool, &mut events, &mut loads, &mut report);
    report
}

/// Broadcasts the segment's events, then predicts and trains its loads:
/// per shard, every load is predicted (in program order) before any is
/// trained, as a core predicts at dispatch and trains at commit.
fn flush_segment(
    pool: &ShardPool,
    events: &mut Vec<SyncEvent>,
    loads: &mut Vec<PendingLoad>,
    report: &mut ReplayReport,
) {
    if events.is_empty() && loads.is_empty() {
        return;
    }
    report.segments += 1;
    pool.broadcast_sync(events);
    events.clear();

    let mut by_shard: Vec<Vec<PendingLoad>> = (0..pool.num_shards()).map(|_| Vec::new()).collect();
    for load in loads.drain(..) {
        by_shard[pool.shard_of(load.item.pc)].push(load);
    }
    for (shard, shard_loads) in by_shard.iter().enumerate() {
        if shard_loads.is_empty() {
            continue;
        }
        let items: Vec<PredictItem> = shard_loads.iter().map(|l| l.item).collect();
        let trains: Vec<TrainItem> = pool
            .predict_all(shard, &items)
            .iter()
            .zip(shard_loads)
            .map(|(r, l)| TrainItem {
                ticket: r.ticket,
                pc: l.item.pc,
                outcome: l.outcome,
            })
            .collect();
        let (applied, stale) = pool.train(shard, &trains, 0..trains.len());
        report.loads += trains.len() as u64;
        report.applied += u64::from(applied);
        report.stale += u64::from(stale);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardPoolConfig;
    use mascot_predictors::PredictorKind;
    use mascot_workloads::spec;

    #[test]
    fn replay_trains_every_load() {
        let profile = spec::profile("perlbench2").expect("known benchmark");
        let trace = mascot_workloads::generator::generate(&profile, 42, 5_000);
        let loads = trace
            .uops
            .iter()
            .filter(|u| matches!(u.kind, UopKind::Load { .. }))
            .count() as u64;
        let pool = ShardPool::new(
            PredictorKind::Mascot,
            &ShardPoolConfig {
                shards: 3,
                ..Default::default()
            },
        );
        let report = replay_trace(&pool, &trace);
        assert_eq!(report.uops, trace.uops.len() as u64);
        assert_eq!(report.loads, loads);
        assert_eq!(report.applied, loads, "every ticket trains exactly once");
        assert_eq!(report.stale, 0);
        assert!(report.segments >= 1);
        let stats = pool.shutdown();
        assert_eq!(stats.total_predicts(), loads);
        assert_eq!(stats.total_trains(), loads);
    }
}
