//! The end-to-end sampled-simulation pipeline: slice → fingerprint →
//! cluster → simulate representatives → project (DESIGN.md §13).

use std::ops::Range;

use mascot_predictors::{AnyPredictor, PredictorKind};
use mascot_sim::{CoreConfig, FunctionalWarmer, SimStats, Simulator, Trace};
use mascot_workloads::{intervals, slice};

use crate::fingerprint::fingerprint;
use crate::kmeans::kmeans;
use crate::pool::parallel_map;

/// Knobs for one sampled run. The defaults are what `BENCH_sampling.json`
/// and the check-gate use: 10k-uop intervals, 8 clusters, a 2k-uop
/// detailed pipeline ramp on top of the full-prefix functional warm-up,
/// the repo-wide seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingConfig {
    /// Interval length in uops; the final interval keeps the remainder.
    pub interval_uops: usize,
    /// Target cluster count `k` (clamped to the interval count).
    pub clusters: usize,
    /// Detailed warm-up simulated before each representative's measured
    /// window (clamped to whatever trace actually precedes the window):
    /// a short ramp that fills the ROB/queues so the window starts from a
    /// steady pipeline. Cache and predictor state is the functional
    /// warm-up's job, so this stays small.
    pub warmup_uops: usize,
    /// Seed for the deterministic k-means initialisation.
    pub seed: u64,
    /// Lloyd-iteration cap for k-means.
    pub max_iters: usize,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        Self {
            interval_uops: 10_000,
            clusters: 8,
            warmup_uops: 2_000,
            seed: 2025,
            max_iters: 50,
        }
    }
}

/// One cluster in a [`ClusterPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cluster {
    /// Index (into [`ClusterPlan::intervals`]) of the member closest to
    /// the centroid — the interval that gets simulated.
    pub representative: usize,
    /// Total uops across all member intervals; the representative's
    /// measured stats are scaled to stand in for this many uops.
    pub weight_uops: u64,
    /// Member interval indices, ascending.
    pub members: Vec<usize>,
}

/// The clustering decision for a trace: which intervals exist, which
/// cluster each belongs to, and which member represents each cluster.
/// Purely a function of the trace contents and the [`SamplingConfig`] —
/// no simulation happens here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterPlan {
    /// Canonical interval boundaries (`mascot_workloads::intervals`).
    pub intervals: Vec<Range<usize>>,
    /// Per-interval cluster index, `assignments[i] < clusters.len()`.
    pub assignments: Vec<u32>,
    /// Non-empty clusters, ordered by their lowest member index.
    pub clusters: Vec<Cluster>,
}

/// Everything a sampled run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledOutcome {
    /// Projected full-trace stats (cluster-weighted sum).
    pub projected: SimStats,
    /// The clustering that drove the projection.
    pub plan: ClusterPlan,
    /// Uops simulated in detail (detailed warm-ups included).
    pub simulated_uops: u64,
    /// Uops replayed by the functional warm-up pass
    /// (architectural only, several times cheaper per uop than
    /// `simulated_uops`, and amortisable across runs via [`WarmSet`]).
    pub warmed_uops: u64,
    /// Uops the projection stands in for (the full trace) — the value.
    pub represented_uops: u64,
}

/// Builds the [`ClusterPlan`] for `trace` under `cfg`: slices, fingerprints
/// every interval, clusters the fingerprints, and picks each cluster's
/// representative (the member nearest its centroid; ties toward the lowest
/// interval index). When `cfg.clusters >= interval count` every interval is
/// its own cluster and represents itself — sampling degenerates to a full
/// run, which is what the exactness property test leans on.
///
/// # Panics
///
/// Panics if `trace` is empty.
pub fn plan(trace: &Trace, cfg: &SamplingConfig) -> ClusterPlan {
    assert!(trace.len() > 0, "cannot sample an empty trace");
    let intervals = intervals(trace.len(), cfg.interval_uops);
    let points: Vec<_> = intervals
        .iter()
        .map(|r| fingerprint(&trace.uops[r.clone()]))
        .collect();

    let (raw_assignments, centroids) = if cfg.clusters >= points.len() {
        // Identity clustering: skip k-means entirely so the degenerate
        // case is exact by construction, not by convergence luck.
        ((0..points.len() as u32).collect::<Vec<_>>(), points.clone())
    } else {
        let r = kmeans(&points, cfg.clusters, cfg.seed, cfg.max_iters);
        (r.assignments, r.centroids)
    };

    // Compact to non-empty clusters, ordered by lowest member index, and
    // pick representatives.
    let mut clusters = Vec::new();
    let mut remap = vec![u32::MAX; centroids.len()];
    for (i, &a) in raw_assignments.iter().enumerate() {
        if remap[a as usize] == u32::MAX {
            remap[a as usize] = clusters.len() as u32;
            clusters.push(Cluster {
                representative: usize::MAX,
                weight_uops: 0,
                members: Vec::new(),
            });
        }
        let c = &mut clusters[remap[a as usize] as usize];
        c.members.push(i);
        c.weight_uops += intervals[i].len() as u64;
    }
    let assignments: Vec<u32> = raw_assignments
        .iter()
        .map(|&a| remap[a as usize])
        .collect();
    for (c, cluster) in clusters.iter_mut().enumerate() {
        let centroid = &centroids[raw_assignments[cluster.members[0]] as usize];
        let mut best = cluster.members[0];
        let mut best_d = f64::INFINITY;
        for &m in &cluster.members {
            let d = points[m].dist2(centroid);
            if d < best_d {
                best_d = d;
                best = m;
            }
        }
        cluster.representative = best;
        debug_assert!(cluster.members.iter().all(|&m| assignments[m] == c as u32));
    }

    ClusterPlan {
        intervals,
        assignments,
        clusters,
    }
}

/// Projects full-trace stats from per-cluster measurements: each cluster's
/// measured window stats are scaled from the uops actually measured to the
/// uops the cluster represents, then summed. Exposed separately from
/// [`run_sampled`] so the exactness property (projecting every interval of
/// one full run with weight == measurement reproduces that run's aggregate
/// bit-for-bit) can be tested against the production code path.
///
/// `measurements[i]` must be the measured-window delta for
/// `plan.clusters[i]`'s representative, with `measured_uops[i]` committed
/// uops inside the window.
pub fn project(plan: &ClusterPlan, measurements: &[SimStats], measured_uops: &[u64]) -> SimStats {
    assert_eq!(plan.clusters.len(), measurements.len());
    assert_eq!(plan.clusters.len(), measured_uops.len());
    let mut projected = SimStats::default();
    for ((cluster, stats), &measured) in plan.clusters.iter().zip(measurements).zip(measured_uops) {
        projected.accumulate(&stats.scaled(cluster.weight_uops, measured));
    }
    projected
}

/// Per-cluster functional warm-up checkpoints for one `(trace, plan,
/// predictor, core)` combination — the expensive, reusable half of a
/// sampled run. Built by [`warm_checkpoints`] in **one** architectural pass
/// over the trace prefix, run as two independent halves on two threads
/// (cache hierarchy + branch predictor, memory-dependence predictor) and
/// frozen at each representative's warm-up boundary; consumed (by cloning)
/// every time [`run_sampled_with`] measures the windows. Callers that sweep
/// many configurations over the same trace build this once and amortise
/// it — the SimPoint checkpoint workflow.
#[derive(Debug)]
pub struct WarmSet {
    /// One frozen warmer per [`ClusterPlan::clusters`] entry (same order),
    /// holding the architectural state of a full replay of the trace up to
    /// that cluster's representative warm-up boundary.
    pub checkpoints: Vec<FunctionalWarmer<AnyPredictor>>,
    /// Uops the functional pass replayed (the furthest boundary).
    pub warmed_uops: u64,
}

/// The uop range each cluster's representative window occupies, including
/// the detailed pipeline ramp before it, plus the ramp length.
fn window_ranges(plan: &ClusterPlan, cfg: &SamplingConfig) -> Vec<(Range<usize>, u64)> {
    plan.clusters
        .iter()
        .map(|c| {
            let r = plan.intervals[c.representative].clone();
            let warmup = r.start.min(cfg.warmup_uops);
            ((r.start - warmup)..r.end, warmup as u64)
        })
        .collect()
}

/// Builds the [`WarmSet`] for a plan: walks the trace **once**, replaying
/// it architecturally (caches, prefetcher, branch predictor,
/// memory-dependence predictor — no timing) with
/// [`FunctionalWarmer::at_boundaries`], which checkpoints at every
/// representative's warm-up boundary. The pass runs its two independent
/// halves concurrently: the memory-dependence predictor on a second
/// thread, the cache hierarchy and branch predictor on the calling thread
/// (so the large per-cluster cache clones come from the main allocator
/// arena, which keeps peak RSS flat). Each checkpoint is bit-identical to
/// an independent functional replay of the whole prefix before its
/// window — replay is deterministic and history-only — so windows measure
/// against full-prefix state while the warm cost stays O(trace), not
/// O(clusters × trace).
pub fn warm_checkpoints(
    trace: &Trace,
    plan: &ClusterPlan,
    kind: PredictorKind,
    core: &CoreConfig,
    cfg: &SamplingConfig,
) -> WarmSet {
    let mut order: Vec<(usize, usize)> = window_ranges(plan, cfg)
        .iter()
        .enumerate()
        .map(|(ci, (range, _))| (ci, range.start))
        .collect();
    order.sort_by_key(|&(_, start)| start);
    let boundaries: Vec<usize> = order.iter().map(|&(_, start)| start).collect();

    let warmed = FunctionalWarmer::at_boundaries(core, kind.build(), &trace.uops, &boundaries);
    let mut checkpoints: Vec<Option<FunctionalWarmer<AnyPredictor>>> =
        (0..plan.clusters.len()).map(|_| None).collect();
    for ((ci, _), warmer) in order.into_iter().zip(warmed) {
        checkpoints[ci] = Some(warmer);
    }
    WarmSet {
        checkpoints: checkpoints
            .into_iter()
            .map(|c| c.expect("every cluster checkpointed"))
            .collect(),
        warmed_uops: boundaries.last().map_or(0, |&b| b as u64),
    }
}

/// The measurement half of a sampled run: simulates each cluster's
/// representative window in detail — seeded from its [`WarmSet`]
/// checkpoint, ramped with the short detailed warm-up — across the worker
/// pool, and [`project`]s full-trace stats. Cheap relative to building
/// `warm`: only `clusters × (warmup + interval)` uops are simulated.
///
/// Deterministic end to end: the plan and checkpoints are pure functions
/// of trace + config, each window simulation is single-threaded and
/// self-contained, and results are collected in cluster order — so the
/// same inputs yield a bit-identical [`SampledOutcome`] regardless of
/// thread scheduling (the audit crate enforces exactly this).
///
/// # Panics
///
/// Panics if `warm` was built for a different plan (checkpoint count
/// mismatch).
pub fn run_sampled_with(
    trace: &Trace,
    plan: &ClusterPlan,
    warm: &WarmSet,
    core: &CoreConfig,
    cfg: &SamplingConfig,
) -> SampledOutcome {
    assert_eq!(
        warm.checkpoints.len(),
        plan.clusters.len(),
        "warm set does not match the plan"
    );
    let cells = window_ranges(plan, cfg);
    let runs = parallel_map(&cells, |ci, (range, warmup)| {
        let sub = slice(trace, range.clone());
        let warmer = &warm.checkpoints[ci];
        let mut pred = warmer.predictor().clone();
        let mut sim = Simulator::new(&sub, core, &mut pred);
        sim.seed_from_warmer(warmer);
        let stats = sim.run_measured(*warmup);
        (stats, range.len() as u64)
    });
    let simulated_uops = runs.iter().map(|(_, n)| n).sum();
    let measurements: Vec<SimStats> = runs.iter().map(|(s, _)| s.clone()).collect();
    let measured: Vec<u64> = runs.iter().map(|(s, _)| s.committed_uops).collect();
    let projected = project(plan, &measurements, &measured);
    SampledOutcome {
        projected,
        plan: plan.clone(),
        simulated_uops,
        warmed_uops: warm.warmed_uops,
        represented_uops: trace.len() as u64,
    }
}

/// Runs the full sampled pipeline for one `(trace, predictor, core)` cell:
/// [`plan`] the clusters, build the [`warm_checkpoints`], and measure +
/// project with [`run_sampled_with`]. One-shot convenience — callers that
/// reuse a trace across predictors or configurations should hold on to the
/// plan and warm set instead (as the bench harness does).
pub fn run_sampled(
    trace: &Trace,
    kind: PredictorKind,
    core: &CoreConfig,
    cfg: &SamplingConfig,
) -> SampledOutcome {
    let plan = plan(trace, cfg);
    let warm = warm_checkpoints(trace, &plan, kind, core, cfg);
    run_sampled_with(trace, &plan, &warm, core, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mascot_workloads::{generate, spec};

    fn small_cfg() -> SamplingConfig {
        SamplingConfig {
            interval_uops: 2_000,
            clusters: 4,
            warmup_uops: 1_000,
            ..SamplingConfig::default()
        }
    }

    fn trace(name: &str, uops: usize) -> Trace {
        let profile = spec::profile(name).expect("known benchmark");
        generate(&profile, 2025, uops)
    }

    #[test]
    fn plan_partitions_intervals_and_weights_cover_the_trace() {
        // The generator rounds the requested length up to whole pattern
        // repetitions, so derive expectations from the actual length.
        let t = trace("perlbench2", 21_000);
        let n_intervals = t.len().div_ceil(2_000);
        let p = plan(&t, &small_cfg());
        assert_eq!(p.intervals.len(), n_intervals);
        assert_eq!(p.assignments.len(), n_intervals);
        assert!(p.clusters.len() <= 4);
        let total: u64 = p.clusters.iter().map(|c| c.weight_uops).sum();
        assert_eq!(total, t.len() as u64);
        let mut seen = vec![false; p.intervals.len()];
        for (c, cluster) in p.clusters.iter().enumerate() {
            assert!(cluster.members.contains(&cluster.representative));
            assert!(cluster.members.windows(2).all(|w| w[0] < w[1]));
            for &m in &cluster.members {
                assert_eq!(p.assignments[m], c as u32);
                assert!(!seen[m], "interval {m} in two clusters");
                seen[m] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every interval clustered");
    }

    // Satellite property (a): intervals with identical contents get
    // bit-identical fingerprints and land in the same cluster.
    #[test]
    fn identical_intervals_share_a_cluster() {
        let t = trace("mcf", 4_000);
        // Tile the same 2k-uop block four times: intervals 0..4 are
        // literally identical.
        let mut uops = Vec::new();
        for _ in 0..4 {
            uops.extend_from_slice(&t.uops[..2_000]);
        }
        let tiled = Trace::new("tiled".to_string(), uops);
        let cfg = SamplingConfig {
            clusters: 2,
            ..small_cfg()
        };
        let fps: Vec<_> = intervals(tiled.len(), cfg.interval_uops)
            .iter()
            .map(|r| crate::fingerprint(&tiled.uops[r.clone()]))
            .collect();
        for fp in &fps[1..] {
            assert_eq!(fp, &fps[0]);
        }
        let p = plan(&tiled, &cfg);
        assert!(p.assignments.iter().all(|&a| a == p.assignments[0]));
    }

    // Satellite property (b): projecting the per-interval deltas of ONE
    // full run through the production `project` path, with every interval
    // its own cluster and weight == measurement, reproduces that run's
    // aggregate stats bit-for-bit (`SimStats` derives `PartialEq` over
    // every counter).
    #[test]
    fn projection_with_k_equal_n_is_exact() {
        let t = trace("perlbench2", 10_500);
        let core = CoreConfig::golden_cove();
        let cfg = SamplingConfig {
            interval_uops: 2_000,
            clusters: usize::MAX, // identity clustering
            ..small_cfg()
        };
        let p = plan(&t, &cfg);
        assert_eq!(p.clusters.len(), p.intervals.len());

        let mut pred = PredictorKind::Mascot.build();
        let full = Simulator::new(&t, &core, &mut pred).run();
        let mut pred2 = PredictorKind::Mascot.build();
        let deltas = Simulator::new(&t, &core, &mut pred2).run_interval_deltas(2_000);
        assert_eq!(deltas.len(), p.clusters.len());

        let measured: Vec<u64> = deltas.iter().map(|d| d.committed_uops).collect();
        // weight == measurement for every cluster, so scaling is ×1.0.
        for (c, &m) in p.clusters.iter().zip(&measured) {
            assert_eq!(c.weight_uops, m, "every uop commits");
        }
        let projected = project(&p, &deltas, &measured);
        assert_eq!(projected, full);
    }

    // Satellite property (c): the whole sampled pipeline is bit-stable
    // across repeated runs (thread scheduling must not leak in).
    #[test]
    fn sampled_run_is_deterministic() {
        let t = trace("xalancbmk", 16_000);
        let core = CoreConfig::golden_cove();
        let cfg = small_cfg();
        let a = run_sampled(&t, PredictorKind::Mascot, &core, &cfg);
        let b = run_sampled(&t, PredictorKind::Mascot, &core, &cfg);
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.projected, b.projected);
        assert_eq!(a.simulated_uops, b.simulated_uops);
    }

    /// A 2k-uop detailed window at `start`, seeded from `warmer`.
    fn seeded_window(
        t: &Trace,
        core: &CoreConfig,
        warmer: &FunctionalWarmer<AnyPredictor>,
        start: usize,
    ) -> SimStats {
        let sub = slice(t, start..start + 2_000);
        let mut pred = warmer.predictor().clone();
        let mut sim = Simulator::new(&sub, core, &mut pred);
        sim.seed_from_warmer(warmer);
        sim.run()
    }

    // The two-thread checkpoint pass must hand every window exactly the
    // state the sequential replay of its prefix leaves, at a cold boundary
    // (0), at repeated boundaries and mid-trace.
    #[test]
    fn two_thread_checkpoints_match_sequential_replay() {
        let t = trace("perlbench2", 16_000);
        let core = CoreConfig::golden_cove();
        let boundaries = [0, 0, 3_000, 7_500, 7_500, 12_000];
        for kind in [PredictorKind::Mascot, PredictorKind::StoreSets] {
            let checkpoints =
                FunctionalWarmer::at_boundaries(&core, kind.build(), &t.uops, &boundaries);
            assert_eq!(checkpoints.len(), boundaries.len());
            for (warmer, &b) in checkpoints.iter().zip(&boundaries) {
                let mut reference = FunctionalWarmer::new(&core, kind.build());
                reference.replay(&t.uops[..b]);
                assert_eq!(warmer.warmed_uops(), b as u64);
                assert_eq!(
                    seeded_window(&t, &core, warmer, b),
                    seeded_window(&t, &core, &reference, b),
                    "{kind:?} window at boundary {b}"
                );
            }
        }
    }

    #[test]
    fn sampling_simulates_fewer_uops_than_it_represents() {
        let t = trace("mcf", 40_000);
        let cfg = small_cfg();
        let out = run_sampled(&t, PredictorKind::StoreSets, &CoreConfig::golden_cove(), &cfg);
        assert_eq!(out.represented_uops, t.len() as u64);
        assert!(
            out.simulated_uops < out.represented_uops,
            "simulated {} of {}",
            out.simulated_uops,
            out.represented_uops
        );
        // Projection should land in a plausible neighbourhood of the full
        // run (loose sanity bound; the bench gate enforces the real one).
        let mut pred = PredictorKind::StoreSets.build();
        let full = Simulator::new(&t, &CoreConfig::golden_cove(), &mut pred).run();
        let err = mascot_stats::projection::relative_error(out.projected.ipc(), full.ipc());
        assert!(err.abs() < 0.25, "projected IPC off by {err:+.3}");
    }
}
