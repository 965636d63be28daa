//! Experiment harness: builds predictors, runs (benchmark × predictor ×
//! core) simulations in parallel, and aggregates results.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use mascot::MemDepPredictor;
use mascot_predictors::AnyPredictor;
// The registry of buildable predictor configurations lives in
// `mascot-predictors` (shared with `mascot-serve`); re-exported here so
// every figure/table binary keeps importing it from the harness.
pub use mascot_predictors::PredictorKind;
pub use mascot_sampling::SamplingConfig;
use mascot_sampling::{ClusterPlan, WarmSet};
use mascot_sim::{simulate, CoreConfig, SimStats, Trace};
use mascot_workloads::{generate, WorkloadProfile};
use serde::{Deserialize, Serialize};

/// Default trace length per benchmark (micro-ops).
pub const DEFAULT_TRACE_UOPS: usize = 150_000;
/// Default generation seed.
pub const DEFAULT_SEED: u64 = 2025;

/// Entry cap for the process-wide trace cache.
const TRACE_CACHE_MAX_ENTRIES: usize = 48;
/// Total requested-uop budget for the process-wide trace cache. Long-trace
/// sweeps (sampled-simulation gates run 10× traces) would otherwise pin
/// tens of millions of uops per distinct key for the process lifetime.
/// A packed trace takes 32.6–34.4 bytes per uop (32-byte records plus the
/// dependence table; 56 bytes before packing), so a full cache holds about
/// 0.73–0.77 GiB of traces, not 1.25 GiB.
const TRACE_CACHE_MAX_UOPS: usize = 24_000_000;
/// Entry cap for the process-wide sampling-prep cache. Each entry holds one
/// warm-up checkpoint per cluster (~1–2 MiB of cache tags and predictor
/// tables each), so the cap bounds resident memory to a few hundred MiB in
/// the worst case while still covering a whole benchmark × predictor sweep
/// at one configuration.
const PREP_CACHE_MAX_ENTRIES: usize = 6;

/// One cached value, built by whichever caller reaches its slot first.
struct LruEntry<K, V> {
    key: K,
    weight: usize,
    slot: Arc<OnceLock<Arc<V>>>,
    last_used: u64,
}

/// The entries plus a monotonic access tick, under one lock.
struct LruState<K, V> {
    entries: Vec<LruEntry<K, V>>,
    tick: u64,
}

/// A bounded LRU of values that are expensive to build. It retains at most
/// `max_entries` entries and, when `max_weight` is set, at most that much
/// summed weight.
///
/// The lock is held only to find or insert a key's slot, never while a
/// value is built, so callers building *different* values proceed in
/// parallel; callers racing for the *same* key rendezvous on the slot's
/// `OnceLock` and build it exactly once. Eviction drops only the cache's
/// reference: a caller holding an evicted slot finishes building into its
/// own `Arc`s. The bounds limit *retention*, not admission, so an entry
/// heavier than `max_weight` is still cached, at the cost of evicting
/// everything else. Lookup is a linear scan, which at these caps is
/// trivially cheaper than the milliseconds a hit saves.
struct Lru<K, V> {
    state: Mutex<LruState<K, V>>,
    max_entries: usize,
    max_weight: Option<usize>,
}

impl<K: PartialEq, V> Lru<K, V> {
    const fn new(max_entries: usize, max_weight: Option<usize>) -> Self {
        Self {
            state: Mutex::new(LruState {
                entries: Vec::new(),
                tick: 0,
            }),
            max_entries,
            max_weight,
        }
    }

    /// Returns the value cached under `key`, building it with `build` and
    /// charging it `weight` when the cache does not hold it.
    fn get(&self, key: K, weight: usize, build: impl FnOnce() -> V) -> Arc<V> {
        let slot = {
            let mut guard = self.state.lock().expect("cache poisoned");
            let LruState { entries, tick } = &mut *guard;
            *tick += 1;
            if let Some(entry) = entries.iter_mut().find(|e| e.key == key) {
                entry.last_used = *tick;
                Arc::clone(&entry.slot)
            } else {
                let over_weight = |entries: &[LruEntry<K, V>]| {
                    self.max_weight.is_some_and(|cap| {
                        entries.iter().map(|e| e.weight).sum::<usize>() + weight > cap
                    })
                };
                while !entries.is_empty()
                    && (entries.len() >= self.max_entries || over_weight(entries))
                {
                    let lru = entries
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, e)| e.last_used)
                        .map(|(i, _)| i)
                        .expect("checked non-empty");
                    entries.swap_remove(lru);
                }
                let slot = Arc::default();
                entries.push(LruEntry {
                    key,
                    weight,
                    slot: Arc::clone(&slot),
                    last_used: *tick,
                });
                slot
            }
        };
        Arc::clone(slot.get_or_init(|| Arc::new(build())))
    }
}

/// Returns the trace for `(profile, seed, uops)`, generating it at most
/// once and sharing it read-only while it stays cached. A full suite run
/// is `|profiles| × |kinds|` simulations but only `|profiles|` distinct
/// traces; generation is a double-digit share of short runs, so every
/// caller on the (benchmark × predictor) cross product goes through here.
///
/// Keyed by the full profile (not just its name), so ad-hoc profiles with
/// colliding names stay distinct. The cache is a bounded LRU
/// (`TRACE_CACHE_MAX_ENTRIES` entries, `TRACE_CACHE_MAX_UOPS` total
/// requested uops), so long-lived processes sweeping many long traces
/// don't accumulate every trace they ever touched.
pub fn cached_trace(profile: &WorkloadProfile, seed: u64, trace_uops: usize) -> Arc<Trace> {
    static CACHE: Lru<(WorkloadProfile, u64, usize), Trace> =
        Lru::new(TRACE_CACHE_MAX_ENTRIES, Some(TRACE_CACHE_MAX_UOPS));
    CACHE.get((profile.clone(), seed, trace_uops), trace_uops, || {
        generate(profile, seed, trace_uops)
    })
}

/// The reusable half of a sampled run for one `(trace, predictor, core,
/// config)` cell: the cluster plan and the per-cluster functional warm-up
/// checkpoints. Building this walks the trace twice (fingerprinting, then
/// the sequential architectural warm pass); measuring with it simulates
/// only `clusters × (warmup + interval)` uops.
#[derive(Debug)]
pub struct SamplingPrep {
    /// The clustering decision (predictor-independent).
    pub plan: ClusterPlan,
    /// Per-cluster warm-up checkpoints for this predictor kind.
    pub warm: WarmSet,
}

/// Returns the sampling prep for a cell, building it at most once while it
/// stays cached (bounded LRU of `PREP_CACHE_MAX_ENTRIES`, the same
/// slot-rendezvous cache as [`cached_trace`]). This is what makes sampled
/// *sweeps* fast: the plan and warm checkpoints are a
/// per-trace/per-predictor investment — itself several times cheaper than
/// one full simulation — after which every further sampled run of that
/// cell costs only its representative windows. The SimPoint checkpoint
/// workflow, in-process.
pub fn cached_sampling_prep(
    profile: &WorkloadProfile,
    trace: &Trace,
    kind: PredictorKind,
    core: &CoreConfig,
    seed: u64,
    trace_uops: usize,
    cfg: &SamplingConfig,
) -> Arc<SamplingPrep> {
    type PrepKey = (WorkloadProfile, u64, usize, String, CoreConfig, SamplingConfig);
    static CACHE: Lru<PrepKey, SamplingPrep> = Lru::new(PREP_CACHE_MAX_ENTRIES, None);
    let key = (
        profile.clone(),
        seed,
        trace_uops,
        kind.label().into_owned(),
        core.clone(),
        *cfg,
    );
    CACHE.get(key, trace_uops, || {
        let plan = mascot_sampling::plan(trace, cfg);
        let warm = mascot_sampling::warm_checkpoints(trace, &plan, kind, core, cfg);
        SamplingPrep { plan, warm }
    })
}

/// The outcome of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Predictor label.
    pub predictor: String,
    /// Core configuration name.
    pub core: String,
    /// Full simulator statistics.
    pub stats: SimStats,
    /// Predictor storage (KiB).
    pub storage_kib: f64,
    /// Wall-clock time of the simulation itself (milliseconds), excluding
    /// trace generation and predictor construction.
    pub wall_ms: f64,
    /// Simulated micro-ops committed per wall-clock second.
    pub uops_per_sec: f64,
}

/// Computes the throughput fields from a finished run.
fn throughput_of(stats: &SimStats, wall: std::time::Duration) -> (f64, f64) {
    let secs = wall.as_secs_f64();
    let uops_per_sec = if secs > 0.0 {
        stats.committed_uops as f64 / secs
    } else {
        0.0
    };
    (secs * 1e3, uops_per_sec)
}

/// Runs one simulation against a caller-owned predictor (used by the
/// Figs. 13–14 experiments, which inspect predictor-internal state after
/// the run). `tuning_period` enables periodic §IV-F snapshots.
pub fn run_with_predictor(
    profile: &WorkloadProfile,
    predictor: &mut AnyPredictor,
    core: &CoreConfig,
    trace_uops: usize,
    seed: u64,
    tuning_period: Option<u64>,
) -> RunResult {
    let trace = cached_trace(profile, seed, trace_uops);
    let t0 = Instant::now();
    let sim = mascot_sim::Simulator::new(&trace, core, predictor);
    let sim = match tuning_period {
        Some(p) => sim.with_tuning_period(p),
        None => sim,
    };
    let stats = sim.run();
    let (wall_ms, uops_per_sec) = throughput_of(&stats, t0.elapsed());
    RunResult {
        benchmark: profile.name.to_string(),
        predictor: predictor.name().to_string(),
        core: core.name.clone(),
        stats,
        storage_kib: predictor.storage_kib(),
        wall_ms,
        uops_per_sec,
    }
}

/// Runs a caller-supplied trace (adversarial composers and other traces
/// that do not come from a [`WorkloadProfile`]) with a fresh predictor.
/// `tenant_split` enables per-tenant misprediction attribution at the
/// given PC boundary (see `mascot_sim::Simulator::with_tenant_split`).
pub fn run_trace(
    trace: &Trace,
    kind: PredictorKind,
    core: &CoreConfig,
    tenant_split: Option<u64>,
) -> RunResult {
    let mut predictor = kind.build();
    let t0 = Instant::now();
    let sim = mascot_sim::Simulator::new(trace, core, &mut predictor);
    let sim = match tenant_split {
        Some(boundary) => sim.with_tenant_split(boundary),
        None => sim,
    };
    let stats = sim.run();
    let (wall_ms, uops_per_sec) = throughput_of(&stats, t0.elapsed());
    RunResult {
        benchmark: trace.name.clone(),
        predictor: kind.label().into_owned(),
        core: core.name.clone(),
        stats,
        storage_kib: predictor.storage_kib(),
        wall_ms,
        uops_per_sec,
    }
}

/// Runs one (benchmark, predictor, core) combination, simulating the whole
/// trace.
pub fn run_one(
    profile: &WorkloadProfile,
    kind: PredictorKind,
    core: &CoreConfig,
    trace_uops: usize,
    seed: u64,
) -> RunResult {
    let trace = cached_trace(profile, seed, trace_uops);
    let mut predictor = kind.build();
    let t0 = Instant::now();
    let stats = simulate(&trace, core, &mut predictor);
    let (wall_ms, uops_per_sec) = throughput_of(&stats, t0.elapsed());
    RunResult {
        benchmark: profile.name.to_string(),
        predictor: kind.label().into_owned(),
        core: core.name.clone(),
        stats,
        storage_kib: predictor.storage_kib(),
        wall_ms,
        uops_per_sec,
    }
}

/// How an experiment runs its cells: the trace length and seed of every
/// cell, and whether a cell is simulated end to end or projected from
/// representative intervals (DESIGN.md §13). Built once by the caller and
/// passed down, so nothing below it decides the mode on its own.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// Trace length per benchmark (micro-ops).
    pub uops: usize,
    /// Generation seed.
    pub seed: u64,
    /// Project each cell with [`run_one_sampled`] and the default
    /// [`SamplingConfig`] instead of simulating the whole trace.
    pub sampled: bool,
}

impl Run {
    /// Runs one (benchmark, predictor, core) cell, full or sampled.
    pub fn one(
        &self,
        profile: &WorkloadProfile,
        kind: PredictorKind,
        core: &CoreConfig,
    ) -> RunResult {
        if self.sampled {
            let cfg = SamplingConfig::default();
            run_one_sampled(profile, kind, core, self.uops, self.seed, &cfg).run
        } else {
            run_one(profile, kind, core, self.uops, self.seed)
        }
    }

    /// Runs the (profile × kind) cross product on the shared scoped worker
    /// pool ([`mascot_sampling::parallel_map`]), bounded by the host's
    /// parallelism, results in cross-product order.
    pub fn suite(
        &self,
        profiles: &[WorkloadProfile],
        kinds: &[PredictorKind],
        core: &CoreConfig,
    ) -> Vec<RunResult> {
        let jobs: Vec<(&WorkloadProfile, PredictorKind)> = profiles
            .iter()
            .flat_map(|p| kinds.iter().map(move |&k| (p, k)))
            .collect();
        mascot_sampling::parallel_map(&jobs, |_, &(profile, kind)| self.one(profile, kind, core))
    }
}

/// The outcome of one *sampled* simulation run (DESIGN.md §13): projected
/// full-trace stats plus the sampling cost accounting.
#[derive(Debug, Clone)]
pub struct SampledRunResult {
    /// The projected result, shaped like a normal [`RunResult`] so every
    /// downstream table/figure helper works unchanged. `stats` holds the
    /// cluster-weighted projection; `wall_ms`/`uops_per_sec` measure the
    /// *measurement* (representative-window simulation + projection)
    /// against the uops it represents — the marginal trace-volume
    /// throughput once the cell's prep is built, which is what the
    /// speedup gate compares. One-time prep cost is reported separately in
    /// [`prep_wall_ms`](Self::prep_wall_ms).
    pub run: RunResult,
    /// Uops actually simulated in detail (detailed warm-ups included).
    pub simulated_uops: u64,
    /// Uops the projection stands in for (the full trace).
    pub represented_uops: u64,
    /// Wall-clock spent building this cell's [`SamplingPrep`] (fingerprint,
    /// clustering and the functional warm pass) — `0.0` when the prep cache
    /// already held it. Amortised across every sampled run of the same
    /// cell, the SimPoint checkpoint economics.
    pub prep_wall_ms: f64,
}

/// Runs one (benchmark, predictor, core) combination in sampled mode:
/// cluster the trace's intervals, functionally warm one checkpoint per
/// cluster (cached via [`cached_sampling_prep`]), simulate each cluster's
/// representative window and project full-trace stats
/// ([`mascot_sampling::run_sampled_with`]).
pub fn run_one_sampled(
    profile: &WorkloadProfile,
    kind: PredictorKind,
    core: &CoreConfig,
    trace_uops: usize,
    seed: u64,
    cfg: &SamplingConfig,
) -> SampledRunResult {
    let trace = cached_trace(profile, seed, trace_uops);
    let p0 = Instant::now();
    let prep = cached_sampling_prep(profile, &trace, kind, core, seed, trace_uops, cfg);
    let prep_wall_ms = p0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let out = mascot_sampling::run_sampled_with(&trace, &prep.plan, &prep.warm, core, cfg);
    let secs = t0.elapsed().as_secs_f64();
    let uops_per_sec = if secs > 0.0 {
        out.represented_uops as f64 / secs
    } else {
        0.0
    };
    SampledRunResult {
        run: RunResult {
            benchmark: profile.name.to_string(),
            predictor: kind.label().into_owned(),
            core: core.name.clone(),
            stats: out.projected,
            storage_kib: kind.build().storage_kib(),
            wall_ms: secs * 1e3,
            uops_per_sec,
        },
        simulated_uops: out.simulated_uops,
        represented_uops: out.represented_uops,
        prep_wall_ms,
    }
}

/// Finds the result for (benchmark, predictor) in a result set.
pub fn find<'a>(results: &'a [RunResult], benchmark: &str, predictor: &str) -> Option<&'a RunResult> {
    results
        .iter()
        .find(|r| r.benchmark == benchmark && r.predictor == predictor)
}

/// Per-benchmark IPC of `predictor` normalised to `baseline`.
pub fn normalized_ipc(results: &[RunResult], benchmark: &str, predictor: &str, baseline: &str) -> Option<f64> {
    let p = find(results, benchmark, predictor)?.stats.ipc();
    let b = find(results, benchmark, baseline)?.stats.ipc();
    mascot_stats::summary::normalize(p, b)
}

/// Geometric-mean normalised IPC of `predictor` vs `baseline` across all
/// benchmarks present in `results`.
pub fn geomean_normalized_ipc(
    results: &[RunResult],
    benchmarks: &[String],
    predictor: &str,
    baseline: &str,
) -> Option<f64> {
    let ratios: Option<Vec<f64>> = benchmarks
        .iter()
        .map(|b| normalized_ipc(results, b, predictor, baseline))
        .collect();
    mascot_stats::summary::geometric_mean(ratios?)
}

/// The distinct benchmark names in a result set, in first-seen order.
pub fn benchmarks(results: &[RunResult]) -> Vec<String> {
    let mut seen: std::collections::HashSet<&str> = std::collections::HashSet::new();
    let mut out = Vec::new();
    for r in results {
        // Dedupe on the borrowed name; clone only the first occurrence.
        if seen.insert(r.benchmark.as_str()) {
            out.push(r.benchmark.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mascot_workloads::spec;

    #[test]
    fn kinds_build_and_have_expected_sizes() {
        assert!((PredictorKind::Mascot.build().storage_kib() - 14.0).abs() < 0.01);
        assert!((PredictorKind::Phast.build().storage_kib() - 14.5).abs() < 0.01);
        assert!((PredictorKind::NoSq.build().storage_kib() - 19.0).abs() < 0.01);
        assert!((PredictorKind::MascotOpt(4).build().storage_kib() - 10.125).abs() < 0.01);
        assert_eq!(PredictorKind::PerfectMdp.build().storage_kib(), 0.0);
    }

    #[test]
    fn labels_are_distinct() {
        let kinds = [
            PredictorKind::Mascot,
            PredictorKind::MascotMdp,
            PredictorKind::MascotOpt(0),
            PredictorKind::MascotOpt(4),
            PredictorKind::TageNoNd,
            PredictorKind::Phast,
            PredictorKind::NoSq,
            PredictorKind::StoreSets,
            PredictorKind::PerfectMdp,
            PredictorKind::PerfectMdpSmb,
        ];
        let labels: std::collections::HashSet<_> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len());
    }

    #[test]
    fn run_one_produces_complete_stats() {
        let profile = spec::profile("exchange2").unwrap();
        let r = run_one(
            &profile,
            PredictorKind::PerfectMdp,
            &CoreConfig::golden_cove(),
            20_000,
            1,
        );
        assert!(r.stats.committed_uops >= 20_000);
        assert!(r.stats.ipc() > 0.1);
        assert_eq!(r.benchmark, "exchange2");
    }

    #[test]
    fn suite_runner_covers_cross_product() {
        let profiles = vec![
            spec::profile("exchange2").unwrap(),
            spec::profile("bwaves").unwrap(),
        ];
        let kinds = [PredictorKind::PerfectMdp, PredictorKind::StoreSets];
        let run = Run {
            uops: 15_000,
            seed: 3,
            sampled: false,
        };
        let results = run.suite(&profiles, &kinds, &CoreConfig::golden_cove());
        assert_eq!(results.len(), 4);
        assert!(find(&results, "bwaves", "store-sets").is_some());
        let bs = benchmarks(&results);
        assert_eq!(bs, vec!["exchange2".to_string(), "bwaves".to_string()]);
    }

    #[test]
    fn normalized_ipc_handles_missing_entries() {
        let results: Vec<RunResult> = Vec::new();
        assert!(normalized_ipc(&results, "x", "mascot", "perfect-mdp").is_none());
        assert!(geomean_normalized_ipc(&results, &["x".to_string()], "mascot", "perfect-mdp")
            .is_none());
    }

    /// A cache of `u64`s whose builds are counted, so a test can tell a
    /// hit from a rebuild.
    fn counted_get(cache: &Lru<u64, u64>, builds: &mut u64, key: u64, weight: usize) -> Arc<u64> {
        cache.get(key, weight, || {
            *builds += 1;
            key
        })
    }

    #[test]
    fn lru_caps_entries_and_evicts_lru() {
        let cache = Lru::new(4, None);
        let mut builds = 0;
        // Fill the cache with 4 distinct keys.
        let held: Vec<Arc<u64>> = (0..4).map(|k| counted_get(&cache, &mut builds, k, 1)).collect();
        // Touch key 0 so key 1 becomes the least recently used.
        assert!(Arc::ptr_eq(&counted_get(&cache, &mut builds, 0, 1), &held[0]));
        // A fifth key evicts exactly one entry: key 1.
        let _ = counted_get(&cache, &mut builds, 4, 1);
        assert!(
            Arc::ptr_eq(&counted_get(&cache, &mut builds, 0, 1), &held[0]),
            "recently touched entry survives"
        );
        assert_eq!(builds, 5);
        // Key 1 was evicted, so this access rebuilds it (which in turn
        // evicts the new LRU): a fresh allocation, not the cached one.
        assert!(
            !Arc::ptr_eq(&counted_get(&cache, &mut builds, 1, 1), &held[1]),
            "LRU entry was evicted and rebuilt"
        );
        assert_eq!(builds, 6);
    }

    #[test]
    fn lru_weight_cap_evicts_but_admits_oversized_entries() {
        let cache = Lru::new(usize::MAX, Some(1_000));
        let mut builds = 0;
        let first = counted_get(&cache, &mut builds, 1, 400);
        let _ = counted_get(&cache, &mut builds, 2, 400);
        // 400 + 400 + 400 > 1000: inserting a third evicts the oldest.
        let _ = counted_get(&cache, &mut builds, 3, 400);
        assert!(!Arc::ptr_eq(&counted_get(&cache, &mut builds, 1, 400), &first));
        // A single entry over the whole budget is still built once and
        // cached (bounds limit retention, not admission)…
        let big = counted_get(&cache, &mut builds, 9, 2_000);
        assert!(Arc::ptr_eq(&counted_get(&cache, &mut builds, 9, 2_000), &big));
        // …at the cost of evicting everything else.
        assert_eq!(cache.state.lock().unwrap().entries.len(), 1);
    }

    #[test]
    fn sampled_run_projects_plausible_stats() {
        let profile = spec::profile("exchange2").unwrap();
        let cfg = SamplingConfig {
            interval_uops: 2_000,
            clusters: 5,
            warmup_uops: 1_000,
            ..SamplingConfig::default()
        };
        let sampled = run_one_sampled(
            &profile,
            PredictorKind::Mascot,
            &CoreConfig::golden_cove(),
            30_000,
            1,
            &cfg,
        );
        assert!(sampled.simulated_uops < sampled.represented_uops);
        assert_eq!(sampled.run.benchmark, "exchange2");
        let full = run_one(
            &profile,
            PredictorKind::Mascot,
            &CoreConfig::golden_cove(),
            30_000,
            1,
        );
        // Projected committed-uop total equals the trace length by
        // construction (weights cover the trace; every uop commits).
        assert_eq!(
            sampled.run.stats.committed_uops,
            full.stats.committed_uops
        );
        let err = mascot_stats::projection::relative_error(
            sampled.run.stats.ipc(),
            full.stats.ipc(),
        );
        assert!(err.abs() < 0.25, "projected IPC off by {err:+.3}");
    }

    #[test]
    fn run_with_predictor_reports_inner_name_and_size() {
        let profile = spec::profile("exchange2").unwrap();
        let mut p = PredictorKind::MascotOpt(4).build();
        let r = run_with_predictor(
            &profile,
            &mut p,
            &CoreConfig::golden_cove(),
            10_000,
            1,
            None,
        );
        assert_eq!(r.predictor, "mascot");
        assert!((r.storage_kib - 10.125).abs() < 0.01);
        assert!(r.stats.committed_uops >= 10_000);
    }

    #[test]
    fn mdp_tage_kind_builds() {
        use mascot::MemDepPredictor;
        let p = PredictorKind::MdpTage.build();
        assert_eq!(p.name(), "mdp-tage");
        assert!((p.storage_kib() - 10.0).abs() < 0.01);
    }
}
