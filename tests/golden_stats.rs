//! Golden-stats snapshot: the cycle-level simulator's behaviour is pinned
//! bit-exactly. Hot-path rewrites (event wheel, O(1) ROB indexing, scratch
//! buffers, hashers) are mechanical-performance changes and must not alter
//! a single counter; any intentional model change must update these values
//! in the same commit, with an explanation.
//!
//! Regenerate with:
//! `cargo test --release --test golden_stats -- --ignored print_golden --nocapture`
//! (and `print_sampled_golden` / `print_mistrain_golden` for the other pins).

use mascot_bench::{run_one, run_trace, PredictorKind};
use mascot_sampling::{run_sampled, SampledOutcome, SamplingConfig};
use mascot_sim::{CoreConfig, SimStats, TenantCounters};
use mascot_workloads::adversarial::{compose, AttackKind, TENANT_BOUNDARY};
use mascot_workloads::{generate, spec};

const GOLDEN_UOPS: usize = 20_000;
const GOLDEN_SEED: u64 = 2025;
const MISTRAIN_UOPS: usize = 12_000;
const SAMPLED_UOPS: usize = 24_000;

fn matrix() -> Vec<(&'static str, PredictorKind)> {
    let profiles = ["perlbench2", "exchange2"];
    let kinds = [
        PredictorKind::Mascot,
        PredictorKind::NoSq,
        PredictorKind::StoreSets,
    ];
    profiles
        .iter()
        .flat_map(|&p| kinds.iter().map(move |&k| (p, k)))
        .collect()
}

fn run(profile: &str, kind: PredictorKind) -> SimStats {
    let profile = spec::profile(profile).expect("known profile");
    run_one(
        &profile,
        kind,
        &CoreConfig::golden_cove(),
        GOLDEN_UOPS,
        GOLDEN_SEED,
    )
    .stats
}

/// Prints the current stats as Rust literals for updating `golden()`.
#[test]
#[ignore = "generator for the golden values below"]
fn print_golden() {
    for (profile, kind) in matrix() {
        let stats = run(profile, kind);
        println!("// ({profile:?}, PredictorKind::{kind:?})");
        println!("{stats:#?},");
    }
}

#[test]
fn stats_match_golden_snapshot() {
    let golden = golden();
    assert_eq!(golden.len(), matrix().len());
    for ((profile, kind), expected) in matrix().into_iter().zip(golden) {
        let got = run(profile, kind);
        assert_eq!(
            got, expected,
            "SimStats drifted for ({profile}, {kind:?}) — if the simulator \
             model intentionally changed, regenerate with print_golden"
        );
    }
}

fn mistrain_matrix() -> Vec<(AttackKind, PredictorKind)> {
    let kinds = [PredictorKind::Mascot, PredictorKind::RandomizedMascot];
    AttackKind::ALL
        .iter()
        .flat_map(|&a| kinds.iter().map(move |&k| (a, k)))
        .collect()
}

fn run_mistrain(attack: AttackKind, kind: PredictorKind) -> SimStats {
    let trace = compose(attack, GOLDEN_SEED, MISTRAIN_UOPS);
    run_trace(
        &trace,
        kind,
        &CoreConfig::golden_cove(),
        Some(TENANT_BOUNDARY),
    )
    .stats
}

/// Prints the current mistraining pins for updating `mistrain_golden()`.
#[test]
#[ignore = "generator for the mistraining golden values below"]
fn print_mistrain_golden() {
    for (attack, kind) in mistrain_matrix() {
        let s = run_mistrain(attack, kind);
        println!("// ({attack}, PredictorKind::{kind:?})");
        println!(
            "({}, {}, {}, {:?}, {:?}),",
            s.cycles, s.mem_order_squashes, s.smb_squashes, s.victim, s.attacker
        );
    }
}

/// Bit-exact pins of the adversarial runs: cycles, squash counts and the
/// full per-tenant misprediction split for every attack × defender, plus
/// the taxonomy identities on each run. Anything that changes attack
/// dynamics (trace shape, hasher, training policy, tenant attribution)
/// must regenerate these in the same commit, with an explanation.
#[test]
fn mistrain_stats_match_golden() {
    let golden = mistrain_golden();
    assert_eq!(golden.len(), mistrain_matrix().len());
    for ((attack, kind), expected) in mistrain_matrix().into_iter().zip(golden.iter().copied()) {
        let s = run_mistrain(attack, kind);
        s.check_identities()
            .unwrap_or_else(|e| panic!("({attack}, {kind:?}): {e}"));
        let got = (
            s.cycles,
            s.mem_order_squashes,
            s.smb_squashes,
            s.victim,
            s.attacker,
        );
        assert_eq!(
            got, expected,
            "mistraining stats drifted for ({attack}, {kind:?}) — if the \
             attack traces or the model intentionally changed, regenerate \
             with print_mistrain_golden"
        );
    }
    // Invariants the pins must keep encoding: the alias attack really
    // poisons baseline mascot, and the randomized defense really blanks it.
    let baseline = &golden[0].3; // (Alias, Mascot) victim
    assert!(baseline.false_bypasses > 0, "alias attack lost its bypasses");
    assert!(
        baseline.false_dependencies > 0,
        "alias attack lost its false dependencies"
    );
    let defended = &golden[1].3; // (Alias, RandomizedMascot) victim
    assert_eq!(
        defended.false_bypasses + defended.false_dependencies + defended.missed_dependencies,
        0,
        "randomized defense must blank the alias attack"
    );
}

fn sampled_matrix() -> Vec<(&'static str, PredictorKind)> {
    let profiles = ["perlbench2", "bwaves"];
    let kinds = [PredictorKind::Mascot, PredictorKind::StoreSets];
    profiles
        .iter()
        .flat_map(|&p| kinds.iter().map(move |&k| (p, k)))
        .collect()
}

/// Small enough to run in a test, large enough that the plan keeps several
/// clusters; a ramp as long as an interval puts the warm boundary of any
/// representative among the first two intervals at uop 0.
fn sampled_cfg() -> SamplingConfig {
    SamplingConfig {
        interval_uops: 2_000,
        clusters: 4,
        warmup_uops: 2_000,
        ..SamplingConfig::default()
    }
}

fn run_sampled_cell(profile: &str, kind: PredictorKind) -> SampledOutcome {
    let profile = spec::profile(profile).expect("known profile");
    let trace = generate(&profile, GOLDEN_SEED, SAMPLED_UOPS);
    run_sampled(&trace, kind, &CoreConfig::golden_cove(), &sampled_cfg())
}

/// Prints the current sampled pins for updating `sampled_golden()`.
#[test]
#[ignore = "generator for the sampled golden values below"]
fn print_sampled_golden() {
    for (profile, kind) in sampled_matrix() {
        let out = run_sampled_cell(profile, kind);
        println!("// ({profile:?}, PredictorKind::{kind:?})");
        println!(
            "({}, {}, {:#?}),",
            out.simulated_uops, out.warmed_uops, out.projected
        );
    }
}

/// Bit-exact pins of the sampled pipeline (plan, functional warm-up
/// checkpoints, window measurement, projection): the projected stats and
/// the detailed/functional uop budgets. Every cell keeps at least three
/// clusters, and at least one representative warms from uop 0, so both
/// the cold and the mid-trace checkpoint paths are pinned.
#[test]
fn sampled_stats_match_golden() {
    let golden = sampled_golden();
    assert_eq!(golden.len(), sampled_matrix().len());
    let cfg = sampled_cfg();
    for ((profile, kind), expected) in sampled_matrix().into_iter().zip(golden) {
        let out = run_sampled_cell(profile, kind);
        assert!(
            out.plan.clusters.len() >= 3,
            "({profile}, {kind:?}): only {} clusters",
            out.plan.clusters.len()
        );
        assert!(
            out.plan
                .clusters
                .iter()
                .any(|c| out.plan.intervals[c.representative].start <= cfg.warmup_uops),
            "({profile}, {kind:?}): no representative warms from uop 0"
        );
        let got = (out.simulated_uops, out.warmed_uops, out.projected);
        assert_eq!(
            got, expected,
            "sampled stats drifted for ({profile}, {kind:?}) — if the model \
             or the sampling pipeline intentionally changed, regenerate with \
             print_sampled_golden"
        );
    }
}

#[rustfmt::skip]
fn mistrain_golden() -> Vec<(u64, u64, u64, TenantCounters, TenantCounters)> {
    vec![
        // (mistrain_alias, PredictorKind::Mascot)
        (18667, 806, 238, TenantCounters { loads: 572, missed_dependencies: 0, false_dependencies: 386, false_bypasses: 238 }, TenantCounters { loads: 3432, missed_dependencies: 990, false_dependencies: 0, false_bypasses: 0 }),
        // (mistrain_alias, PredictorKind::RandomizedMascot)
        (4449, 2, 0, TenantCounters { loads: 572, missed_dependencies: 0, false_dependencies: 0, false_bypasses: 0 }, TenantCounters { loads: 3432, missed_dependencies: 1, false_dependencies: 0, false_bypasses: 0 }),
        // (mistrain_flood, PredictorKind::Mascot)
        (16981, 516, 0, TenantCounters { loads: 752, missed_dependencies: 4, false_dependencies: 0, false_bypasses: 0 }, TenantCounters { loads: 3008, missed_dependencies: 512, false_dependencies: 0, false_bypasses: 0 }),
        // (mistrain_flood, PredictorKind::RandomizedMascot)
        (16981, 516, 0, TenantCounters { loads: 752, missed_dependencies: 4, false_dependencies: 0, false_bypasses: 0 }, TenantCounters { loads: 3008, missed_dependencies: 512, false_dependencies: 0, false_bypasses: 0 }),
        // (mistrain_interleave, PredictorKind::Mascot)
        (4945, 1, 3, TenantCounters { loads: 1262, missed_dependencies: 0, false_dependencies: 21, false_bypasses: 3 }, TenantCounters { loads: 1262, missed_dependencies: 16, false_dependencies: 1, false_bypasses: 0 }),
        // (mistrain_interleave, PredictorKind::RandomizedMascot)
        (5005, 2, 0, TenantCounters { loads: 1262, missed_dependencies: 1, false_dependencies: 1, false_bypasses: 0 }, TenantCounters { loads: 1262, missed_dependencies: 3, false_dependencies: 1, false_bypasses: 0 }),
    ]
}

#[rustfmt::skip]
fn golden() -> Vec<SimStats> {
    vec![
        SimStats {
            cycles: 26270,
            committed_uops: 20104,
            committed_loads: 3528,
            committed_stores: 2555,
            committed_branches: 3381,
            pred_no_dep: 1601,
            pred_mdp: 463,
            pred_smb: 1464,
            missed_dependencies: 42,
            false_dependencies: 20,
            wrong_store: 32,
            smb_errors: 0,
            correct_mdp: 417,
            correct_smb: 1458,
            correct_no_dep: 1559,
            mem_order_squashes: 6,
            smb_squashes: 6,
            branch_mispredicts: 741,
            indirect_mispredicts: 0,
            loads_bypassed: 1458,
            loads_forwarded: 491,
            loads_from_cache: 1579,
            class_direct_bypass: 1541,
            class_no_offset: 144,
            class_offset: 0,
            class_mdp_only: 264,
            dependent_wait_cycles: 22612,
            dependent_wait_count: 1994,
            stall_frontend: 22352,
            stall_rob: 0,
            stall_iq: 0,
            stall_lq: 0,
            stall_sb: 0,
            l1i_misses: 96,
            l1d_misses: 1805,
            l2_misses: 1858,
            l3_misses: 1858,
            ..SimStats::default()
        },
        // ("perlbench2", PredictorKind::NoSq)
        SimStats {
            cycles: 26589,
            committed_uops: 20104,
            committed_loads: 3528,
            committed_stores: 2555,
            committed_branches: 3381,
            pred_no_dep: 1537,
            pred_mdp: 1991,
            pred_smb: 0,
            missed_dependencies: 42,
            false_dependencies: 84,
            wrong_store: 271,
            smb_errors: 0,
            correct_mdp: 1636,
            correct_smb: 0,
            correct_no_dep: 1495,
            mem_order_squashes: 6,
            smb_squashes: 0,
            branch_mispredicts: 726,
            indirect_mispredicts: 0,
            loads_bypassed: 0,
            loads_forwarded: 1949,
            loads_from_cache: 1579,
            class_direct_bypass: 1541,
            class_no_offset: 144,
            class_offset: 0,
            class_mdp_only: 264,
            dependent_wait_cycles: 35913,
            dependent_wait_count: 1998,
            stall_frontend: 22753,
            stall_rob: 0,
            stall_iq: 0,
            stall_lq: 0,
            stall_sb: 0,
            l1i_misses: 96,
            l1d_misses: 1804,
            l2_misses: 1858,
            l3_misses: 1858,
            ..SimStats::default()
        },
        // ("perlbench2", PredictorKind::StoreSets)
        SimStats {
            cycles: 26567,
            committed_uops: 20104,
            committed_loads: 3528,
            committed_stores: 2555,
            committed_branches: 3381,
            pred_no_dep: 1538,
            pred_mdp: 1990,
            pred_smb: 0,
            missed_dependencies: 42,
            false_dependencies: 83,
            wrong_store: 0,
            smb_errors: 0,
            correct_mdp: 1907,
            correct_smb: 0,
            correct_no_dep: 1496,
            mem_order_squashes: 6,
            smb_squashes: 0,
            branch_mispredicts: 726,
            indirect_mispredicts: 0,
            loads_bypassed: 0,
            loads_forwarded: 1949,
            loads_from_cache: 1579,
            class_direct_bypass: 1541,
            class_no_offset: 144,
            class_offset: 0,
            class_mdp_only: 264,
            dependent_wait_cycles: 35828,
            dependent_wait_count: 1998,
            stall_frontend: 22731,
            stall_rob: 0,
            stall_iq: 0,
            stall_lq: 0,
            stall_sb: 0,
            l1i_misses: 96,
            l1d_misses: 1804,
            l2_misses: 1858,
            l3_misses: 1858,
            ..SimStats::default()
        },
        // ("exchange2", PredictorKind::Mascot)
        SimStats {
            cycles: 9557,
            committed_uops: 20023,
            committed_loads: 3185,
            committed_stores: 684,
            committed_branches: 3185,
            pred_no_dep: 2734,
            pred_mdp: 451,
            pred_smb: 0,
            missed_dependencies: 2,
            false_dependencies: 0,
            wrong_store: 3,
            smb_errors: 0,
            correct_mdp: 448,
            correct_smb: 0,
            correct_no_dep: 2732,
            mem_order_squashes: 2,
            smb_squashes: 0,
            branch_mispredicts: 309,
            indirect_mispredicts: 0,
            loads_bypassed: 0,
            loads_forwarded: 453,
            loads_from_cache: 2732,
            class_direct_bypass: 0,
            class_no_offset: 0,
            class_offset: 0,
            class_mdp_only: 453,
            dependent_wait_cycles: 4530,
            dependent_wait_count: 455,
            stall_frontend: 6023,
            stall_rob: 0,
            stall_iq: 0,
            stall_lq: 0,
            stall_sb: 0,
            l1i_misses: 20,
            l1d_misses: 42,
            l2_misses: 284,
            l3_misses: 284,
            ..SimStats::default()
        },
        // ("exchange2", PredictorKind::NoSq)
        SimStats {
            cycles: 9605,
            committed_uops: 20023,
            committed_loads: 3185,
            committed_stores: 684,
            committed_branches: 3185,
            pred_no_dep: 2734,
            pred_mdp: 451,
            pred_smb: 0,
            missed_dependencies: 2,
            false_dependencies: 0,
            wrong_store: 12,
            smb_errors: 0,
            correct_mdp: 439,
            correct_smb: 0,
            correct_no_dep: 2732,
            mem_order_squashes: 5,
            smb_squashes: 0,
            branch_mispredicts: 309,
            indirect_mispredicts: 0,
            loads_bypassed: 0,
            loads_forwarded: 453,
            loads_from_cache: 2732,
            class_direct_bypass: 0,
            class_no_offset: 0,
            class_offset: 0,
            class_mdp_only: 453,
            dependent_wait_cycles: 4526,
            dependent_wait_count: 455,
            stall_frontend: 6059,
            stall_rob: 0,
            stall_iq: 0,
            stall_lq: 0,
            stall_sb: 0,
            l1i_misses: 20,
            l1d_misses: 42,
            l2_misses: 284,
            l3_misses: 284,
            ..SimStats::default()
        },
        // ("exchange2", PredictorKind::StoreSets)
        SimStats {
            cycles: 9557,
            committed_uops: 20023,
            committed_loads: 3185,
            committed_stores: 684,
            committed_branches: 3185,
            pred_no_dep: 2734,
            pred_mdp: 451,
            pred_smb: 0,
            missed_dependencies: 2,
            false_dependencies: 0,
            wrong_store: 0,
            smb_errors: 0,
            correct_mdp: 451,
            correct_smb: 0,
            correct_no_dep: 2732,
            mem_order_squashes: 2,
            smb_squashes: 0,
            branch_mispredicts: 309,
            indirect_mispredicts: 0,
            loads_bypassed: 0,
            loads_forwarded: 453,
            loads_from_cache: 2732,
            class_direct_bypass: 0,
            class_no_offset: 0,
            class_offset: 0,
            class_mdp_only: 453,
            dependent_wait_cycles: 4527,
            dependent_wait_count: 455,
            stall_frontend: 6023,
            stall_rob: 0,
            stall_iq: 0,
            stall_lq: 0,
            stall_sb: 0,
            l1i_misses: 20,
            l1d_misses: 42,
            l2_misses: 284,
            l3_misses: 284,
            ..SimStats::default()
        },
    ]
}

#[rustfmt::skip]
fn sampled_golden() -> Vec<(u64, u64, SimStats)> {
    vec![
        // ("perlbench2", PredictorKind::Mascot)
        (12068, 22000, SimStats {
            cycles: 79724,
            committed_uops: 24068,
            committed_loads: 4203,
            committed_stores: 3060,
            committed_branches: 4066,
            pred_no_dep: 2208,
            pred_mdp: 812,
            pred_smb: 1183,
            missed_dependencies: 252,
            false_dependencies: 33,
            wrong_store: 165,
            smb_errors: 0,
            correct_mdp: 617,
            correct_smb: 1180,
            correct_no_dep: 1956,
            mem_order_squashes: 36,
            smb_squashes: 3,
            branch_mispredicts: 1113,
            indirect_mispredicts: 0,
            loads_bypassed: 1180,
            loads_forwarded: 1034,
            loads_from_cache: 1989,
            class_direct_bypass: 1760,
            class_no_offset: 159,
            class_offset: 0,
            class_mdp_only: 295,
            dependent_wait_cycles: 32004,
            dependent_wait_count: 2327,
            stall_frontend: 73752,
            stall_rob: 0,
            stall_iq: 0,
            stall_lq: 0,
            stall_sb: 0,
            l1i_misses: 576,
            l1d_misses: 2309,
            l2_misses: 2886,
            l3_misses: 2886,
            tenant_boundary: 0,
            victim: TenantCounters {
                loads: 0,
                missed_dependencies: 0,
                false_dependencies: 0,
                false_bypasses: 0,
            },
            attacker: TenantCounters {
                loads: 0,
                missed_dependencies: 0,
                false_dependencies: 0,
                false_bypasses: 0,
            },
        }),
        // ("perlbench2", PredictorKind::StoreSets)
        (12068, 22000, SimStats {
            cycles: 80127,
            committed_uops: 24068,
            committed_loads: 4203,
            committed_stores: 3060,
            committed_branches: 4066,
            pred_no_dep: 2163,
            pred_mdp: 2040,
            pred_smb: 0,
            missed_dependencies: 252,
            false_dependencies: 78,
            wrong_store: 0,
            smb_errors: 0,
            correct_mdp: 1962,
            correct_smb: 0,
            correct_no_dep: 1911,
            mem_order_squashes: 36,
            smb_squashes: 0,
            branch_mispredicts: 1113,
            indirect_mispredicts: 0,
            loads_bypassed: 0,
            loads_forwarded: 2214,
            loads_from_cache: 1989,
            class_direct_bypass: 1760,
            class_no_offset: 159,
            class_offset: 0,
            class_mdp_only: 295,
            dependent_wait_cycles: 42731,
            dependent_wait_count: 2321,
            stall_frontend: 74151,
            stall_rob: 0,
            stall_iq: 0,
            stall_lq: 0,
            stall_sb: 0,
            l1i_misses: 576,
            l1d_misses: 2318,
            l2_misses: 2889,
            l3_misses: 2889,
            tenant_boundary: 0,
            victim: TenantCounters {
                loads: 0,
                missed_dependencies: 0,
                false_dependencies: 0,
                false_bypasses: 0,
            },
            attacker: TenantCounters {
                loads: 0,
                missed_dependencies: 0,
                false_dependencies: 0,
                false_bypasses: 0,
            },
        }),
        // ("bwaves", PredictorKind::Mascot)
        (12042, 22000, SimStats {
            cycles: 22304,
            committed_uops: 24042,
            committed_loads: 8381,
            committed_stores: 844,
            committed_branches: 2235,
            pred_no_dep: 7846,
            pred_mdp: 535,
            pred_smb: 0,
            missed_dependencies: 12,
            false_dependencies: 0,
            wrong_store: 0,
            smb_errors: 0,
            correct_mdp: 535,
            correct_smb: 0,
            correct_no_dep: 7834,
            mem_order_squashes: 12,
            smb_squashes: 0,
            branch_mispredicts: 346,
            indirect_mispredicts: 0,
            loads_bypassed: 0,
            loads_forwarded: 547,
            loads_from_cache: 7834,
            class_direct_bypass: 0,
            class_no_offset: 0,
            class_offset: 0,
            class_mdp_only: 547,
            dependent_wait_cycles: 5556,
            dependent_wait_count: 559,
            stall_frontend: 17722,
            stall_rob: 0,
            stall_iq: 0,
            stall_lq: 0,
            stall_sb: 0,
            l1i_misses: 132,
            l1d_misses: 234,
            l2_misses: 2328,
            l3_misses: 2328,
            tenant_boundary: 0,
            victim: TenantCounters {
                loads: 0,
                missed_dependencies: 0,
                false_dependencies: 0,
                false_bypasses: 0,
            },
            attacker: TenantCounters {
                loads: 0,
                missed_dependencies: 0,
                false_dependencies: 0,
                false_bypasses: 0,
            },
        }),
        // ("bwaves", PredictorKind::StoreSets)
        (12042, 22000, SimStats {
            cycles: 22304,
            committed_uops: 24042,
            committed_loads: 8381,
            committed_stores: 844,
            committed_branches: 2235,
            pred_no_dep: 7846,
            pred_mdp: 535,
            pred_smb: 0,
            missed_dependencies: 12,
            false_dependencies: 0,
            wrong_store: 0,
            smb_errors: 0,
            correct_mdp: 535,
            correct_smb: 0,
            correct_no_dep: 7834,
            mem_order_squashes: 12,
            smb_squashes: 0,
            branch_mispredicts: 346,
            indirect_mispredicts: 0,
            loads_bypassed: 0,
            loads_forwarded: 547,
            loads_from_cache: 7834,
            class_direct_bypass: 0,
            class_no_offset: 0,
            class_offset: 0,
            class_mdp_only: 547,
            dependent_wait_cycles: 5556,
            dependent_wait_count: 559,
            stall_frontend: 17722,
            stall_rob: 0,
            stall_iq: 0,
            stall_lq: 0,
            stall_sb: 0,
            l1i_misses: 132,
            l1d_misses: 234,
            l2_misses: 2328,
            l3_misses: 2328,
            tenant_boundary: 0,
            victim: TenantCounters {
                loads: 0,
                missed_dependencies: 0,
                false_dependencies: 0,
                false_bypasses: 0,
            },
            attacker: TenantCounters {
                loads: 0,
                missed_dependencies: 0,
                false_dependencies: 0,
                false_bypasses: 0,
            },
        }),
    ]
}
