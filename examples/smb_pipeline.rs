//! Watch speculative memory bypassing work inside the pipeline.
//!
//! Builds a store→load→use chain whose store data arrives late, then runs
//! it twice — once with MASCOT restricted to MDP and once with full
//! MDP+SMB — and reports how the dependent-instruction issue wait (§VI-A's
//! metric) and IPC respond. This mirrors the paper's perlbench analysis,
//! where bypassing cut the average dependence wait from 38.7 to 15.7
//! cycles.
//!
//! Run with: `cargo run --release --example smb_pipeline`

use mascot_bench::{run_one, PredictorKind};
use mascot_sim::CoreConfig;
use mascot_workloads::WorkloadProfile;

fn main() {
    // A bypass-friendly workload: every load depends on a just-executed
    // store whose data is produced late, and each loaded value feeds a
    // serial chain through memory.
    let profile = WorkloadProfile {
        hammocks: 0,
        spill_fills: 4,
        class_mix: [1.0, 0.0, 0.0, 0.0],
        stream_loads: 2,
        chase_loads: 0,
        alu_per_iter: 4,
        distance_noise: 0,
        noise_branches: 1,
        branch_entropy: 0.1,
        store_data_latency: 10,
        load_consumers: 3,
        store_chase: 4,
        code_contexts: 1,
        load_addr_latency: 6,
        ..WorkloadProfile::base("smb-demo")
    };
    let core = CoreConfig::golden_cove();
    println!(
        "workload: {} (dependent-load fraction {:.0}%)\n",
        profile.name,
        profile.expected_dependent_fraction() * 100.0
    );

    let mdp = run_one(&profile, PredictorKind::MascotMdp, &core, 120_000, 7);
    let smb = run_one(&profile, PredictorKind::Mascot, &core, 120_000, 7);

    for r in [&mdp, &smb] {
        let s = &r.stats;
        println!("{:<12} IPC {:.3}", r.predictor, s.ipc());
        println!(
            "  loads: {} bypassed, {} forwarded, {} from cache",
            s.loads_bypassed, s.loads_forwarded, s.loads_from_cache
        );
        println!(
            "  avg dispatch->issue wait of load consumers: {:.1} cycles",
            s.avg_dependent_wait()
        );
        println!(
            "  squashes: {} memory-order, {} bypass\n",
            s.mem_order_squashes, s.smb_squashes
        );
    }
    let speedup = (smb.stats.ipc() / mdp.stats.ipc() - 1.0) * 100.0;
    let wait_cut = (1.0 - smb.stats.avg_dependent_wait() / mdp.stats.avg_dependent_wait()) * 100.0;
    println!("bypassing: {speedup:+.1}% IPC, {wait_cut:.0}% shorter dependence waits");
    println!("(the paper reports a 60% wait reduction on perlbench, §VI-A)");
}
