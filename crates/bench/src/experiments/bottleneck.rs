//! Cycle-accounting analysis: where each benchmark's cycles go, and the
//! §VI-A issue-wait numbers.
//!
//! Not a paper figure, but the transparency behind EXPERIMENTS.md's
//! divergence notes: it attributes zero-dispatch cycles to the frontend
//! (branch redirects / I-cache) or to back-end structural limits, and
//! reports the average dependence wait with and without bypassing.

use crate::{table::frac_pct, PredictorKind, Run, TextTable};
use mascot_sim::CoreConfig;
use mascot_workloads::spec;

pub fn run(run: &Run) {
    let core = CoreConfig::golden_cove();
    let mut t = TextTable::new([
        "benchmark",
        "IPC",
        "br MPKI",
        "frontend",
        "rob",
        "iq",
        "lq",
        "sb",
        "busy",
        "wait mdp",
        "wait smb",
    ]);
    for profile in spec::all_profiles() {
        let base = run.one(&profile, PredictorKind::PerfectMdp, &core);
        let smb = run.one(&profile, PredictorKind::PerfectMdpSmb, &core);
        let s = &base.stats;
        let c = s.cycles.max(1) as f64;
        t.row([
            profile.name.to_string(),
            format!("{:.2}", s.ipc()),
            format!(
                "{:.1}",
                s.branch_mispredicts as f64 * 1000.0 / s.committed_uops.max(1) as f64
            ),
            frac_pct(s.stall_frontend as f64 / c),
            frac_pct(s.stall_rob as f64 / c),
            frac_pct(s.stall_iq as f64 / c),
            frac_pct(s.stall_lq as f64 / c),
            frac_pct(s.stall_sb as f64 / c),
            frac_pct(1.0 - s.total_dispatch_stalls() as f64 / c),
            format!("{:.1}", s.avg_dependent_wait()),
            format!("{:.1}", smb.stats.avg_dependent_wait()),
        ]);
    }
    println!("== Cycle accounting (perfect-MDP baseline; stalls = zero-dispatch cycles) ==");
    println!("{}", t.render());
    println!("'wait mdp/smb': §VI-A average dispatch->issue wait of load consumers,");
    println!("under perfect MDP vs perfect MDP+SMB (the paper's perlbench analysis).");
}
