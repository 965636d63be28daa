//! Table I: system configuration.
//!
//! Prints the modelled Golden Cove (and Lion Cove) parameters so they can be
//! checked against the paper's Table I.

use crate::{Run, TextTable};
use mascot_sim::CoreConfig;

fn rows(t: &mut TextTable, c: &CoreConfig) {
    t.row([
        "Front-end width".into(),
        format!("{}-wide fetch and decode", c.fetch_width),
    ]);
    t.row([
        "Back-end width".into(),
        format!(
            "{} execution ports ({} load + {} store + {} ALU) and {} commit width",
            c.load_ports + c.store_ports + c.alu_ports,
            c.load_ports,
            c.store_ports,
            c.alu_ports,
            c.commit_width
        ),
    ]);
    t.row([
        "ROB/IQ/LQ/SB".into(),
        format!(
            "{}/{}/{}/{} entries",
            c.rob_entries, c.iq_entries, c.lq_entries, c.sb_entries
        ),
    ]);
    t.row([
        "L1I (private)".into(),
        format!(
            "{}KB, {} ways, {}-cycle hit latency, {} MSHRs",
            c.l1i.size_bytes / 1024,
            c.l1i.ways,
            c.l1i.hit_latency,
            c.l1i.mshrs
        ),
    ]);
    t.row([
        "L1D (private)".into(),
        format!(
            "{}KB, {} ways, {}-cycle hit latency, {} MSHRs",
            c.l1d.size_bytes / 1024,
            c.l1d.ways,
            c.l1d.hit_latency,
            c.l1d.mshrs
        ),
    ]);
    t.row([
        "L1D prefetcher".into(),
        format!("IP-stride with a prefetch degree of {}", c.prefetch_degree),
    ]);
    t.row([
        "L2 (private)".into(),
        format!(
            "{:.2}MB, {} ways, {}-cycle hit latency, {} MSHRs",
            c.l2.size_bytes as f64 / (1024.0 * 1024.0),
            c.l2.ways,
            c.l2.hit_latency,
            c.l2.mshrs
        ),
    ]);
    t.row([
        "L3 (share)".into(),
        format!(
            "{}MB, {} ways, {}-cycle hit latency, {} MSHRs",
            c.l3.size_bytes / (1024 * 1024),
            c.l3.ways,
            c.l3.hit_latency,
            c.l3.mshrs
        ),
    ]);
    t.row([
        "Memory".into(),
        format!("{}-cycle access latency", c.memory_latency),
    ]);
}

pub fn run(_run: &Run) {
    for core in [CoreConfig::golden_cove(), CoreConfig::lion_cove()] {
        let mut t = TextTable::new(["parameter", "value"]);
        rows(&mut t, &core);
        println!("== Table I — {} ==\n{}", core.name, t.render());
    }
}
