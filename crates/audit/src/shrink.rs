//! Shrink-to-repro: delta-debugs a failing trace to a minimal one.
//!
//! The failure oracle is any `FnMut(&Trace) -> bool` ("does this trace
//! still fail?"), typically built from [`crate::runner::run_audited`]. The
//! shrinker never hands the oracle a malformed trace: after every cut the
//! ground-truth dependence annotations are recomputed from the surviving
//! addresses ([`renormalize`]), mirroring the classification the workload
//! generator used, so `Trace::validate` holds by construction.
//!
//! Strategy: binary-search the shortest failing prefix first (a panic has a
//! program-order trigger point, so prefix failure is monotone in practice;
//! every accepted candidate is re-tested, never assumed), then classic
//! ddmin chunk removal with halving chunk sizes down to single micro-ops.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

use mascot_sim::uop::TraceDep;
use mascot_sim::{codec, Trace, Uop, UopBuf, UopKind};
use mascot::prediction::BypassClass;

/// Recomputes every load's ground-truth [`TraceDep`] from the surviving
/// stores, using the same per-byte last-writer classification as
/// `mascot_workloads`' generator. Other micro-ops pass through unchanged.
/// A fresh generated trace renormalizes to itself.
pub fn renormalize(trace: &Trace) -> Trace {
    rebuild(&trace.name, &trace.uops)
}

/// A trace named `name` holding `uops` with every load's dependence
/// recomputed, as [`renormalize`] does.
fn rebuild(name: &str, uops: impl IntoIterator<Item = Uop>) -> Trace {
    struct StoreRec {
        addr: u64,
        size: u8,
        pc: u64,
        branches_at: u64,
    }
    let mut byte_writer: HashMap<u64, u32> = HashMap::new();
    let mut stores: Vec<StoreRec> = Vec::new();
    let mut branch_count = 0u64;
    let uops = uops.into_iter();
    let mut out = UopBuf::with_capacity(uops.size_hint().0);
    for mut u in uops {
        match u.kind {
            UopKind::Alu => {}
            UopKind::Branch { .. } => branch_count += 1,
            UopKind::Store { addr, size } => {
                let number = stores.len() as u32;
                stores.push(StoreRec {
                    addr,
                    size,
                    pc: u.pc,
                    branches_at: branch_count,
                });
                for b in addr..addr + u64::from(size) {
                    byte_writer.insert(b, number);
                }
            }
            UopKind::Load { addr, size, .. } => {
                let writers: Vec<Option<u32>> = (addr..addr + u64::from(size))
                    .map(|b| byte_writer.get(&b).copied())
                    .collect();
                let dep = writers.iter().flatten().copied().max().map(|youngest| {
                    let s = &stores[youngest as usize];
                    let covers_all = writers.iter().all(|w| *w == Some(youngest));
                    let class = if covers_all {
                        if s.addr == addr && s.size == size {
                            BypassClass::DirectBypass
                        } else if s.addr == addr {
                            BypassClass::NoOffset
                        } else {
                            BypassClass::Offset
                        }
                    } else {
                        BypassClass::MdpOnly
                    };
                    TraceDep {
                        distance: stores.len() as u32 - youngest,
                        class,
                        store_pc: s.pc,
                        branches_between: (branch_count - s.branches_at) as u32,
                    }
                });
                u.kind = UopKind::Load { addr, size, dep };
            }
        }
        out.push(u);
    }
    let out = Trace {
        name: name.to_string(),
        uops: out,
    };
    debug_assert_eq!(out.validate(), Ok(()));
    out
}

/// Shrinks `trace` to a (locally) minimal trace on which `fails` still
/// returns true. `fails(trace)` must hold on entry; panics otherwise. The
/// oracle only ever sees renormalized, `validate`-clean traces.
pub fn shrink(trace: &Trace, fails: &mut dyn FnMut(&Trace) -> bool) -> Trace {
    assert!(
        fails(trace),
        "shrink requires a failing input trace ({:?})",
        trace.name
    );

    // Phase 1: shortest failing prefix, by binary search.
    let mut lo = 1usize; // shortest length not yet known to pass
    let mut hi = trace.len(); // known-failing prefix length
    let mut current = trace.clone();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let candidate = rebuild(&trace.name, trace.uops.slice(..mid));
        if fails(&candidate) {
            hi = mid;
            current = candidate;
        } else {
            lo = mid + 1;
        }
    }

    // Phase 2: ddmin — remove chunks of halving size until single-uop
    // removal reaches a fixed point.
    let mut chunk = (current.len() / 2).max(1);
    loop {
        let mut removed_any = false;
        let mut i = 0;
        while i < current.len() {
            let end = (i + chunk).min(current.len());
            if end - i == current.len() {
                break; // never offer the empty trace
            }
            let kept = current.uops.slice(..i).iter().chain(current.uops.slice(end..));
            let candidate = rebuild(&trace.name, kept);
            if fails(&candidate) {
                current = candidate;
                removed_any = true;
                // The same index now addresses the next chunk.
            } else {
                i = end;
            }
        }
        if chunk == 1 {
            if !removed_any {
                break;
            }
        } else {
            chunk = (chunk / 2).max(1);
        }
    }
    current
}

/// Writes `trace` under `dir` as `repro-<label>.mtrc` and returns the path
/// together with the one-line command that reproduces the failure.
pub fn write_repro(trace: &Trace, dir: &Path, label: &str) -> io::Result<(PathBuf, String)> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("repro-{label}.mtrc"));
    let file = std::fs::File::create(&path)?;
    codec::save(trace, io::BufWriter::new(file))?;
    let command = format!(
        "cargo run --release -p mascot-audit --bin audit-soak -- --repro {}",
        path.display()
    );
    Ok((path, command))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mascot_workloads::{generate, spec};

    /// The generator's own annotations are a fixed point of renormalize —
    /// the two classifiers agree on every load.
    #[test]
    fn renormalize_is_identity_on_generated_traces() {
        for name in ["perlbench2", "exchange2", "bwaves"] {
            let profile = spec::profile(name).expect("known profile");
            let trace = generate(&profile, 5, 6_000);
            let renorm = renormalize(&trace);
            assert_eq!(trace.uops, renorm.uops, "{name}");
        }
    }

    /// Cutting the source store out of a dependent pair re-annotates the
    /// load (here: to an older store at a greater distance).
    #[test]
    fn renormalize_reanchors_deps_after_a_cut() {
        let mut uops = vec![
            Uop::store(0x100, 0x1000, 8, None, None),
            Uop::store(0x110, 0x1000, 8, None, None),
            Uop::load(0x120, 0x1000, 8, None, 1, None),
        ];
        let full = renormalize(&Trace::new("cut", uops.clone()));
        let dep = match full.uops.get(2).kind {
            UopKind::Load { dep, .. } => dep.expect("dependent"),
            _ => unreachable!(),
        };
        assert_eq!(dep.distance, 1);
        assert_eq!(dep.store_pc, 0x110);

        uops.remove(1); // drop the youngest writer
        let cut = renormalize(&Trace::new("cut", uops));
        let dep = match cut.uops.get(1).kind {
            UopKind::Load { dep, .. } => dep.expect("still dependent"),
            _ => unreachable!(),
        };
        assert_eq!(dep.distance, 1, "re-anchored to the surviving store");
        assert_eq!(dep.store_pc, 0x100);
        assert_eq!(cut.validate(), Ok(()));
    }

    /// Shrinking against a content oracle finds the minimal witness.
    #[test]
    fn shrink_finds_a_minimal_witness() {
        let profile = spec::profile("perlbench2").expect("known profile");
        let trace = generate(&profile, 9, 4_000);
        // "Fails" iff it still contains a store and a load to some shared
        // address (a dependent pair anywhere in the trace).
        let mut calls = 0u32;
        let mut fails = |t: &Trace| {
            calls += 1;
            t.uops.iter().any(|u| {
                matches!(u.kind, UopKind::Load { dep: Some(_), .. })
            })
        };
        let minimal = shrink(&trace, &mut fails);
        assert_eq!(minimal.validate(), Ok(()));
        // Minimal witness: one store + one dependent load.
        assert!(
            minimal.len() == 2,
            "expected a 2-uop witness, got {} uops",
            minimal.len()
        );
        assert!(calls > 0);
    }
}
