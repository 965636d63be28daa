//! Interval slicing over [`Trace`]s for sampled simulation.
//!
//! The Memory Access Vectors methodology (see PAPERS.md and DESIGN.md §13)
//! slices a long trace into fixed-size intervals, fingerprints each by its
//! memory-access behaviour, and simulates only one representative interval
//! per cluster. This module owns the slicing: the canonical interval
//! boundaries for a trace length, and the extraction of a standalone
//! sub-trace (warm-up prefix plus measured window) whose ground-truth
//! dependence annotations stay valid.

use std::ops::Range;

use mascot_sim::{Trace, UopBuf, UopKind};

/// The canonical interval boundaries for a trace of `trace_len` uops:
/// fixed-size windows of `interval_uops`, in order, with the final interval
/// keeping whatever remainder is left (it may be shorter). These boundaries
/// are shared by fingerprinting, clustering and the reference
/// `run_interval_deltas` sweep, so every layer agrees on what "interval i"
/// means.
///
/// # Panics
///
/// Panics if `interval_uops` is zero.
pub fn intervals(trace_len: usize, interval_uops: usize) -> Vec<Range<usize>> {
    assert!(interval_uops > 0, "interval size must be non-zero");
    let mut out = Vec::with_capacity(trace_len.div_ceil(interval_uops).max(1));
    let mut start = 0;
    while start < trace_len {
        let end = (start + interval_uops).min(trace_len);
        out.push(start..end);
        start = end;
    }
    out
}

/// Extracts `trace[range]` as a standalone trace, fixing up ground-truth
/// dependence annotations so the result still passes [`Trace::validate`]:
/// a load whose annotated store lies *before* the slice (its distance
/// exceeds the stores actually present ahead of it in the slice) loses the
/// annotation — exactly how a hardware LSQ would see it, since that store
/// could never be in flight when the slice executes from cold.
///
/// Used to build a representative's simulation input: the slice starts at
/// the warm-up prefix, so only warm-up-leading loads (never measured-window
/// loads, once the warm-up exceeds the predictors' 127-store window) can
/// lose their annotation.
pub fn slice(trace: &Trace, range: Range<usize>) -> Trace {
    let name = format!("{}[{}..{}]", trace.name, range.start, range.end);
    let mut stores_in_slice = 0u64;
    let mut uops = UopBuf::with_capacity(range.len());
    for mut uop in trace.uops.slice(range) {
        if let UopKind::Load { dep, .. } = &mut uop.kind {
            if dep.is_some_and(|d| u64::from(d.distance) > stores_in_slice) {
                *dep = None;
            }
        }
        if uop.kind.is_store() {
            stores_in_slice += 1;
        }
        uops.push(uop);
    }
    Trace { name, uops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, spec};

    #[test]
    fn boundaries_cover_the_trace_exactly_once() {
        let iv = intervals(25, 10);
        assert_eq!(iv, vec![0..10, 10..20, 20..25]);
        assert_eq!(intervals(0, 10), Vec::<Range<usize>>::new());
        assert_eq!(intervals(10, 10), vec![0..10]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_interval_size_is_rejected() {
        let _ = intervals(100, 0);
    }

    #[test]
    fn slices_validate_and_preserve_in_slice_deps() {
        let profile = spec::profile("perlbench2").expect("known profile");
        let trace = generate(&profile, 7, 20_000);
        trace.validate().expect("generator output is consistent");
        for range in intervals(trace.len(), 3_000) {
            let sub = slice(&trace, range.clone());
            assert_eq!(sub.len(), range.len());
            sub.validate()
                .unwrap_or_else(|e| panic!("slice {range:?} is inconsistent: {e}"));
        }
    }

    #[test]
    fn mid_trace_slice_drops_only_out_of_reach_deps() {
        let profile = spec::profile("mcf").expect("known profile");
        let trace = generate(&profile, 3, 10_000);
        let range = 4_000..7_000;
        let sub = slice(&trace, range.clone());
        // Deps annotated in the slice must be a subset of the original's,
        // and every dropped annotation must point before the slice start.
        let mut stores_before = 0u64;
        for (orig, sliced) in trace.uops.slice(range).iter().zip(&sub.uops) {
            match (&orig.kind, &sliced.kind) {
                (
                    mascot_sim::UopKind::Load { dep: od, .. },
                    mascot_sim::UopKind::Load { dep: sd, .. },
                ) => match (od, sd) {
                    (Some(o), Some(s)) => assert_eq!(o, s),
                    (Some(o), None) => assert!(u64::from(o.distance) > stores_before),
                    (None, Some(_)) => panic!("slice invented a dependence"),
                    (None, None) => {}
                },
                _ => assert_eq!(orig, sliced),
            }
            if orig.kind.is_store() {
                stores_before += 1;
            }
        }
        // The slice must actually keep some dependences (the profile is
        // dependence-heavy); a slicer that dropped everything would pass
        // the subset check vacuously.
        assert!(sub
            .uops
            .iter()
            .any(|u| matches!(u.kind, mascot_sim::UopKind::Load { dep: Some(_), .. })));
    }
}
