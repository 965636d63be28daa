//! A minimal scoped-thread worker pool.
//!
//! The sampling pipeline (one fingerprint per interval, one simulation per
//! cluster representative) and the bench harness (one simulation per suite
//! cell) need the same thing: run N independent jobs on however many cores
//! exist, collect results *in input order*, and propagate panics.
//! `std::thread::scope` gives us that without any dependency: workers claim
//! job indices from a shared atomic counter and write results into per-job
//! slots, so the output order is deterministic regardless of which worker
//! ran what.
//!
//! The calling thread is one of the workers: it runs a share of the jobs
//! instead of waiting, so `workers − 1` threads are spawned. Besides saving
//! a spawn, this keeps the caller's share of the result allocations in the
//! main allocator arena, the discipline `FunctionalWarmer::at_boundaries`
//! follows for the same reason (DESIGN.md §13: a second arena measurably
//! raises peak RSS).

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Applies `f` to every item of `items` on a scoped worker pool and
/// returns the results in input order. `f` receives `(index, &item)`.
///
/// Uses `min(available_parallelism, items.len())` workers, one of them the
/// calling thread; on a single-core host, or for a single item, this is an
/// in-order sequential loop on the caller with no spawn at all.
///
/// A panicking job does not stop the others. Once every worker has
/// stopped, the first panic found (the caller's own, else the lowest
/// spawned worker's) resumes on the calling thread with the job's own
/// payload, whichever thread ran the job.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(items.len())
        .max(1);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else { break };
        let out = f(i, item);
        *slots[i].lock().expect("result slot poisoned") = Some(out);
    };
    let failed = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut failed = panic::catch_unwind(AssertUnwindSafe(work)).err();
        for handle in spawned {
            if let Err(payload) = handle.join() {
                failed.get_or_insert(payload);
            }
        }
        failed
    });
    if let Some(payload) = failed {
        panic::resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every job index was claimed by exactly one worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, |i, &x| {
            assert_eq!(i as u64, x);
            x * x
        });
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u64> = parallel_map(&[] as &[u64], |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn every_item_runs_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let items = vec![(); 257];
        let out = parallel_map(&items, |i, _| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 257);
        assert_eq!(out.len(), 257);
    }

    #[test]
    fn a_single_job_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        assert_eq!(parallel_map(&[()], |_, _| std::thread::current().id()), vec![caller]);
    }

    // The job's own payload surfaces whether the calling thread or a
    // spawned worker ran it.
    #[test]
    #[should_panic(expected = "job failed")]
    fn job_panics_propagate() {
        let items = vec![0u64, 1, 2];
        let _ = parallel_map(&items, |_, &x| {
            if x == 1 {
                panic!("job failed");
            }
            x
        });
    }
}
