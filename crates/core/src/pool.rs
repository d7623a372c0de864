//! The workspace's one worker pool: an ordered map over a slice.
//!
//! Convert (one node file per item) and merge (one converted file per
//! item) are both "do the same independent thing to every input, then
//! use the results in input order". [`map_ordered`] is that and nothing
//! else: no channel, no queue, no thread per item. Spans and self-trace
//! flow links belong to the callers, whose closures open them.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::error::{Result, UteError};

/// The default worker count: the machine's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Applies `f(index, item)` to every item and returns the results in
/// input order. Up to `jobs` scoped workers each claim the next
/// unclaimed index until none is left, so at most `jobs` items are in
/// flight and a long item holds up nobody else; with `jobs == 1` (or at
/// most one item) the loop runs on the calling thread.
///
/// `f` sees nothing of the schedule, so for a pure `f` the returned
/// vector is the same at every `jobs`. A panic in `f` comes back as an
/// error, at any `jobs`, after the other workers have drained the items.
pub fn map_ordered<'a, T, R, F>(items: &'a [T], jobs: usize, f: F) -> Result<Vec<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &'a T) -> R + Sync,
{
    // Only hands out indices; the results travel through the joins.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            match items.get(i) {
                Some(item) => done.push((i, f(i, item))),
                None => return done,
            }
        }
    };
    let workers = jobs.clamp(1, items.len().max(1));
    let parts = if workers == 1 {
        vec![catch_unwind(AssertUnwindSafe(work))]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers).map(|_| s.spawn(work)).collect();
            handles.into_iter().map(|h| h.join()).collect()
        })
    };
    // Every index was claimed exactly once, so sorting the workers' pairs
    // by index is the input order.
    let mut done = Vec::with_capacity(items.len());
    for part in parts {
        done.extend(part.map_err(|_| UteError::Invalid("worker panicked".into()))?);
    }
    done.sort_unstable_by_key(|&(i, _)| i);
    Ok(done.into_iter().map(|(_, r)| r).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::{Barrier, Mutex};

    #[test]
    fn results_come_back_in_input_order_at_any_job_count() {
        let items: Vec<u64> = (0..100).collect();
        let want: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for jobs in [0, 1, 2, 3, 8, 1000] {
            let got = map_ordered(&items, jobs, |i, x| {
                assert_eq!(i as u64, *x);
                x * x + 1
            })
            .unwrap();
            assert_eq!(got, want, "jobs={jobs}");
        }
        assert!(map_ordered(&[] as &[u64], 4, |_, x| *x).unwrap().is_empty());
    }

    #[test]
    fn runs_on_the_caller_at_one_job_and_on_at_most_jobs_threads_otherwise() {
        let items = [(); 64];
        let me = std::thread::current().id();
        let ids = map_ordered(&items, 1, |_, _| std::thread::current().id()).unwrap();
        assert!(ids.iter().all(|id| *id == me));

        // Both workers must be inside `f` at once for the barrier to open.
        let barrier = Barrier::new(2);
        let met = Mutex::new(false);
        let ids = map_ordered(&items, 2, |_, _| {
            if !*met.lock().unwrap() {
                barrier.wait();
                *met.lock().unwrap() = true;
            }
            std::thread::current().id()
        })
        .unwrap();
        let distinct: HashSet<_> = ids.into_iter().collect();
        assert_eq!(distinct.len(), 2);
    }

    #[test]
    fn a_panicking_item_is_an_error_at_any_job_count() {
        let items: Vec<u32> = (0..16).collect();
        for jobs in [1, 2, 4] {
            let r = map_ordered(&items, jobs, |_, x| {
                if *x == 5 {
                    panic!("injected");
                }
                *x
            });
            let e = r.unwrap_err().to_string();
            assert_eq!(e, "invalid request: worker panicked", "jobs={jobs}");
        }
    }
}
