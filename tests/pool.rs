//! `ute_core::pool::map_ordered` — the one pool convert and merge share —
//! where tier-1 sees it: the crate's own unit tests run only under
//! `cargo test --workspace`, and these mirror them.

use std::collections::HashSet;
use std::sync::{Barrier, Mutex};

use ute::core::pool::map_ordered;

#[test]
fn results_come_back_in_input_order_at_any_job_count() {
    let items: Vec<u64> = (0..100).collect();
    let want: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
    for jobs in [0, 1, 2, 3, 8, 64, 1000] {
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
    for jobs in [1, 2, 4, 64] {
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
