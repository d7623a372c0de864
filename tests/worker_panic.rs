//! Regression test for span hygiene under worker panics (sibling of
//! `tests/faults.rs`, in its own binary because it arms a process-global
//! one-shot panic hook and captures the process-global span log — state
//! that concurrent merges in the faults binary would race on).
//!
//! A salvage-mode merge worker that panics mid-node must not leak its
//! open spans: unwinding runs every `Span`'s `Drop`, which closes the
//! interval, marks it aborted, and heals the thread-local span stack —
//! and the salvage retry must still produce byte-identical clean output.
//! The same at every `--jobs`, one included: the guard belongs to the
//! per-node stage, not to how many workers run it.

use std::collections::HashSet;
use std::sync::{Mutex, MutexGuard};

use ute::cluster::Simulator;
use ute::convert::{convert_job_pooled, ConvertOptions};
use ute::format::profile::Profile;
use ute::merge::{merge_files_jobs, testhook, MergeOptions};
use ute::workloads::micro;

/// The per-node files `ute convert` leaves for a small stencil run, and
/// the salvage-mode options `ute merge` reads them with.
fn converted_stencil() -> (Profile, Vec<Vec<u8>>, MergeOptions) {
    let w = micro::stencil(4, 6, 4 << 10);
    let result = Simulator::new(w.config, &w.job).unwrap().run().unwrap();
    let profile = Profile::standard();
    let copts = ConvertOptions {
        lenient: true,
        salvage: true,
        ..ConvertOptions::default()
    };
    let converted =
        convert_job_pooled(&result.raw_files, &result.threads, &profile, &copts, 2).unwrap();
    let mopts = MergeOptions {
        salvage: true,
        ..MergeOptions::default()
    };
    let files = converted.into_iter().map(|c| c.interval_file).collect();
    (profile, files, mopts)
}

/// The panic testhook and the span-capture switch are process-global;
/// the tests in this binary take this lock so neither trips the other.
static HOOK_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    HOOK_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[test]
fn worker_panic_marks_spans_aborted_and_retry_keeps_output_clean() {
    let _g = lock();
    let (profile, files, mopts) = converted_stencil();
    let refs: Vec<&[u8]> = files.iter().map(|f| f.as_slice()).collect();

    let clean = merge_files_jobs(&refs, &profile, &mopts, 2).unwrap();

    for jobs in [1, 2, 4] {
        ute::obs::set_capture(true);
        ute::obs::drain_spans();
        let retries_before = ute::obs::snapshot()
            .counter("pipeline/worker_retries")
            .unwrap_or(0);

        testhook::arm_adjust_panic(1);
        let out = merge_files_jobs(&refs, &profile, &mopts, jobs).unwrap();

        ute::obs::set_capture(false);
        let spans = ute::obs::drain_spans();

        // The injected panic was caught, the retry (hook is one-shot)
        // adjusted the node cleanly, and the merged bytes are unaffected.
        assert_eq!(
            out.merged, clean.merged,
            "retry after injected worker panic must reproduce the clean bytes (jobs {jobs})"
        );
        let retries_after = ute::obs::snapshot()
            .counter("pipeline/worker_retries")
            .unwrap_or(0);
        assert!(
            retries_after > retries_before,
            "injected panic did not register a worker retry (jobs {jobs})"
        );

        // The span open at panic time (the per-node merge span) was closed
        // by unwinding and marked aborted — not leaked.
        let ids: HashSet<u64> = spans.iter().map(|s| s.id).collect();
        let aborted: Vec<_> = spans
            .iter()
            .filter(|s| s.aborted && s.stage == "merge" && s.label == "merge node 1")
            .collect();
        assert!(
            !aborted.is_empty(),
            "no aborted `merge node 1` span captured ({} spans total, jobs {jobs})",
            spans.len()
        );
        // Its hierarchy survived the unwind: the parent (the worker span,
        // which outlives the caught panic) is present in the same capture.
        for s in &aborted {
            assert_ne!(s.parent, 0, "aborted span lost its parent");
            assert!(
                ids.contains(&s.parent),
                "aborted span's parent {} not in the captured set",
                s.parent
            );
        }
        // And the retry's successful span for the same node is there too,
        // un-aborted.
        assert!(
            spans
                .iter()
                .any(|s| !s.aborted && s.stage == "merge" && s.label == "merge node 1"),
            "retry did not record a clean merge span for node 1"
        );

        // The panicking thread healed its thread-local span stack (removal
        // is by id, not by pop), so this thread's stack is untouched.
        assert_eq!(ute::obs::current_span(), 0);
    }
}

/// The crash-safety half of the same property: a worker panic caught by
/// the salvage retry must never surface as a *partial file*. The retry's
/// output, published through the atomic store, is byte-identical to the
/// clean run's — and a panic that escapes mid-stage (before the journal
/// commit) leaves no final file at all, only a temp the next run's
/// startup GC sweeps.
#[test]
fn worker_panic_never_publishes_partial_files() {
    use ute::store::{ArtifactStore, RunJournal};

    let _g = lock();
    let (profile, files, mopts) = converted_stencil();
    let refs: Vec<&[u8]> = files.iter().map(|f| f.as_slice()).collect();
    let dir = std::env::temp_dir().join(format!("ute_panic_publish_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    // Retry path: the injected panic is caught, the node is adjusted
    // again, and what gets atomically published is the clean bytes —
    // all of them, under the final name, no temp residue.
    let clean = merge_files_jobs(&refs, &profile, &mopts, 2).unwrap();
    for jobs in [1, 2, 4] {
        testhook::arm_adjust_panic(1);
        let out = merge_files_jobs(&refs, &profile, &mopts, jobs).unwrap();
        ute::store::atomic_write(&dir.join("merged.ivl"), &out.merged).unwrap();
        assert_eq!(
            std::fs::read(dir.join("merged.ivl")).unwrap(),
            clean.merged,
            "published bytes after a retried worker panic differ from the clean run (jobs {jobs})"
        );
    }

    // Escape path: a panic after temps are written but before the
    // journal commit unwinds out of the stage. Nothing is published;
    // the orphan temp is exactly what startup GC exists to sweep.
    let store = ArtifactStore::new(&dir);
    let _journal = RunJournal::create(&dir, &[("workload".into(), "stencil".into())]).unwrap();
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut store = ArtifactStore::new(&dir);
        store
            .write_temp("convert", "trace.9.ivl", b"partial bytes")
            .unwrap();
        panic!("injected: worker died before the commit record");
    }));
    assert!(r.is_err());
    assert!(
        !dir.join("trace.9.ivl").exists(),
        "a panic before commit must not publish the final name"
    );
    let swept = store.gc_stale_temps(&[]).unwrap();
    assert_eq!(swept, 1, "startup GC must sweep the orphan temp");
    let leftover: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.unwrap().file_name().into_string().ok())
        .filter(|n| n.contains(".tmp."))
        .collect();
    assert_eq!(leftover, Vec::<String>::new());
    std::fs::remove_dir_all(&dir).ok();
}

/// Strict mode has no retry and drops nothing: a panic in the per-node
/// stage comes back as an error — the same one whether the stage ran on
/// the calling thread or on a worker — and never as a panic in the
/// caller.
#[test]
fn strict_worker_panic_is_the_same_typed_error_at_any_job_count() {
    let _g = lock();
    let (profile, files, _) = converted_stencil();
    let refs: Vec<&[u8]> = files.iter().map(|f| f.as_slice()).collect();
    let strict = MergeOptions::default();
    let clean = merge_files_jobs(&refs, &profile, &strict, 1).unwrap();
    for jobs in [1, 2, 4] {
        testhook::arm_adjust_panic(1);
        let err = merge_files_jobs(&refs, &profile, &strict, jobs).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid request: worker panicked",
            "jobs {jobs}"
        );
        // The hook was one-shot and nothing is left poisoned.
        let again = merge_files_jobs(&refs, &profile, &strict, jobs).unwrap();
        assert_eq!(again.merged, clean.merged, "jobs {jobs}");
        assert_eq!(ute::obs::current_span(), 0);
    }
}
