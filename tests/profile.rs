//! Integration tests for the continuous-profiling layer (`ute-profile`):
//! the profiler must survive worker panics without leaking live-stack
//! registry entries, must never perturb pipeline output bytes, and the
//! `ute profile` command must publish a well-formed report.
//!
//! Own binary because the profiling flag, the sampler slot, and the
//! worker panic testhook are process-global — the lock below serializes
//! the tests that touch them.

mod common;

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use ute::cluster::Simulator;
use ute::convert::ConvertOptions;
use ute::format::profile::Profile;
use ute::merge::{testhook, MergeOptions, MergeOutput};
use ute::workloads::micro;

static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    GLOBAL_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn run_pipeline(jobs: usize) -> MergeOutput {
    let w = micro::stencil(4, 6, 4 << 10);
    let result = Simulator::new(w.config, &w.job).unwrap().run().unwrap();
    let copts = ConvertOptions {
        lenient: true,
        salvage: true,
        ..ConvertOptions::default()
    };
    let mopts = MergeOptions {
        salvage: true,
        ..MergeOptions::default()
    };
    common::convert_then_merge(
        &result.raw_files,
        &result.threads,
        &Profile::standard(),
        &copts,
        &mopts,
        jobs,
    )
    .unwrap()
    .1
}

/// Counts live frames currently visible to the sampler.
fn live_frames() -> usize {
    let mut n = 0;
    ute::obs::sample_stacks(|_tid, frames| n += frames.len());
    n
}

#[test]
fn profiler_survives_worker_panics_and_heals_the_registry() {
    let _g = lock();
    ute::obs::set_profiling(true);
    ute::profile::start(Duration::from_micros(200));

    // A merge worker panics mid-node (one-shot hook); the salvage
    // retry must still succeed with the profiler sampling throughout.
    testhook::arm_adjust_panic(1);
    let out = run_pipeline(4);
    assert!(!out.merged.is_empty());

    // Unwinding ran every Span's Drop, so the panicked worker left no
    // frame behind; every other worker exited and its stack pruned.
    assert_eq!(
        live_frames(),
        0,
        "aborted spans must not leak live-stack frames"
    );

    let data = ute::profile::stop().expect("sampler was running");
    ute::obs::set_profiling(false);
    assert!(data.ticks > 0, "sampler never ticked during the run");

    // The profiler restarts cleanly after a stop — no poisoned state.
    ute::profile::start(Duration::from_micros(200));
    assert!(ute::profile::running());
    ute::profile::stop().expect("restarted sampler was running");
    assert!(
        ute::profile::stop().is_none(),
        "double stop must be a no-op"
    );
}

#[test]
fn artifacts_are_byte_identical_with_profiling_on_or_off() {
    let _g = lock();
    ute::obs::set_profiling(false);
    let baseline = run_pipeline(1);

    for jobs in [1usize, 4] {
        ute::obs::set_profiling(true);
        ute::profile::start(Duration::from_micros(200));
        let profiled = run_pipeline(jobs);
        ute::profile::stop();
        ute::obs::set_profiling(false);
        assert_eq!(
            profiled.merged, baseline.merged,
            "profiling must be purely observational (jobs {jobs})"
        );
    }
}

#[test]
fn ute_profile_publishes_ranked_report_and_folded_stacks() {
    let _g = lock();
    let dir = std::env::temp_dir().join(format!("ute_profile_smoke_{}", std::process::id()));
    let argv: Vec<String> = [
        "profile",
        "--workload",
        "stencil",
        "--out",
        dir.to_str().unwrap(),
        "--interval-us",
        "200",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let msg = ute::cli::run(&argv).unwrap();
    assert!(msg.contains("profile: stencil"), "missing header: {msg}");
    assert!(msg.contains("rank"), "missing ranking table: {msg}");

    let folded = std::fs::read_to_string(dir.join("profile.folded")).unwrap();
    assert!(!folded.trim().is_empty(), "profile.folded is empty");
    for line in folded.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("folded `stack count` shape");
        assert!(!stack.is_empty());
        count.parse::<u64>().expect("folded count is a number");
    }

    let json = std::fs::read_to_string(dir.join("profile.json")).unwrap();
    for key in [
        "\"enabled\": true",
        "\"workload\": \"stencil\"",
        "\"coverage\"",
        "\"cpu_clock\"",
        "\"stages\"",
    ] {
        assert!(json.contains(key), "profile.json missing {key}: {json}");
    }

    // Acceptance: stage self-times cover ≥90% of the sampled run. The
    // root CLI span stays open for the whole command, so only sampler
    // scheduling gaps can lower this.
    let coverage: f64 = json
        .lines()
        .find_map(|l| l.trim().strip_prefix("\"coverage\": "))
        .and_then(|v| v.trim_end_matches(',').parse().ok())
        .expect("coverage field");
    assert!(coverage >= 0.9, "self-time coverage {coverage} below 90%");
    std::fs::remove_dir_all(&dir).ok();
}
