//! Integration tests for the profiling layer (`ute-profile`): the
//! profile is a fold over the captured span log, so it must survive
//! worker panics (the aborted span is in it), hold its arithmetic
//! invariants exactly, never perturb pipeline output bytes, and the
//! `ute profile` command must publish a report that explains the run.
//!
//! Own binary because span capture and the worker panic testhook are
//! process-global — the lock below serializes the tests that touch them.

mod common;

use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};

use ute::cluster::Simulator;
use ute::convert::ConvertOptions;
use ute::format::profile::Profile;
use ute::merge::{testhook, MergeOptions, MergeOutput};
use ute::obs::FinishedSpan;
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

/// Runs `f` with span capture on and returns what it logged.
fn captured<T>(f: impl FnOnce() -> T) -> (T, Vec<FinishedSpan>) {
    ute::obs::set_capture(true);
    ute::obs::drain_spans();
    let out = f();
    ute::obs::set_capture(false);
    (out, ute::obs::drain_spans())
}

#[test]
fn salvaged_worker_panic_still_yields_a_report_with_the_aborted_span() {
    let _g = lock();
    // A merge worker panics mid-node (one-shot hook); the salvage
    // retry must still succeed, and the span the panic unwound through
    // is in the capture, marked aborted.
    testhook::arm_adjust_panic(1);
    let (out, spans) = captured(|| run_pipeline(4));
    assert!(!out.merged.is_empty());
    assert!(
        spans.iter().any(|s| s.aborted && s.label == "merge node 1"),
        "no aborted `merge node 1` span among {} captured",
        spans.len()
    );

    let profile = ute::profile::fold(&spans, None);
    assert_eq!(profile.spans, spans.len(), "the fold lost a span");
    assert_eq!(profile.orphans, 0);
    assert!(
        profile
            .folded
            .contains_key("adjust worker node 1;merge node 1"),
        "aborted span's stack missing from {:?}",
        profile.folded.keys()
    );
    let text = ute::profile::build_report("stencil", profile.clone()).render_text();
    assert!(text.contains("rank") && text.contains("merge"), "{text}");

    // What a sampler could only estimate, the fold holds exactly.
    for r in &profile.stages {
        assert!(r.self_ns <= r.wall_ns, "self beyond wall: {r:?}");
    }
    let tids: BTreeSet<u64> = spans.iter().map(|s| s.tid).collect();
    assert!(tids.len() >= 2, "--jobs 4 ran on one thread");
    for tid in tids {
        // Folded alone, a thread's spans keep their self times (only
        // same-thread children are subtracted); they must add up to the
        // durations of the spans no other span on the thread encloses.
        let mine: Vec<FinishedSpan> = spans.iter().filter(|s| s.tid == tid).cloned().collect();
        let roots: u64 = mine
            .iter()
            .filter(|s| !mine.iter().any(|p| p.id == s.parent))
            .map(|s| s.dur_ns)
            .sum();
        let own: u64 = ute::profile::fold(&mine, None)
            .stages
            .iter()
            .map(|r| r.self_ns)
            .sum();
        assert_eq!(own, roots, "thread {tid}: self times do not tile its roots");
    }
    assert_eq!(
        ute::profile::folded_output(&ute::profile::fold(&spans, None)),
        ute::profile::folded_output(&profile),
        "folding the same spans twice gave different bytes"
    );
}

#[test]
fn artifacts_are_byte_identical_with_profiling_on_or_off() {
    let _g = lock();
    ute::obs::set_capture(false);
    let baseline = run_pipeline(1);

    for jobs in [1usize, 4] {
        let (profiled, spans) = captured(|| run_pipeline(jobs));
        assert!(!spans.is_empty());
        assert_eq!(
            profiled.merged, baseline.merged,
            "capture must be purely observational (jobs {jobs})"
        );
    }
}

/// `"key": <number>` on one line of the hand-rolled profile.json.
fn num(line: &str, key: &str) -> f64 {
    let at = line.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4;
    let rest = &line[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().expect(key)
}

#[test]
fn ute_profile_publishes_ranked_report_and_folded_stacks() {
    let _g = lock();
    let dir = std::env::temp_dir().join(format!("ute_profile_smoke_{}", std::process::id()));
    let argv: Vec<String> = [
        "profile",
        // Long enough (~0.2 s unoptimized) that the root's few hundred
        // µs of unnamed time cannot approach the 10 % the test allows.
        "--workload",
        "scaling",
        "--out",
        dir.to_str().unwrap(),
        "--jobs",
        "2",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let stack_keys = || -> BTreeSet<String> {
        let folded = std::fs::read_to_string(dir.join("profile.folded")).unwrap();
        assert!(!folded.trim().is_empty(), "profile.folded is empty");
        folded
            .lines()
            .map(|line| {
                let (stack, weight) = line.rsplit_once(' ').expect("folded `stack weight` shape");
                assert!(!stack.is_empty());
                weight.parse::<u64>().expect("folded weight is a number");
                stack.to_string()
            })
            .collect()
    };

    let msg = ute::cli::run(&argv).unwrap();
    assert!(msg.contains("profile: scaling"), "missing header: {msg}");
    assert!(msg.contains("rank"), "missing ranking table: {msg}");
    let first = stack_keys();
    assert!(
        first.contains("profile;convert;convert worker node 0;convert node 0"),
        "workers do not hang under the root: {first:?}"
    );

    let json = std::fs::read_to_string(dir.join("profile.json")).unwrap();
    for key in [
        "\"enabled\": true",
        "\"workload\": \"scaling\"",
        "\"coverage\"",
        "\"spans\"",
        "\"cpu_clock\"",
        "\"stages\"",
    ] {
        assert!(json.contains(key), "profile.json missing {key}: {json}");
    }

    // The profile explains the run: ≥ 90 % of the root's wall lies in a
    // named stage, the stages the budget is made of are all rows, rows
    // are ranked, and no row claims more self time than it has wall.
    let coverage = num(
        json.lines().find(|l| l.contains("\"coverage\"")).unwrap(),
        "coverage",
    );
    assert!(coverage >= 0.9, "coverage {coverage} below 90%: {msg}");
    let rows: Vec<&str> = json.lines().filter(|l| l.contains("\"stage\"")).collect();
    for stage in ["store", "merge", "convert", "slog", "stats"] {
        let key = format!("\"stage\": \"{stage}\"");
        assert!(
            rows.iter().any(|r| r.contains(&key)),
            "no {stage} row: {msg}"
        );
    }
    let selfs: Vec<f64> = rows.iter().map(|r| num(r, "self_ns")).collect();
    assert!(selfs.windows(2).all(|w| w[0] >= w[1]), "not ranked: {msg}");
    for r in &rows {
        assert!(
            num(r, "self_ns") <= num(r, "wall_ns"),
            "self beyond wall: {r}"
        );
        assert!(num(r, "wall_ns") > 0.0, "zero wall: {r}");
    }

    // Same command, same --jobs: the same set of stacks, whatever the
    // scheduler did.
    ute::cli::run(&argv).unwrap();
    assert_eq!(stack_keys(), first, "stack keys differ between two runs");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn view_and_preview_time_each_layer_under_one_view_span() {
    let _g = lock();
    let dir = std::env::temp_dir().join(format!("ute_profile_view_{}", std::process::id()));
    let at = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let run = |tokens: &[&str]| {
        let argv: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        ute::cli::run(&argv).unwrap()
    };
    let d = dir.to_str().unwrap();
    run(&[
        "pipeline",
        "--workload",
        "pingpong",
        "--out",
        d,
        "--jobs",
        "1",
    ]);
    let bars = ute::obs::counter("view/bars");
    let (slog, svg) = (at("run.slog"), at("view.svg"));
    let before = bars.get();
    let (_, spans) = captured(|| run(&["view", "--slog", &slog, "--svg", &svg]));
    assert!(bars.get() > before, "view/bars not counted");
    let (_, preview) = captured(|| run(&["preview", "--slog", &slog, "--svg", &svg]));
    let layers = [
        "read slog frames",
        "render ascii",
        "render svg",
        "write svg",
    ];
    for (spans, extra) in [(spans, Some("build view")), (preview, None)] {
        let view = spans.iter().find(|s| s.stage == "view").expect("view span");
        let mut children: Vec<&str> = (spans.iter())
            .filter(|s| s.parent == view.id)
            .map(|s| s.label.as_str())
            .collect();
        children.sort_unstable();
        let mut want: Vec<&str> = layers.iter().copied().chain(extra).collect();
        want.sort_unstable();
        assert_eq!(children, want);
    }
    std::fs::remove_dir_all(&dir).ok();
}
