//! Acceptance tests for the conformance subsystem: a clean pipeline's
//! artifacts must pass `ute check` with zero violations, seeded
//! corruption must be *detected* as structured findings (never panics),
//! and the differential oracles and fuzzer must hold from the CLI.

use std::path::PathBuf;

use ute::cli::run;

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ute_conformance_{name}_{}", std::process::id()));
    // A stale directory from a previous run could hide a regression
    // (e.g. a file today's pipeline no longer writes).
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn argv(tokens: &[&str]) -> Vec<String> {
    tokens.iter().map(|s| s.to_string()).collect()
}

fn run_pipeline(out: &str, workload: &str) {
    run(&argv(&[
        "pipeline",
        "--workload",
        workload,
        "--out",
        out,
        "--jobs",
        "2",
    ]))
    .unwrap();
}

#[test]
fn clean_pipeline_artifacts_pass_check() {
    let dir = tmpdir("clean");
    let out = dir.to_str().unwrap().to_string();
    run_pipeline(&out, "stencil");
    let msg = run(&argv(&["check", "--in", &out])).unwrap();
    assert!(msg.contains("0 error(s), 0 warning(s)\n"), "{msg}");
    // Every artifact class the pipeline writes was actually checked.
    for artifact in ["trace.0.raw", "trace.0.ivl", "merged.ivl", "run.slog"] {
        assert!(msg.contains(artifact), "missing {artifact} in:\n{msg}");
    }
}

#[test]
fn seeded_corruption_is_detected_without_panics() {
    // Build one clean reference run, then corrupt copies of it under
    // several seeds; `ute check` must fail on each with structured
    // findings, and across the seeds at least 5 distinct rules fire.
    let clean = tmpdir("corrupt_ref");
    let clean_out = clean.to_str().unwrap().to_string();
    run_pipeline(&clean_out, "stencil");
    let mut rules_hit: std::collections::BTreeSet<String> = Default::default();
    for seed in 1u64..=5 {
        let victim = tmpdir(&format!("corrupt_{seed}"));
        for entry in std::fs::read_dir(&clean).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), victim.join(entry.file_name())).unwrap();
        }
        let vout = victim.to_str().unwrap().to_string();
        run(&argv(&[
            "corrupt",
            "--in",
            &vout,
            "--seed",
            &seed.to_string(),
        ]))
        .unwrap();
        let err = run(&argv(&["check", "--in", &vout]))
            .expect_err("corrupted artifacts must fail the check");
        let report = err.to_string();
        assert!(
            !report.contains("no-panic"),
            "a rule panicked instead of reporting (seed {seed}):\n{report}"
        );
        let mut found_here = 0;
        for line in report.lines() {
            if let Some(rest) = line.trim_start().strip_prefix("[error] ") {
                let rule = rest.split(':').next().unwrap().to_string();
                rules_hit.insert(rule);
                found_here += 1;
            }
        }
        assert!(
            found_here > 0,
            "seed {seed} corrupted files but check found nothing:\n{report}"
        );
    }
    assert!(
        rules_hit.len() >= 5,
        "expected ≥5 distinct rules violated across seeds, got {rules_hit:?}"
    );
}

#[test]
fn differential_oracles_hold_from_the_cli() {
    let msg = run(&argv(&["check", "--oracles", "--seed", "7"])).unwrap();
    assert!(msg.contains("0 error(s), 0 warning(s)\n"), "{msg}");
    for oracle in [
        "serial vs --jobs",
        "salvage ⊆ strict",
        "clock-adjusted order",
        "fast vs reference decode",
    ] {
        assert!(msg.contains(oracle), "missing oracle {oracle} in:\n{msg}");
    }
    assert!(msg.contains("checked 4 artifact(s)"), "{msg}");
}

#[test]
fn fuzz_subcommand_is_deterministic_and_clean() {
    let a = run(&argv(&["fuzz", "--seed", "11", "--iters", "96"])).unwrap();
    let b = run(&argv(&["fuzz", "--seed", "11", "--iters", "96"])).unwrap();
    assert_eq!(a, b, "fuzz output must be a pure function of the seed");
    assert!(a.contains("0 panic(s)"), "{a}");
}

#[test]
fn unknown_options_are_rejected_before_any_command_runs() {
    // A misspelt option used to be stored and ignored (`--job 7` ran at
    // the default `--jobs`). Every command checks what it is given
    // against the keys it reads, before it touches anything.
    for cmd in ute::cli::COMMANDS.iter().map(|c| c.name) {
        let err = run(&argv(&[cmd, "--no-such-option", "x"])).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("invalid request: {cmd}: unknown option --no-such-option")
        );
    }
    let dir = tmpdir("unknown_option");
    let out = dir.to_str().unwrap();
    let err = run(&argv(&[
        "pipeline",
        "--workload",
        "stencil",
        "--out",
        out,
        "--job",
        "1",
    ]))
    .unwrap_err();
    assert_eq!(
        err.to_string(),
        "invalid request: pipeline: unknown option --job (did you mean --jobs?)"
    );
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "nothing ran");
    // An option of another command is unknown here too.
    let err = run(&argv(&["convert", "--in", out, "--frames", "8"])).unwrap_err();
    assert!(err.to_string().contains("convert: unknown option --frames"));
}
