//! The front door: `ute_cli::COMMANDS` is the one place that says which
//! commands exist and what each accepts. These tests hold the table to
//! the help text, the parser to the table, and the commands — driven
//! only through `run(&argv)`, the way a shell drives them — to what
//! they print and publish.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use ute::cli::{command, run, Args, RunPlan, COMMANDS, SHARED};

/// `report` resets the process-global metrics registry and `--self-trace`
/// turns the global span capture on: the tests that use either take this.
static OBS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn argv(tokens: &[&str]) -> Vec<String> {
    tokens.iter().map(|s| s.to_string()).collect()
}

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ute_cli_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Every file of `dir`, name and bytes, sorted.
fn files_of(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut v: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .map(|e| {
            (
                e.file_name().into_string().unwrap(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    v.sort();
    v
}

/// The `--name` tokens of a piece of help text.
fn option_names(text: &str) -> BTreeSet<&str> {
    let mut names = BTreeSet::new();
    for (at, _) in text.match_indices("--") {
        let before = text[..at].chars().next_back();
        if before.is_some_and(|c| c.is_alphanumeric() || c == '-') {
            continue;
        }
        let rest = &text[at + 2..];
        let len = rest
            .find(|c: char| !(c.is_ascii_lowercase() || c == '-'))
            .unwrap_or(rest.len());
        if len > 0 {
            names.insert(rest[..len].trim_end_matches('-'));
        }
    }
    names
}

/// A usage block's synopsis: its lines before the parenthesised note.
fn synopsis(usage: &str) -> String {
    usage
        .lines()
        .take_while(|l| !l.trim_start().starts_with('('))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The names of two space-separated lists of a row.
fn declared<'a>(keys: &'a str, switches: &'a str) -> BTreeSet<&'a str> {
    keys.split_whitespace()
        .chain(switches.split_whitespace())
        .collect()
}

#[test]
fn every_usage_block_names_exactly_the_options_of_its_row() {
    for c in COMMANDS {
        assert_eq!(
            option_names(&synopsis(c.usage)),
            declared(c.keys, c.switches),
            "`{}`: the synopsis in its usage block and its keys ∪ switches differ",
            c.name
        );
        assert_eq!(
            c.keys.split_whitespace().count() + c.switches.split_whitespace().count(),
            declared(c.keys, c.switches).len(),
            "`{}` declares a name twice",
            c.name
        );
        // The note under a synopsis may mention only options the reader
        // can find above it (`scenario` also points at --workload).
        let stray: Vec<_> = option_names(c.usage)
            .difference(&declared(c.keys, c.switches))
            .copied()
            .filter(|n| !(c.name == "scenario" && *n == "workload"))
            .collect();
        assert!(stray.is_empty(), "`{}` mentions {stray:?}", c.name);
        if !c.usage.is_empty() {
            assert!(
                c.usage.starts_with(&format!("  {:<9} ", c.name)),
                "{}",
                c.usage
            );
        }
        if let Some(key) = c.positional {
            assert!(
                declared(c.keys, "").contains(key),
                "`{}` positional --{key}",
                c.name
            );
        }
    }
    // The shared section defines one option per line that starts `  --`.
    let defined: BTreeSet<&str> = SHARED
        .usage
        .lines()
        .filter(|l| l.starts_with("  --"))
        .flat_map(|l| option_names(l.split_whitespace().next().unwrap()))
        .collect();
    assert_eq!(defined, declared(SHARED.keys, SHARED.switches));
    for c in COMMANDS {
        for name in declared(SHARED.keys, SHARED.switches) {
            assert!(
                !declared(c.keys, c.switches).contains(name),
                "`{}` redeclares the shared --{name}",
                c.name
            );
        }
    }
}

#[test]
fn help_is_the_recorded_text() {
    // Recorded from the binary of the commit before the table, then
    // edited by hand for the lines that were meant to change.
    let help = run(&argv(&["help"])).unwrap();
    assert_eq!(help, include_str!("snapshots/help.txt"));
    assert_eq!(run(&argv(&["--help"])).unwrap(), help);
    // No arguments and an unknown command both say what the commands are.
    assert!(run(&[]).unwrap_err().to_string().contains(help.trim()));
    let e = run(&argv(&["bogus"])).unwrap_err().to_string();
    assert!(e.contains("unknown command `bogus`") && e.contains(&help));
    // Every row is in it, in table order.
    let mut at = 0;
    for c in COMMANDS.iter().filter(|c| !c.usage.is_empty()) {
        at += help[at..]
            .find(c.usage)
            .unwrap_or_else(|| panic!("{}", c.name));
    }
}

#[test]
fn a_switch_is_accepted_only_by_the_commands_that_read_it() {
    let all: BTreeSet<&str> = COMMANDS
        .iter()
        .flat_map(|c| c.switches.split_whitespace())
        .collect();
    assert_eq!(all.len(), 11, "{all:?}");
    for c in COMMANDS {
        for sw in all
            .iter()
            .copied()
            .chain(SHARED.switches.split_whitespace())
        {
            let parsed = Args::parse(c, &argv(&[&format!("--{sw}")]));
            if declared(c.switches, SHARED.switches).contains(sw) {
                assert!(parsed.is_ok(), "{} --{sw}: {parsed:?}", c.name);
            } else {
                let e = parsed.unwrap_err().to_string();
                let want = format!("invalid request: {}: unknown option --{sw}", c.name);
                assert!(e.starts_with(&want), "{e}");
            }
        }
    }

    // The refusal comes before anything runs or is written.
    let dir = tmpdir("switches");
    let d = dir.to_str().unwrap();
    run(&argv(&["pipeline", "--workload", "pingpong", "--out", d])).unwrap();
    let before = files_of(&dir);
    let merged = format!("{d}/merged.ivl");
    for (tokens, want) in [
        (
            vec!["convert", "--in", d, "--no-filter"],
            "convert: unknown option --no-filter",
        ),
        (
            vec!["resume", d, "--strict"],
            "resume: unknown option --strict",
        ),
        (
            vec!["stats", "--merged", &merged, "--strict"],
            "stats: unknown option --strict",
        ),
        (
            vec!["merge", "--in", d, "--out", &merged, "--no-filte"],
            "merge: unknown option --no-filte (did you mean --no-filter?)",
        ),
    ] {
        let e = run(&argv(&tokens)).unwrap_err().to_string();
        assert!(e.contains(want), "{tokens:?}: {e}");
    }
    assert_eq!(files_of(&dir), before, "a refused command wrote something");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_leading_bare_token_is_the_positional_key_where_a_row_names_one() {
    let dir = tmpdir("positional");
    let d = dir.to_str().unwrap();
    run(&argv(&["pipeline", "--workload", "pingpong", "--out", d])).unwrap();
    for (bare, keyed) in [
        (
            vec!["analyze", d, "--json"],
            vec!["analyze", "--in", d, "--json"],
        ),
        (vec!["resume", d], vec!["resume", "--in", d]),
    ] {
        let a = run(&argv(&bare)).unwrap();
        assert_eq!(a, run(&argv(&keyed)).unwrap(), "{bare:?}");
        assert!(!a.is_empty());
    }
    for c in COMMANDS {
        let parsed = Args::parse(c, &argv(&[d]));
        match c.positional {
            Some(_) => assert!(parsed.is_ok(), "{}", c.name),
            None => assert_eq!(
                parsed.unwrap_err().to_string(),
                format!("invalid request: unexpected argument `{d}`"),
                "{}",
                c.name
            ),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_chaos_child_runs_the_run_its_parent_planned() {
    let plan_of = |tokens: &[String]| {
        let cmd = command(&tokens[0]).unwrap();
        RunPlan::from_args(&Args::parse(cmd, &tokens[1..]).unwrap()).unwrap()
    };
    for strict in [false, true] {
        for fault_plan in [None, Some("0:truncate@500,1:missing")] {
            for fault_seed in [None, Some("3")] {
                let mut tokens = vec!["pipeline", "--workload", "stencil", "--out", "d"];
                tokens.extend(["--iterations", "6", "--jobs", "3"]);
                if strict {
                    tokens.push("--strict");
                }
                for (key, value) in [("--fault-plan", fault_plan), ("--fault-seed", fault_seed)] {
                    if let Some(value) = value {
                        tokens.extend([key, value]);
                    }
                }
                let plan = plan_of(&argv(&tokens));
                let child = plan.pipeline_argv();
                assert_eq!(child[0], "pipeline");
                assert_eq!(plan_of(&child).config_pairs(), plan.config_pairs());
                assert_eq!(plan_of(&child).pipeline_argv(), child);
                let pairs = plan.config_pairs();
                let has = |k: &str, v: &str| pairs.iter().any(|(pk, pv)| pk == k && pv == v);
                assert!(has("strict", if strict { "1" } else { "0" }), "{pairs:?}");
                assert_eq!(fault_seed.is_some(), has("fault-seed", "3"), "{pairs:?}");
            }
        }
    }
}

#[test]
fn arguments_are_checked_before_anything_is_read() {
    // --jobs is validated before any filesystem access.
    let e = run(&argv(&["convert", "--in", "/nonexistent", "--jobs", "0"])).unwrap_err();
    assert_eq!(e.to_string(), "invalid request: --jobs: must be at least 1");
    let e = run(&argv(&["trace", "--workload", "bogus", "--out", "/tmp/x"])).unwrap_err();
    assert!(e.to_string().contains("unknown workload"), "{e}");
    // A valued key swallowed by the next switch, by another key, or by
    // the end of the line is an error naming the key.
    for (tokens, key) in [
        (vec!["merge", "--in", "--no-filter"], "in"),
        (vec!["pipeline", "--workload", "sppm", "--out"], "out"),
        (vec!["merge", "--in", "--out", "x"], "in"),
    ] {
        let e = run(&argv(&tokens)).unwrap_err();
        assert_eq!(
            e.to_string(),
            format!("invalid request: missing value for --{key}")
        );
    }
    // `ute view` refuses a number it cannot use, before opening the file:
    // no count that is not one, no seconds that are not finite and ≥ 0.
    let secs = "is not a finite, non-negative number of seconds";
    for (key, value, want) in [
        ("cpus", "abc", "--cpus: bad value `abc`".to_string()),
        ("width", "x", "--width: bad value `x`".to_string()),
        ("window", "nan,1", format!("--window start: `nan` {secs}")),
        ("window", "0,inf", format!("--window end: `inf` {secs}")),
        ("frame-at", "-3", format!("--frame-at: `-3` {secs}")),
    ] {
        let tokens = [
            "view",
            "--slog",
            "/nonexistent.slog",
            &format!("--{key}"),
            value,
        ];
        let e = run(&argv(&tokens)).unwrap_err();
        assert_eq!(e.to_string(), format!("invalid request: {want}"));
    }
    // So does `ute analyze`, before `merged.ivl` or `profile.ute` is
    // looked for.
    for (key, value, want) in [
        ("window", "nan:1", format!("--window start: `nan` {secs}")),
        ("window", "-3:inf", format!("--window start: `-3` {secs}")),
        ("window", "0:inf", format!("--window end: `inf` {secs}")),
        ("window", "1", "--window wants `T0:T1` seconds".to_string()),
        ("nodes", "x..1", "bad node range start".to_string()),
        (
            "diag",
            "bogus",
            "unknown diagnostic `bogus` (late_sender|imbalance|comm_pattern|critical_path)"
                .to_string(),
        ),
        (
            "imbalance-threshold",
            "inf",
            "--imbalance-threshold: `inf` is not a finite number".to_string(),
        ),
        (
            "imbalance-threshold",
            "NaN",
            "--imbalance-threshold: `NaN` is not a finite number".to_string(),
        ),
        (
            "imbalance-threshold",
            "abc",
            "--imbalance-threshold: bad value `abc`".to_string(),
        ),
    ] {
        let tokens = ["analyze", "/nonexistent", &format!("--{key}"), value];
        let e = run(&argv(&tokens)).unwrap_err();
        assert_eq!(e.to_string(), format!("invalid request: {want}"));
    }
}

#[test]
fn switches_and_values_interleave() {
    let _obs = OBS.lock().unwrap();
    let dir = tmpdir("interleave");
    let d = dir.to_str().unwrap();
    let at = |name: &str| dir.join(name).to_str().unwrap().to_string();
    run(&argv(&["pipeline", "--workload", "pingpong", "--out", d])).unwrap();
    let msg = run(&argv(&[
        "slogmerge",
        "--metrics",
        "--in",
        d,
        "--no-arrows",
        "--out",
        &at("noarrows.slog"),
        "--self-trace",
        &at("self.ivl"),
    ]))
    .unwrap();
    assert!(msg.contains("wrote self-trace"), "{msg}");
    assert!(dir.join("self.ivl").exists());
    assert!(
        std::fs::read(dir.join("noarrows.slog")).unwrap()
            != std::fs::read(dir.join("run.slog")).unwrap(),
        "--no-arrows was not read"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_standalone_chain_and_the_readers_work_from_a_shell() {
    let dir = tmpdir("chain");
    let d = dir.to_str().unwrap();
    let at = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let msg = run(&argv(&["pipeline", "--workload", "stencil", "--out", d])).unwrap();
    for part in [
        "traced stencil",
        "merged 4 files",
        "slogmerge:",
        "mpi_by_routine",
    ] {
        assert!(msg.contains(part), "no `{part}` in:\n{msg}");
    }
    for f in [
        "trace.0.raw",
        "trace.0.ivl",
        "merged.ivl",
        "run.slog",
        "profile.ute",
        "threads.utt",
    ] {
        assert!(dir.join(f).exists(), "missing {f}");
    }

    // Views render from the produced SLOG, whole and at one frame.
    let v = run(&argv(&[
        "view",
        "--slog",
        &at("run.slog"),
        "--kind",
        "thread",
        "--hide-running",
    ]))
    .unwrap();
    assert!(v.contains("legend:"), "{v}");
    let v = run(&argv(&[
        "view",
        "--slog",
        &at("run.slog"),
        "--frame-at",
        "0.01",
        "--kind",
        "thread",
        "--connected",
        "--hide-running",
    ]))
    .unwrap();
    assert!(v.contains("legend:"), "{v}");
    let p = run(&argv(&["preview", "--slog", &at("run.slog")])).unwrap();
    assert!(p.contains("interesting ranges:"), "{p}");
    let c = run(&argv(&["clockfit", "--in", d])).unwrap();
    assert!(c.contains("node 0"), "{c}");

    // Stats: a custom program, and an output directory of TSVs.
    std::fs::write(
        dir.join("prog.uts"),
        "table name=by_node x=(\"node\", node) y=(\"time\", dura, sum)",
    )
    .unwrap();
    let merged = at("merged.ivl");
    let msg = run(&argv(&[
        "stats",
        "--merged",
        &merged,
        "--program",
        &at("prog.uts"),
    ]))
    .unwrap();
    assert!(msg.contains("=== by_node ==="), "{msg}");
    assert!(msg.lines().any(|l| l.starts_with("node\ttime")), "{msg}");
    let msg = run(&argv(&[
        "stats",
        "--merged",
        &merged,
        "--out",
        &at("tables"),
    ]))
    .unwrap();
    assert!(msg.contains("wrote"), "{msg}");
    assert!(dir.join("tables/mpi_by_routine.tsv").exists());
    assert!(dir.join("tables/interesting_by_node_bin.svg").exists());

    // The piecewise estimator is reachable through merge.
    let m = run(&argv(&[
        "merge",
        "--in",
        d,
        "--out",
        &at("merged_pw.ivl"),
        "--estimator",
        "piecewise",
    ]))
    .unwrap();
    assert!(m.contains("merged"), "{m}");

    // stencil carries one clock record per node, so every fit above is
    // the identity fallback; a `scaling` trace of 2048 iterations carries
    // twelve, and the piecewise fit must find each node's drift.
    let sc = at("scaling");
    let trace = ["trace", "--workload", "scaling", "--iterations", "2048"];
    run(&argv(&[&trace[..], &["--out", &sc]].concat())).unwrap();
    run(&argv(&["convert", "--in", &sc])).unwrap();
    let fit = ["clockfit", "--estimator", "piecewise", "--in"];
    let c = run(&argv(&[&fit[..], &[&sc]].concat())).unwrap();
    assert_eq!(c.lines().count(), 4, "{c}");
    for line in c.lines() {
        let ratio = line
            .split("ratio ")
            .nth(1)
            .and_then(|r| r.split(' ').next());
        let ratio: f64 = ratio.and_then(|r| r.parse().ok()).expect(line);
        assert!(ratio.is_finite() && ratio != 1.0, "{line}");
        assert!(line.ends_with(", 12 samples"), "{line}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

const ESTIMATORS: [&str; 4] = ["rms", "rmsall", "last", "piecewise"];

/// A traced and converted `scaling` run: nine clock records per node, so
/// every estimator has segments to fit and the filter a median to hold.
fn clocked(name: &str) -> PathBuf {
    let dir = tmpdir(name);
    let d = dir.to_str().unwrap();
    let trace = ["trace", "--workload", "scaling", "--iterations", "1500"];
    run(&argv(&[&trace[..], &["--out", d]].concat())).unwrap();
    run(&argv(&["convert", "--in", d])).unwrap();
    dir
}

/// Rewrites `trace.1.ivl` in `dir` with the global time of its fifth
/// clock record 500 ticks below the fourth's.
fn lower_a_global_time(dir: &Path) {
    use ute::format::file::{FramePolicy, IntervalFileReader, IntervalFileWriter};
    use ute::format::profile::{Profile, MASK_PER_NODE};
    use ute::format::state::StateCode;
    use ute::format::value::Value;
    let profile = Profile::read_from(&dir.join("profile.ute")).unwrap();
    let g = profile.field_name_index("globalTime").unwrap();
    let path = dir.join("trace.1.ivl");
    let bytes = std::fs::read(&path).unwrap();
    let r = IntervalFileReader::open(&bytes, &profile).unwrap();
    let policy = FramePolicy::default();
    let mut w = IntervalFileWriter::new(&profile, MASK_PER_NODE, 1, &r.threads, &r.markers, policy);
    let mut clocks = Vec::new();
    for iv in r.intervals() {
        let mut iv = iv.unwrap();
        if iv.itype.state == StateCode::CLOCK {
            let (_, v) = iv.extras.iter_mut().find(|(i, _)| *i == g).unwrap();
            clocks.push(v.as_uint().unwrap());
            if clocks.len() == 5 {
                *v = Value::Uint(clocks[3] - 500);
            }
        }
        w.push(&iv).unwrap();
    }
    assert!(clocks.len() >= 8, "{} clock records", clocks.len());
    std::fs::write(&path, w.finish()).unwrap();
}

#[test]
fn every_estimator_reports_a_ratio_and_refuses_a_falling_global_time() {
    let dir = clocked("estimators");
    let d = dir.to_str().unwrap();
    let out = dir.join("m.ivl");
    let o = out.to_str().unwrap();
    for est in ESTIMATORS {
        let c = run(&argv(&["clockfit", "--in", d, "--estimator", est])).unwrap();
        let m = run(&argv(&["merge", "--in", d, "--out", o, "--estimator", est])).unwrap();
        for text in [&c, &m] {
            assert!(text.contains("node 3: ratio 1.0000"), "{est}: {text}");
            assert!(!text.contains("NaN"), "{est}: {text}");
        }
    }

    // One falling pair: the filter drops the sample as it drops a
    // deschedule; unfiltered, no fit through it is made — salvage drops
    // the node, strict names its file — and nothing panics.
    lower_a_global_time(&dir);
    let file = dir.join("trace.1.ivl");
    let named = format!("{}: corrupt node 1 clock records", file.display());
    for est in ESTIMATORS {
        for filter in [&[][..], &["--no-filter"][..]] {
            let what = format!("{est} {filter:?}");
            let with = |cmd: &[&str]| argv(&[cmd, &["--estimator", est], filter].concat());
            let c = run(&with(&["clockfit", "--in", d])).unwrap();
            let m = run(&with(&["merge", "--in", d, "--out", o])).unwrap();
            let strict = run(&with(&["merge", "--in", d, "--out", o, "--strict"]));
            if filter.is_empty() {
                assert!(c.contains("node 1: ratio"), "{what}: {c}");
                assert!(!m.contains("degraded"), "{what}: {m}");
                strict.unwrap();
            } else {
                let line = format!("{}: unfittable (corrupt node 1 clock", file.display());
                assert!(c.contains(&line), "{what}: {c}");
                assert!(m.contains("1 dropped in merge"), "{what}: {m}");
                assert!(!m.contains("node 1: ratio"), "{what}: {m}");
                let e = strict.unwrap_err().to_string();
                assert!(e.starts_with(&named), "{what}: {e}");
                let e = run(&with(&["clockfit", "--in", d, "--strict"])).unwrap_err();
                assert!(e.to_string().starts_with(&named), "{what}: {e}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

const PLAN: &str = "0:truncate@800,1:bitflip@200.3,2:missing";

fn faulted(cmd: &str, out: &Path, more: &[&str]) -> ute::core::error::Result<String> {
    let mut tokens = vec![cmd, "--workload", "stencil", "--out", out.to_str().unwrap()];
    tokens.extend(["--iterations", "6", "--fault-plan", PLAN]);
    tokens.extend(more);
    run(&argv(&tokens))
}

#[test]
fn a_faulted_pipeline_salvages_and_stays_deterministic() {
    // One truncated, one bit-flipped, one missing node: the pipeline
    // completes, the missing node's files do not exist, and the
    // artifacts are byte-identical at every job count.
    let (d1, d8, ds) = (tmpdir("plan1"), tmpdir("plan8"), tmpdir("planstrict"));
    let msg = faulted("pipeline", &d1, &["--jobs", "1"]).unwrap();
    assert!(msg.contains("injected faults"), "{msg}");
    assert!(!d1.join("trace.2.raw").exists());
    assert!(!d1.join("trace.2.ivl").exists());
    faulted("pipeline", &d8, &["--jobs", "8"]).unwrap();
    for f in ["merged.ivl", "run.slog"] {
        assert_eq!(
            std::fs::read(d1.join(f)).unwrap(),
            std::fs::read(d8.join(f)).unwrap(),
            "{f} differs between --jobs 1 and 8 under faults"
        );
    }
    // The same corpus is a hard error under --strict.
    let e = faulted("pipeline", &ds, &["--strict"]).unwrap_err();
    assert!(!e.to_string().is_empty());
    for d in [d1, d8, ds] {
        std::fs::remove_dir_all(&d).ok();
    }
}

#[test]
fn report_counts_degraded_nodes() {
    let _obs = OBS.lock().unwrap();
    let dir = tmpdir("report");
    let json = faulted("report", &dir, &["--stable"]).unwrap();
    // Node 2 is missing; nodes 0 and 1 salvage without degrading. (Other
    // tests share the global registry, so exclude only the zero case.)
    assert!(json.contains("\"salvage/nodes_degraded\""), "{json}");
    assert!(!json.contains("\"salvage/nodes_degraded\": 0"), "{json}");
    std::fs::remove_dir_all(&dir).ok();
}

fn traced_stencil(name: &str) -> PathBuf {
    let dir = tmpdir(name);
    let d = dir.to_str().unwrap();
    run(&argv(&[
        "trace",
        "--workload",
        "stencil",
        "--out",
        d,
        "--iterations",
        "6",
    ]))
    .unwrap();
    dir
}

#[test]
fn corrupt_respects_metadata_and_gates_strict() {
    let dir = traced_stencil("corrupt");
    let d = dir.to_str().unwrap();
    let metadata =
        |dir: &Path| ["profile.ute", "threads.utt"].map(|f| std::fs::read(dir.join(f)).unwrap());
    let before = metadata(&dir);
    let msg = run(&argv(&["corrupt", "--in", d, "--plan", "0:truncate@123"])).unwrap();
    assert!(msg.contains("mutated"), "{msg}");
    assert_eq!(before, metadata(&dir));
    // Strict convert refuses the truncated file; salvage proceeds.
    assert!(run(&argv(&["convert", "--in", d, "--strict"])).is_err());
    let msg = run(&argv(&["convert", "--in", d])).unwrap();
    assert!(msg.contains("node 0"), "{msg}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn seeded_corruption_is_reproducible() {
    // Same workload + same seed ⇒ identical damaged bytes — the
    // property CI's fault matrix relies on.
    let (da, db) = (traced_stencil("seed_a"), traced_stencil("seed_b"));
    for d in [&da, &db] {
        run(&argv(&[
            "corrupt",
            "--in",
            d.to_str().unwrap(),
            "--seed",
            "42",
        ]))
        .unwrap();
    }
    let a = files_of(&da);
    assert!(!a.is_empty());
    assert!(a == files_of(&db), "identically seeded runs differ");
    std::fs::remove_dir_all(&da).ok();
    std::fs::remove_dir_all(&db).ok();
}

#[test]
fn preview_reports_empty_traces_cleanly() {
    use ute::format::file::{FramePolicy, IntervalFileWriter};
    use ute::format::profile::{Profile, MASK_PER_NODE};
    use ute::format::thread_table::ThreadTable;

    let dir = tmpdir("preview");
    // Zero-length file: a trace that never got written.
    let empty = dir.join("empty.ivl");
    std::fs::write(&empty, b"").unwrap();
    let msg = run(&argv(&["preview", "--ivl", empty.to_str().unwrap()])).unwrap();
    assert!(msg.contains("empty trace"), "{msg}");
    assert!(msg.contains("has no data"), "{msg}");

    // Header-only file: structurally valid, zero intervals.
    let profile = Profile::standard();
    let w = IntervalFileWriter::new(
        &profile,
        MASK_PER_NODE,
        0,
        &ThreadTable::new(),
        &[],
        FramePolicy::default(),
    );
    let headonly = dir.join("headonly.ivl");
    std::fs::write(&headonly, w.finish()).unwrap();
    let msg = run(&argv(&["preview", "--ivl", headonly.to_str().unwrap()])).unwrap();
    assert!(msg.contains("contains no intervals"), "{msg}");
    std::fs::remove_dir_all(&dir).ok();
}
