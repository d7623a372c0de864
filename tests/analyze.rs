//! Acceptance tests for the `ute-analyze` diagnostics layer: ground-truth
//! straggler identification through the whole pipeline, the
//! windowed-loading ≡ full-load-then-filter equivalence that makes
//! frame-directory skipping safe, and the load's behaviour on damaged
//! files — the one interval-file reader's, typed and naming the file.

mod common;

use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::OnceLock;
use std::time::Duration;

use proptest::prelude::*;
use ute::analyze::{load_table, run_all, DiagOptions, LoadOptions, TraceTable};
use ute::cli::run;
use ute::core::error::UteError;
use ute::format::file::{FramePolicy, IntervalFileReader, IntervalFileWriter};
use ute::format::frame::FrameDirectory;
use ute::format::profile::Profile;

use common::{random_file, Rng};

fn argv(tokens: &[&str]) -> Vec<String> {
    tokens.iter().map(|s| s.to_string()).collect()
}

/// Pipeline artifacts for the straggler workload (rank 2 slowed 4×),
/// built once and shared by every test in this binary.
fn straggler_dir() -> &'static PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let d = std::env::temp_dir().join(format!("ute_analyze_accept_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        run(&argv(&[
            "pipeline",
            "--workload",
            "straggler",
            "--out",
            d.to_str().unwrap(),
        ]))
        .unwrap();
        d
    })
}

/// The merged trace loaded in full, plus its profile — cached so the
/// proptest below doesn't re-decode the whole file per case.
fn full_table() -> &'static (Profile, TraceTable) {
    static T: OnceLock<(Profile, TraceTable)> = OnceLock::new();
    T.get_or_init(|| {
        let dir = straggler_dir();
        let profile = Profile::read_from(&dir.join("profile.ute")).unwrap();
        let table = load_table(&dir.join("merged.ivl"), &profile, &LoadOptions::default()).unwrap();
        (profile, table)
    })
}

/// The injected straggler is rank 2 on node 2 (one task per node): the
/// late-sender diagnostic must charge the receiver wait to it, and the
/// imbalance diagnostic must flag its node in the `Gather` phase.
#[test]
fn ground_truth_straggler_is_named_by_both_diagnostics() {
    let (_, table) = full_table();
    assert!(!table.is_empty(), "pipeline produced an empty merged trace");
    let findings = run_all(table, &DiagOptions::default());

    let late: Vec<_> = findings
        .iter()
        .filter(|f| f.diagnostic == "late_sender")
        .collect();
    assert!(!late.is_empty(), "no late-sender findings: {findings:?}");
    // Findings are sorted by total wait, descending: the straggler must
    // top the list — nobody else stalls the root for long.
    assert_eq!(late[0].rank, Some(2), "{late:?}");
    assert_eq!(late[0].node, Some(2), "{late:?}");

    let imb: Vec<_> = findings
        .iter()
        .filter(|f| f.diagnostic == "imbalance")
        .collect();
    assert!(!imb.is_empty(), "no imbalance findings: {findings:?}");
    assert_eq!(imb[0].node, Some(2), "{imb:?}");
    assert_eq!(imb[0].phase.as_deref(), Some("Gather"), "{imb:?}");
    assert!(imb[0].value > 1.5, "straggler barely stands out: {imb:?}");
}

/// End-to-end through the CLI: `ute analyze <dir> --all --json` names the
/// straggler and classifies the gather as a hub pattern around rank 0.
#[test]
fn analyze_cli_reports_the_straggler_in_json() {
    let dir = straggler_dir();
    let out = run(&argv(&[
        "analyze",
        dir.to_str().unwrap(),
        "--all",
        "--json",
    ]))
    .unwrap();
    assert!(out.contains("\"diagnostic\": \"late_sender\""), "{out}");
    assert!(out.contains("\"rank\": 2"), "{out}");
    assert!(out.contains("\"phase\": \"Gather\""), "{out}");
    assert!(out.contains("\"diagnostic\": \"comm_pattern\""), "{out}");
    assert!(out.contains("\"hub\""), "{out}");
    assert!(out.contains("\"diagnostic\": \"critical_path\""), "{out}");
}

/// `--window` and `--nodes` restrict what gets loaded (and therefore
/// analyzed) without erroring out on a partial view.
#[test]
fn analyze_cli_window_and_nodes_restrict_rows() {
    let dir = straggler_dir();
    let dir = dir.to_str().unwrap();
    let rows = |out: &str| -> usize {
        let tail = out.split("\"rows\": ").nth(1).expect("rows key");
        tail.split(',').next().unwrap().trim().parse().unwrap()
    };
    let all = run(&argv(&["analyze", dir, "--json"])).unwrap();
    let sub = run(&argv(&[
        "analyze",
        dir,
        "--json",
        "--window",
        "0.000:0.005",
        "--nodes",
        "0..1",
    ]))
    .unwrap();
    assert!(rows(&sub) > 0, "{sub}");
    assert!(rows(&sub) < rows(&all), "window/nodes removed nothing");
}

#[test]
fn analyze_cli_rejects_bad_arguments() {
    let dir = straggler_dir();
    let dir = dir.to_str().unwrap();
    assert!(run(&argv(&["analyze", dir, "--diag", "bogus"])).is_err());
    assert!(run(&argv(&["analyze", dir, "--window", "nope"])).is_err());
    assert!(run(&argv(&["analyze", dir, "--nodes", "zero"])).is_err());
}

/// A scratch file of this test binary, removed on drop.
struct TmpFile(PathBuf);

impl TmpFile {
    fn new(name: &str, bytes: &[u8]) -> TmpFile {
        let path =
            std::env::temp_dir().join(format!("ute_analyze_{name}_{}.ivl", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        TmpFile(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TmpFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// The straggler run's merged file and its profile.
fn merged_bytes() -> (Vec<u8>, Profile) {
    let dir = straggler_dir();
    (
        std::fs::read(dir.join("merged.ivl")).unwrap(),
        Profile::read_from(&dir.join("profile.ute")).unwrap(),
    )
}

/// The whole file loaded, as its row count (a table is a long thing
/// to print when an assertion on the error fails).
fn load_rows(path: &Path, profile: &Profile) -> ute::core::error::Result<usize> {
    load_table(path, profile, &LoadOptions::default()).map(|t| t.len())
}

/// Points the `next` link of the directory at `dir_at` to `target`.
fn patch_next(bytes: &mut [u8], dir_at: u64, target: u64) {
    let at = (dir_at + FrameDirectory::NEXT_FIELD_OFFSET) as usize;
    bytes[at..at + 8].copy_from_slice(&target.to_le_bytes());
}

/// `f` on its own thread: a load that never returns fails the test
/// here instead of hanging the suite.
fn within_ten_seconds<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(f()).ok());
    rx.recv_timeout(Duration::from_secs(10))
        .expect("the load did not return within 10 s")
}

/// A directory chain that loops — one directory linked to itself, or
/// the second of two linked back to the first — is the reader's typed
/// error from the library and from the command, not an endless walk.
#[test]
fn a_looping_directory_chain_is_an_error_not_a_hang() {
    let (merged, profile) = merged_bytes();
    let r = IntervalFileReader::open(&merged, &profile).unwrap();
    let first = r.first_dir;
    let mut self_loop = merged.clone();
    patch_next(&mut self_loop, first, first);

    // The first records of the same run under the tiny policy: two
    // frames to a directory, so the chain has many links to bend.
    let mut w = IntervalFileWriter::new(
        &profile,
        r.mask,
        r.node,
        &r.threads,
        &r.markers,
        FramePolicy::tiny(),
    );
    for iv in r.intervals().take(64) {
        w.push(&iv.unwrap()).unwrap();
    }
    let mut two_cycle = w.finish();
    let r = IntervalFileReader::open(&two_cycle, &profile).unwrap();
    let (tiny_first, second) = (r.first_dir, r.read_frame_dir(r.first_dir).unwrap().next);
    patch_next(&mut two_cycle, second, tiny_first);

    let profile_path = straggler_dir().join("profile.ute");
    for (name, bytes, at) in [
        ("self_loop", self_loop, first),
        ("two_cycle", two_cycle, tiny_first),
    ] {
        let file = TmpFile::new(name, &bytes);
        let expect = format!(
            "{}: corrupt frame directory chain does not advance at byte {at}",
            file.path().display()
        );
        let (path, p) = (file.path().to_path_buf(), profile.clone());
        let loaded = within_ten_seconds(move || load_rows(&path, &p));
        assert_eq!(loaded.unwrap_err().to_string(), expect);
        let args = argv(&[
            "analyze",
            "--in",
            file.path().to_str().unwrap(),
            "--profile",
            profile_path.to_str().unwrap(),
            "--all",
        ]);
        let ran = within_ten_seconds(move || run(&args));
        assert_eq!(ran.unwrap_err().to_string(), expect);
    }
}

/// A file written under another profile version is refused by the load
/// as every other reader refuses it, in the words `ute stats` prints.
#[test]
fn a_profile_version_mismatch_is_refused_as_stats_refuses_it() {
    let (mut bytes, profile) = merged_bytes();
    // The profile version is the word after the 8-byte magic.
    bytes[8] = bytes[8].wrapping_add(1);
    let file = TmpFile::new("version", &bytes);
    let err = load_rows(file.path(), &profile).unwrap_err();
    assert!(
        matches!(
            &err,
            UteError::File { source, .. } if matches!(**source, UteError::VersionMismatch { .. })
        ),
        "{err:?}"
    );
    let stats = run(&argv(&[
        "stats",
        "--merged",
        file.path().to_str().unwrap(),
        "--profile",
        straggler_dir().join("profile.ute").to_str().unwrap(),
    ]))
    .unwrap_err();
    assert_eq!(err.to_string(), stats.to_string());
}

/// A file cut anywhere, or not there at all, is an error that names
/// the path — never a panic.
#[test]
fn truncated_and_missing_files_fail_naming_the_path() {
    let (bytes, profile) = merged_bytes();
    for k in 0..16 {
        let file = TmpFile::new("cut", &bytes[..bytes.len() * k / 16]);
        let err = load_rows(file.path(), &profile).unwrap_err();
        let prefix = format!("{}: ", file.path().display());
        assert!(err.to_string().starts_with(&prefix), "cut {k}/16: {err}");
    }
    let missing = Path::new("/nonexistent/ute/merged.ivl");
    let err = load_rows(missing, &profile).unwrap_err();
    assert!(
        err.to_string().starts_with("/nonexistent/ute/merged.ivl: "),
        "{err}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The load accepts exactly the files the walk `ute check` and the
    /// fuzzer's interval target make accepts: open, every directory,
    /// every frame decoded.
    #[test]
    fn load_accepts_exactly_what_the_checked_walk_accepts(
        seed in any::<u64>(),
        merged in any::<bool>(),
        n in 1usize..120,
    ) {
        let p = Profile::standard();
        let mut rng = Rng(seed | 1);
        let mut bytes = random_file(&mut rng, &p, merged, n);
        let at = rng.below(bytes.len() as u64) as usize;
        bytes[at] ^= 1 << rng.below(8);
        let walked = (|| {
            let r = IntervalFileReader::open(&bytes, &p)?;
            for dir in r.directories() {
                for entry in &dir?.entries {
                    r.frame_intervals(entry)?;
                }
            }
            Ok::<(), UteError>(())
        })();
        let file = TmpFile::new(&format!("mutant_{seed:x}"), &bytes);
        let (path, profile) = (file.path().to_path_buf(), p.clone());
        let loaded = within_ten_seconds(move || load_rows(&path, &profile));
        prop_assert_eq!(
            loaded.is_ok(),
            walked.is_ok(),
            "byte {} of {}: load {:?}, walk {:?}",
            at,
            bytes.len(),
            loaded,
            walked
        );
    }

    /// Loading through the frame directory with a window / node range is
    /// exactly the full load followed by the record-level filter — i.e.
    /// frame skipping never drops an admissible record and never admits
    /// an extra one.
    #[test]
    fn windowed_load_equals_full_load_then_filter(
        a in 0.0f64..1.05,
        b in 0.0f64..1.05,
        lo in 0u16..4,
        hi in 0u16..4,
    ) {
        let (profile, full) = full_table();
        let (s0, s1) = full.span().expect("non-empty trace");
        let span = (s1 - s0) as f64;
        let t0 = s0 + (span * a.min(b)) as u64;
        let t1 = s0 + (span * a.max(b)) as u64;
        let (na, nb) = (lo.min(hi), lo.max(hi));
        let opts = LoadOptions { window: Some((t0, t1)), nodes: Some((na, nb)) };

        let windowed = load_table(
            &straggler_dir().join("merged.ivl"),
            profile,
            &opts,
        ).unwrap();

        let keep: Vec<usize> = (0..full.len())
            .filter(|&i| {
                full.end(i) >= t0
                    && full.start[i] <= t1
                    && full.node[i] >= na
                    && full.node[i] <= nb
            })
            .collect();

        prop_assert_eq!(windowed.len(), keep.len());
        for (w, &i) in keep.iter().enumerate() {
            prop_assert_eq!(windowed.state[w], full.state[i]);
            prop_assert_eq!(windowed.bebits[w], full.bebits[i]);
            prop_assert_eq!(windowed.start[w], full.start[i]);
            prop_assert_eq!(windowed.duration[w], full.duration[i]);
            prop_assert_eq!(windowed.cpu[w], full.cpu[i]);
            prop_assert_eq!(windowed.node[w], full.node[i]);
            prop_assert_eq!(windowed.thread[w], full.thread[i]);
            prop_assert_eq!(windowed.rank[w], full.rank[i]);
            prop_assert_eq!(windowed.peer[w], full.peer[i]);
            prop_assert_eq!(windowed.seq[w], full.seq[i]);
            prop_assert_eq!(windowed.bytes[w], full.bytes[i]);
            prop_assert_eq!(windowed.marker_id[w], full.marker_id[i]);
        }
    }
}
