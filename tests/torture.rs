//! Torture acceptance: the 256+-node `torture:SEED` preset must mint the
//! hazard it exists for. Its lock-step symmetric phases produce long runs
//! of equal end timestamps across nodes — the ties the k-way merge has to
//! break by source index for its output to be the same at every `--jobs`.
//! The corpus itself reaches the shipped merge through
//! `tests/merge_path.rs`; this file pins that the preset still produces
//! those ties, and that `--jobs 2` over its 256+ files means two workers.

use std::collections::HashSet;
use std::sync::{Mutex, OnceLock};

use ute::cluster::Simulator;
use ute::convert::ConvertOptions;
use ute::format::file::{FramePolicy, IntervalFileReader};
use ute::format::profile::Profile;
use ute::format::record::Interval;
use ute::merge::{adjust_node, merge_files_jobs, MergeOptions};
use ute::scenario::{generate, ScenarioSpec};

const SEED: u64 = 11;

/// Span capture is process-global and both tests open `merge node N`
/// spans; they take turns.
static CAPTURE_LOCK: Mutex<()> = Mutex::new(());

/// The torture corpus as `ute convert` leaves it: one interval file per
/// node.
fn torture_files() -> &'static Vec<Vec<u8>> {
    static FILES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    FILES.get_or_init(convert_torture)
}

fn convert_torture() -> Vec<Vec<u8>> {
    let spec = ScenarioSpec::torture(SEED);
    assert!(spec.topology.nodes >= 256);
    let sc = generate(&spec).unwrap();
    let nodes = sc.config.nodes;
    let result = Simulator::new(sc.config, &sc.job).unwrap().run().unwrap();
    assert_eq!(result.raw_files.len(), nodes as usize);
    let profile = Profile::standard();
    let copts = ConvertOptions {
        // Small frames so the corpus spans many frame directories.
        policy: FramePolicy {
            max_records_per_frame: 32,
            max_frames_per_dir: 2,
        },
        ..ConvertOptions::default()
    };
    let converted =
        ute::convert::convert_job_pooled(&result.raw_files, &result.threads, &profile, &copts, 1)
            .unwrap();
    converted.into_iter().map(|o| o.interval_file).collect()
}

/// Per-node clock-adjusted streams of the torture corpus, each
/// end-ordered — what the k-way merge takes.
fn torture_streams() -> Vec<Vec<Interval>> {
    let profile = Profile::standard();
    let mopts = MergeOptions::default();
    torture_files()
        .iter()
        .map(|file| {
            let reader = IntervalFileReader::open(file, &profile).unwrap();
            let mut ivs = Vec::new();
            adjust_node(&reader, &profile, &mopts, |iv| {
                ivs.push(iv);
                Ok(())
            })
            .unwrap();
            ivs
        })
        .collect()
}

/// The preset must actually produce the hazards it exists to test:
/// cross-stream equal-end tie groups, and plenty of them.
#[test]
fn torture_workload_mints_cross_stream_ties() {
    let _turn = CAPTURE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let streams = torture_streams();
    let total: usize = streams.iter().map(Vec::len).sum();
    assert!(total > 30_000, "only {total} adjusted records");
    let mut ends = std::collections::BTreeMap::new();
    for (src, s) in streams.iter().enumerate() {
        for iv in s {
            let entry = ends
                .entry(iv.end())
                .or_insert_with(std::collections::BTreeSet::new);
            entry.insert(src);
        }
    }
    // Clock adjustment maps each node's drifting local clock to global
    // time, so exact cross-node end collisions are rare but — thanks to
    // the lock-step phases — never absent. Within-stream ties (several
    // records ending on the same adjusted tick) are common; both kinds
    // must exist here for the merge tests over this preset to mean much.
    let cross_ties = ends.values().filter(|srcs| srcs.len() >= 2).count();
    assert!(
        cross_ties >= 25,
        "only {cross_ties} end values shared across streams — the preset \
         lost its lock-step symmetry"
    );
}

/// `--jobs 2` is two workers claiming files, however many files there
/// are — not a thread per node file with two allowed to run — and what
/// they produce is what one worker produces.
#[test]
fn two_jobs_over_the_torture_corpus_are_two_threads_and_the_same_bytes() {
    let _turn = CAPTURE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let profile = Profile::standard();
    let refs: Vec<&[u8]> = torture_files().iter().map(Vec::as_slice).collect();
    let mopts = MergeOptions::default();
    let one = merge_files_jobs(&refs, &profile, &mopts, 1).unwrap();

    ute::obs::set_capture(true);
    ute::obs::drain_spans();
    let two = merge_files_jobs(&refs, &profile, &mopts, 2).unwrap();
    ute::obs::set_capture(false);
    let spans = ute::obs::drain_spans();

    let node_spans: Vec<_> = spans
        .iter()
        .filter(|s| s.stage == "merge" && s.label.starts_with("merge node "))
        .collect();
    assert_eq!(node_spans.len(), refs.len(), "one stage span per node file");
    let tids: HashSet<u64> = node_spans.iter().map(|s| s.tid).collect();
    assert!(
        tids.len() <= 2,
        "{} node files were staged on {} threads at jobs 2",
        refs.len(),
        tids.len()
    );
    assert!(two.merged == one.merged, "jobs 2 bytes differ from jobs 1");
}
