//! Torture acceptance: the 256+-node `torture:SEED` preset must mint the
//! hazard it exists for. Its lock-step symmetric phases produce long runs
//! of equal end timestamps across nodes — the ties the k-way merge has to
//! break by source index for its output to be the same at every `--jobs`.
//! The corpus itself reaches the shipped merge through
//! `tests/merge_path.rs`; this file pins that the preset still produces
//! those ties.

use ute::cluster::Simulator;
use ute::convert::ConvertOptions;
use ute::format::file::{FramePolicy, IntervalFileReader};
use ute::format::profile::Profile;
use ute::format::record::Interval;
use ute::merge::{adjust_node, MergeOptions};
use ute::scenario::{generate, ScenarioSpec};

const SEED: u64 = 11;

/// Per-node clock-adjusted streams of the torture corpus, each
/// end-ordered — what the k-way merge takes.
fn torture_streams() -> Vec<Vec<Interval>> {
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
        ute::convert::convert_job_opts(&result.raw_files, &result.threads, &profile, &copts, false)
            .unwrap();
    let mopts = MergeOptions::default();
    converted
        .iter()
        .map(|o| {
            let reader = IntervalFileReader::open(&o.interval_file, &profile).unwrap();
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
