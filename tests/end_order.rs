//! A per-node interval file is end-ordered and every clock fit is
//! monotone, so the merge takes each node's adjusted records in file
//! order. A damaged time field is what can still break that order: here
//! one record's start loses a high bit, so its end falls far behind the
//! ends before it. The merge must still write an end-ordered file — the
//! one a decoded reference (fit, map both ends, stable sort by end,
//! k-way merge) writes — at every job count, strict or salvaging.

use std::path::{Path, PathBuf};

use ute::cli::run;
use ute::clock::ratio::RatioEstimator;
use ute::core::time::LocalTime;
use ute::format::file::IntervalFileReader;
use ute::format::profile::Profile;
use ute::format::record::Interval;
use ute::format::state::StateCode;
use ute::merge::{
    absorb_file_header, fit_node_intervals, write_merged_stream, IvSource, LoserTreeMerge,
    MergeOptions, MergeStats,
};

fn argv(tokens: &[&str]) -> Vec<String> {
    tokens.iter().map(|s| s.to_string()).collect()
}

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ute_end_order_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn ivl(dir: &Path, node: usize) -> PathBuf {
    dir.join(format!("trace.{node}.ivl"))
}

/// Clears the highest set bit of the start of a record in the middle of
/// `trace.1.ivl`, found by its 8 little-endian bytes; returns how far
/// that record's end now falls behind the end before it.
fn move_a_record_back(dir: &Path, profile: &Profile) -> u64 {
    let path = ivl(dir, 1);
    let mut bytes = std::fs::read(&path).unwrap();
    let ivs: Vec<Interval> = IntervalFileReader::open(&bytes, profile)
        .unwrap()
        .intervals()
        .map(|iv| iv.unwrap())
        .collect();
    let places = |start: u64| -> Vec<usize> {
        let start = start.to_le_bytes();
        (0..bytes.len() - 8)
            .filter(|&i| bytes[i..i + 8] == start)
            .collect()
    };
    let (k, at) = (ivs.len() / 2..ivs.len())
        .filter(|&k| ivs[k].itype.state != StateCode::CLOCK && ivs[k].start >= 1 << 20)
        .map(|k| (k, places(ivs[k].start)))
        .find(|(_, at)| at.len() == 1)
        .unwrap();
    let bit = 63 - ivs[k].start.leading_zeros();
    bytes[at[0] + bit as usize / 8] &= !(1 << (bit % 8));
    std::fs::write(&path, &bytes).unwrap();

    let moved: Vec<Interval> = IntervalFileReader::open(&bytes, profile)
        .unwrap()
        .intervals()
        .map(|iv| iv.unwrap())
        .collect();
    assert_eq!(moved[k].start, ivs[k].start - (1 << bit));
    moved[k - 1].end() - moved[k].end()
}

/// The merge over decoded records, every step spelled out: the default
/// clock fit, both ends of each record mapped through it, each node's
/// records stably sorted by adjusted end, then the k-way merge.
fn reference(dir: &Path, nodes: usize, profile: &Profile) -> Vec<u8> {
    let opts = MergeOptions::default();
    let (mut threads, mut markers, mut sources) = (Default::default(), Vec::new(), Vec::new());
    for node in 0..nodes {
        let bytes = std::fs::read(ivl(dir, node)).unwrap();
        let reader = IntervalFileReader::open(&bytes, profile).unwrap();
        absorb_file_header(&reader, &mut threads, &mut markers).unwrap();
        let mut ivs: Vec<Interval> = reader.intervals().map(|iv| iv.unwrap()).collect();
        let nf = fit_node_intervals(
            reader.node,
            &ivs,
            profile,
            RatioEstimator::RmsSegments,
            true,
        )
        .unwrap();
        for iv in &mut ivs {
            let gend = nf.fit.adjust(LocalTime(iv.end())).ticks();
            let gstart = nf.fit.adjust(LocalTime(iv.start)).ticks();
            iv.start = gstart.min(gend);
            iv.duration = gend - iv.start;
        }
        ivs.sort_by_key(Interval::end);
        sources.push(IvSource::new(ivs));
    }
    markers.sort_by_key(|(id, _)| *id);
    let merged = LoserTreeMerge::new(sources);
    let mut stats = MergeStats::default();
    write_merged_stream(profile, &threads, &markers, &opts, merged, &mut stats).unwrap()
}

#[test]
fn a_record_moved_far_back_is_merged_in_end_order_at_every_job_count() {
    let dir = tmpdir("moved");
    let d = dir.to_str().unwrap();
    run(&argv(&["trace", "--workload", "stencil", "--out", d])).unwrap();
    run(&argv(&["convert", "--in", d])).unwrap();
    let profile = Profile::read_from(&dir.join("profile.ute")).unwrap();
    let behind = move_a_record_back(&dir, &profile);
    assert!(behind > 1024, "moved back only {behind} ticks");
    let expected = reference(&dir, 4, &profile);

    let out = dir.join("merged.ivl");
    let o = out.to_str().unwrap();
    for jobs in ["1", "2", "8"] {
        for strict in [&["--strict"][..], &[]] {
            let merge = [&["merge", "--in", d, "--out", o, "--jobs", jobs], strict].concat();
            let msg = run(&argv(&merge)).unwrap();
            assert!(!msg.contains("degraded"), "jobs {jobs} {strict:?}: {msg}");
            let merged = std::fs::read(&out).unwrap();
            assert!(
                merged == expected,
                "jobs {jobs} {strict:?}: not the reference"
            );
            let ends: Vec<u64> = IntervalFileReader::open(&merged, &profile)
                .unwrap()
                .intervals()
                .map(|iv| iv.unwrap().end())
                .collect();
            assert!(ends.is_sorted(), "jobs {jobs} {strict:?}: not end-ordered");
            std::fs::remove_file(&out).unwrap();
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
