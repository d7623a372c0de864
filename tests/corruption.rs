//! Failure-injection tests: every file format must reject corrupt or
//! truncated input with an error — never a panic — because trace files
//! outlive the runs that wrote them and travel between systems.

use proptest::prelude::*;

use ute::cluster::Simulator;
use ute::convert::{convert_job_pooled, ConvertOptions};
use ute::format::file::{FramePolicy, IntervalFileReader};
use ute::format::profile::Profile;
use ute::merge::{merge_files, MergeOptions};
use ute::rawtrace::file::RawTraceFile;
use ute::slog::builder::BuildOptions;
use ute::slog::file::SlogFile;
use ute::workloads::micro::ping_pong;

/// One small valid artifact set, built once.
fn artifacts() -> (Vec<u8>, Vec<u8>, Vec<u8>, Vec<u8>) {
    let w = ping_pong(4, 2048);
    let sim = Simulator::new(w.config, &w.job).unwrap().run().unwrap();
    let profile = Profile::standard();
    let raw = sim.raw_files[0].to_bytes().unwrap();
    let converted = convert_job_pooled(
        &sim.raw_files,
        &sim.threads,
        &profile,
        &ConvertOptions {
            policy: FramePolicy::tiny(),
            ..ConvertOptions::default()
        },
        1,
    )
    .unwrap();
    let ivl = converted[0].interval_file.clone();
    let refs: Vec<&[u8]> = converted
        .iter()
        .map(|c| c.interval_file.as_slice())
        .collect();
    let merged = merge_files(&refs, &profile, &MergeOptions::default())
        .unwrap()
        .merged;
    let (slog, _) = ute::merge::slogmerge(
        &refs,
        &profile,
        &MergeOptions::default(),
        BuildOptions::default(),
    )
    .unwrap();
    (raw, ivl, merged, slog.to_bytes())
}

/// Fully consuming a (possibly corrupt) interval file: open + iterate.
fn consume_interval(bytes: &[u8], profile: &Profile) {
    if let Ok(reader) = IntervalFileReader::open(bytes, profile) {
        // Any record or directory may be broken; errors are fine.
        for iv in reader.intervals() {
            if iv.is_err() {
                return;
            }
        }
        let _ = reader.total_records();
        let _ = reader.find_frame(12345);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn corrupted_files_error_but_never_panic(
        flips in prop::collection::vec((0usize..1_000_000, any::<u8>()), 1..12),
        truncate_frac in 0.0f64..1.0,
    ) {
        // Build once per case (cheap workload) to avoid cross-case state.
        let (raw, ivl, merged, slog) = artifacts();
        let profile = Profile::standard();
        for original in [&raw, &ivl, &merged, &slog] {
            let mut bytes = (*original).clone();
            for (pos, val) in &flips {
                let len = bytes.len();
                bytes[pos % len] = *val;
            }
            let cut = ((bytes.len() as f64) * truncate_frac) as usize;
            let truncated = &bytes[..cut];

            // Raw trace parser.
            let _ = RawTraceFile::from_bytes(&bytes);
            let _ = RawTraceFile::from_bytes(truncated);
            // Interval file reader.
            consume_interval(&bytes, &profile);
            consume_interval(truncated, &profile);
            // SLOG parser.
            let _ = SlogFile::from_bytes(&bytes);
            let _ = SlogFile::from_bytes(truncated);
            // Profile parser.
            let _ = Profile::from_bytes(&bytes);
        }
    }

    #[test]
    fn corrupted_profiles_never_panic(
        flips in prop::collection::vec((0usize..100_000, any::<u8>()), 1..8),
    ) {
        let mut bytes = Profile::standard().to_bytes();
        for (pos, val) in &flips {
            let len = bytes.len();
            bytes[pos % len] = *val;
        }
        // Either parses (the flip hit a don't-care byte) or errors.
        if let Ok(p) = Profile::from_bytes(&bytes) {
            // A profile that parsed must be usable without panicking.
            let _ = p.record_type_count();
            let _ = p.field_name_index("msgSizeSent");
        }
    }
}

#[test]
fn merging_mismatched_profiles_fails_cleanly() {
    let (_, ivl, _, _) = artifacts();
    let mut other = Profile::standard();
    other.version = 42;
    let refs: Vec<&[u8]> = vec![&ivl];
    let err = merge_files(&refs, &other, &MergeOptions::default()).unwrap_err();
    assert!(err.to_string().contains("version"), "{err}");
}

#[test]
fn stats_on_garbage_program_fails_cleanly() {
    for bad in [
        "",
        "tab le",
        "table name=",
        "table name=x y=(\"l\", dura, avg",
        "table name=x y=(\"l\", 1 ++ 2, sum)",
        "table name=x condition=((start) y=(\"l\", dura, sum)",
    ] {
        assert!(ute::stats::parse_program(bad).is_err(), "accepted: {bad:?}");
    }
}
