//! Fault-injection properties: deterministic fault plans applied to real
//! simulated traces, with salvage-mode ingestion asserted to survive —
//! and to lose *only* what the fault destroyed.
//!
//! The checksum-free raw format means an overrun splice can fabricate at
//! most one plausible-looking record per damaged region (two record
//! fragments joined at a field boundary can decode as one "Frankenstein"
//! record). So the subset property below is asserted for *loss-only*
//! faults (truncate / missing), while arbitrary seeded plans — bit
//! flips, overrun splices and all — get the weaker but universal
//! guarantee: salvage ingestion never panics and never wedges.

mod common;

use proptest::prelude::*;

use common::convert_then_merge;
use ute::cluster::Simulator;
use ute::convert::{convert_job_pooled, ConvertOptions};
use ute::faults::FaultPlan;
use ute::format::file::IntervalFileReader;
use ute::format::profile::Profile;
use ute::format::record::Interval;
use ute::format::state::StateCode;
use ute::merge::{merge_files_jobs, MergeOptions};
use ute::rawtrace::file::{RawTraceFile, HEADER_LEN};
use ute::workloads::micro;

/// One fault-free simulated job, built fresh per use (cheap workload).
fn baseline() -> (Profile, ute::cluster::SimResult) {
    let w = micro::stencil(4, 6, 4 << 10);
    let result = Simulator::new(w.config, &w.job).unwrap().run().unwrap();
    (Profile::standard(), result)
}

fn salvage_copts() -> ConvertOptions {
    ConvertOptions {
        lenient: true,
        salvage: true,
        ..ConvertOptions::default()
    }
}

fn salvage_mopts(gap_nodes: Vec<u16>) -> MergeOptions {
    MergeOptions {
        salvage: true,
        gap_nodes,
        ..MergeOptions::default()
    }
}

/// Applies a byte-level plan to serialized raw traces and salvage-decodes
/// the survivors. Returns the decoded files plus the nodes lost outright
/// (missing, or too damaged for even the salvage reader to open).
fn damage_and_salvage(raws: &[RawTraceFile], plan: &FaultPlan) -> (Vec<RawTraceFile>, Vec<u16>) {
    let mut files = Vec::new();
    let mut lost = Vec::new();
    for f in raws {
        let node = f.node.raw();
        let bytes = f.to_bytes().unwrap();
        match plan.apply_to_file(node, bytes, HEADER_LEN) {
            None => lost.push(node),
            Some(damaged) => match RawTraceFile::from_bytes_salvage(&damaged) {
                Ok((back, _report)) => files.push(back),
                Err(_) => lost.push(node),
            },
        }
    }
    (files, lost)
}

/// Decodes every interval in a serialized interval file.
fn decode_intervals(bytes: &[u8], profile: &Profile) -> Vec<Interval> {
    let reader = IntervalFileReader::open(bytes, profile).unwrap();
    reader.intervals().map(|iv| iv.unwrap()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any seeded byte-level plan — including bit flips and overrun
    /// splices — must leave salvage convert + merge able to finish
    /// without panicking, at every job count, with identical bytes.
    #[test]
    fn seeded_fault_plans_never_panic(seed in any::<u64>()) {
        let (profile, result) = baseline();
        let plan = FaultPlan::byte_level_from_seed(seed, 4);
        let (files, lost) = damage_and_salvage(&result.raw_files, &plan);
        prop_assert!(!files.is_empty(), "seeded plans leave a survivor");

        let copts = salvage_copts();
        let mopts = salvage_mopts(lost.clone());
        let serial = convert_then_merge(&files, &result.threads, &profile, &copts, &mopts, 1);
        let parallel = convert_then_merge(&files, &result.threads, &profile, &copts, &mopts, 8);
        match (serial, parallel) {
            (Ok((_, a)), Ok((_, b))) => {
                prop_assert_eq!(a.merged, b.merged,
                    "jobs 1 vs 8 diverged under plan `{}`", plan);
            }
            // Salvage may still refuse pathological inputs (e.g. a bit
            // flip forging the header), but it must do so identically.
            (a, b) => prop_assert_eq!(a.is_err(), b.is_err()),
        }
    }

    /// Loss-only faults (truncation, missing node): everything the
    /// salvage path emits was present in the fault-free run, except the
    /// synthetic close of a state left dangling by the cut — and those
    /// are exactly counted by the converter.
    #[test]
    fn loss_only_faults_lose_only(keep in 0u64..20_000, victim in 0u16..4, missing in 0u16..4) {
        let (profile, result) = baseline();
        let spec = if victim == missing {
            format!("{victim}:truncate@{keep}")
        } else {
            format!("{victim}:truncate@{keep},{missing}:missing")
        };
        let plan = FaultPlan::parse(&spec).unwrap();
        let (files, lost) = damage_and_salvage(&result.raw_files, &plan);

        // Raw level: a truncated file decodes to a prefix of the
        // original event sequence — salvage invents nothing.
        for f in &files {
            let original = result.raw_files.iter().find(|o| o.node == f.node).unwrap();
            prop_assert!(f.events.len() <= original.events.len());
            prop_assert_eq!(&f.events[..], &original.events[..f.events.len()],
                "salvaged events are not a prefix for node {}", f.node);
        }

        // Interval level: per-node salvage output ⊆ fault-free output,
        // modulo at most `force_closed` synthetic truncated intervals.
        let clean = convert_job_pooled(&result.raw_files, &result.threads, &profile,
            &ConvertOptions::default(), 1).unwrap();
        let salvaged = convert_job_pooled(&files, &result.threads, &profile,
            &salvage_copts(), 1).unwrap();
        for s in &salvaged {
            let c = clean.iter().find(|c| c.node == s.node).unwrap();
            let clean_ivs = decode_intervals(&c.interval_file, &profile);
            let foreign = decode_intervals(&s.interval_file, &profile)
                .into_iter()
                .filter(|iv| !clean_ivs.contains(iv))
                .count() as u64;
            prop_assert!(foreign <= s.stats.force_closed,
                "node {}: {} foreign intervals but only {} forced closes",
                s.node, foreign, s.stats.force_closed);
        }

        // End to end: the degraded merge completes and marks every lost
        // node with a Gap pseudo-record.
        let (_, merged) = convert_then_merge(&files, &result.threads, &profile,
            &salvage_copts(), &salvage_mopts(lost.clone()), 2).unwrap();
        let ivs = decode_intervals(&merged.merged, &profile);
        for node in &lost {
            prop_assert!(ivs.iter().any(|iv|
                iv.itype.state == StateCode::GAP && iv.node.raw() == *node),
                "no gap record for lost node {node}");
        }
    }
}

/// The acceptance scenario from the issue: one truncated node, one
/// bit-flipped node, one missing node — salvage ingestion completes,
/// degrades exactly the unreadable parts, and stays byte-identical
/// across job counts.
#[test]
fn acceptance_truncated_bitflipped_missing() {
    let (profile, result) = baseline();
    let plan = FaultPlan::parse("0:truncate@900,1:bitflip@333.4,2:missing").unwrap();
    let (files, lost) = damage_and_salvage(&result.raw_files, &plan);
    assert_eq!(lost, vec![2]);
    assert_eq!(files.len(), 3);

    let copts = salvage_copts();
    let mopts = salvage_mopts(lost);
    let outs: Vec<Vec<u8>> = [1usize, 2, 8]
        .iter()
        .map(|&jobs| {
            convert_then_merge(&files, &result.threads, &profile, &copts, &mopts, jobs)
                .unwrap()
                .1
                .merged
        })
        .collect();
    assert_eq!(outs[0], outs[1], "jobs 1 vs 2 diverged");
    assert_eq!(outs[0], outs[2], "jobs 1 vs 8 diverged");

    // Node 2's absence is visible as a gap record; node 3 is untouched.
    let ivs = decode_intervals(&outs[0], &profile);
    assert!(ivs
        .iter()
        .any(|iv| iv.itype.state == StateCode::GAP && iv.node.raw() == 2));
    assert!(ivs.iter().any(|iv| iv.node.raw() == 3));
}

/// Strict mode refuses what salvage tolerates: the same damaged corpus
/// is a hard error without the salvage flags.
#[test]
fn strict_mode_still_fails_fast() {
    let (profile, result) = baseline();
    let plan = FaultPlan::parse("0:truncate@50").unwrap();
    let node0 = plan
        .apply_to_file(0, result.raw_files[0].to_bytes().unwrap(), HEADER_LEN)
        .unwrap();
    // Strict raw decode errors on the truncated tail...
    assert!(RawTraceFile::from_bytes(&node0).is_err());
    // ...while salvage decodes the surviving prefix.
    let (back, report) = RawTraceFile::from_bytes_salvage(&node0).unwrap();
    assert!(report.truncated_tail);
    assert!(back.events.len() < result.raw_files[0].events.len());

    // A truncated *interval* file fails a strict merge but degrades in
    // salvage mode.
    let converted = convert_job_pooled(
        &result.raw_files,
        &result.threads,
        &profile,
        &ConvertOptions::default(),
        1,
    )
    .unwrap();
    let mut refs: Vec<Vec<u8>> = converted.iter().map(|c| c.interval_file.clone()).collect();
    let half = refs[1].len() / 2;
    refs[1].truncate(half);
    let views: Vec<&[u8]> = refs.iter().map(|v| v.as_slice()).collect();
    assert!(merge_files_jobs(&views, &profile, &MergeOptions::default(), 2).is_err());
    let out = merge_files_jobs(&views, &profile, &salvage_mopts(Vec::new()), 2).unwrap();
    assert!(out.stats.nodes_degraded >= 1);
    let serial = merge_files_jobs(&views, &profile, &salvage_mopts(Vec::new()), 1).unwrap();
    assert_eq!(
        serial.merged, out.merged,
        "salvage merge jobs 1 vs 2 diverged"
    );
}

/// Buffer-level faults (dropped flush, clock jump) are injected while
/// the simulator writes — the resulting files are *well-formed* but
/// incomplete or time-skewed, and must still convert and merge.
#[test]
fn buffer_level_faults_produce_wellformed_survivors() {
    let w = micro::stencil(3, 6, 4 << 10);
    let mut config = w.config;
    config.trace.faults = Some(FaultPlan::parse("0:dropflush@0,1:clockjump@40+500000").unwrap());
    let result = Simulator::new(config, &w.job).unwrap().run().unwrap();
    let profile = Profile::standard();
    // Every file strict-decodes: the damage is semantic, not structural.
    for f in &result.raw_files {
        let bytes = f.to_bytes().unwrap();
        assert!(RawTraceFile::from_bytes(&bytes).is_ok());
    }
    let (_, out) = convert_then_merge(
        &result.raw_files,
        &result.threads,
        &profile,
        &salvage_copts(),
        &salvage_mopts(Vec::new()),
        2,
    )
    .unwrap();
    assert!(!out.merged.is_empty());
}

/// Mid-write kills of *non-atomic* writers (external tools, copies cut
/// short, pre-store artifacts) leave a prefix of the file. Sweep
/// truncation points over a real per-node interval file and a real SLOG
/// file: salvage ingestion must degrade the damaged node gracefully —
/// identically at every worker count — and the SLOG decoder must reject
/// the torn file with an error, never a panic.
#[test]
fn mid_write_truncation_of_ivl_and_slog_never_panics_ingestion() {
    let (profile, result) = baseline();
    let converted = convert_job_pooled(
        &result.raw_files,
        &result.threads,
        &profile,
        &ConvertOptions::default(),
        1,
    )
    .unwrap();
    let full: Vec<Vec<u8>> = converted.iter().map(|c| c.interval_file.clone()).collect();

    // A torn per-node interval file at every tenth of its length.
    for tenths in 1..10 {
        let mut refs = full.clone();
        let cut = refs[1].len() * tenths / 10;
        refs[1].truncate(cut);
        let views: Vec<&[u8]> = refs.iter().map(|v| v.as_slice()).collect();
        let jobs2 = merge_files_jobs(&views, &profile, &salvage_mopts(Vec::new()), 2)
            .unwrap_or_else(|e| panic!("salvage merge failed at cut {cut}: {e}"));
        let jobs1 = merge_files_jobs(&views, &profile, &salvage_mopts(Vec::new()), 1).unwrap();
        assert_eq!(
            jobs1.merged, jobs2.merged,
            "salvage of a cut-at-{cut} file diverged between jobs 1 and 2"
        );
        assert!(
            jobs2.stats.nodes_degraded >= 1 || !jobs2.merged.is_empty(),
            "cut {cut}: neither degraded nor produced output"
        );
    }

    // A torn SLOG file at every tenth: a clean decode error each time.
    let views: Vec<&[u8]> = full.iter().map(|v| v.as_slice()).collect();
    let (slog, _stats) = ute::merge::slogmerge_jobs(
        &views,
        &profile,
        &salvage_mopts(Vec::new()),
        ute::slog::builder::BuildOptions::default(),
        2,
    )
    .unwrap();
    let bytes = slog.to_bytes();
    for tenths in 1..10 {
        let cut = bytes.len() * tenths / 10;
        let torn = &bytes[..cut];
        assert!(
            ute::slog::file::SlogFile::from_bytes(torn).is_err(),
            "a SLOG truncated to {cut}/{} bytes decoded without error",
            bytes.len()
        );
    }
}

/// `--strict` promises "any corrupt, truncated, or missing input is a
/// hard error": a hole in the node numbering is one, for the raw and the
/// interval loader alike, and names the missing file. Salvage mode over
/// the same directories publishes what it did at the commit before the
/// loaders shared one scan (digests recorded there).
#[test]
fn strict_mode_rejects_a_hole_that_salvage_ingests() {
    let argv = |tokens: &[&str]| -> Vec<String> { tokens.iter().map(|s| s.to_string()).collect() };
    let dir = std::env::temp_dir().join(format!("ute_faults_hole_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let d = dir.to_str().unwrap();
    let merged = dir.join("merged.ivl");
    let out = merged.to_str().unwrap();
    ute::cli::run(&argv(&[
        "trace",
        "--workload",
        "stencil",
        "--iterations",
        "6",
        "--out",
        d,
    ]))
    .unwrap();
    ute::cli::run(&argv(&["convert", "--in", d, "--strict"])).unwrap();
    // What a command said and what it published, as one number.
    let digest = |msg: &str, files: &[&str]| {
        let mut bytes = msg.as_bytes().to_vec();
        for f in files {
            bytes.extend(std::fs::read(dir.join(f)).unwrap());
        }
        ute::store::fnv64(&bytes)
    };
    let strict_error = |cmd: &[&str], missing: &str| {
        let mut tokens = cmd.to_vec();
        tokens.push("--strict");
        let err = ute::cli::run(&argv(&tokens)).unwrap_err();
        assert!(
            matches!(err, ute::core::error::UteError::NotFound(_)),
            "{err}"
        );
        let text = err.to_string();
        assert!(text.contains(missing) && text.contains(d), "{text}");
    };

    // The interval loader: merge, slogmerge, clockfit.
    std::fs::remove_file(dir.join("trace.1.ivl")).unwrap();
    let msg = ute::cli::run(&argv(&["merge", "--in", d, "--out", out])).unwrap();
    assert!(msg.starts_with("merged 3 files: "), "{msg}");
    assert_eq!(digest(&msg, &["merged.ivl"]), 7152839254332012626, "{msg}");
    strict_error(&["merge", "--in", d, "--out", out], "trace.1.ivl");
    strict_error(&["slogmerge", "--in", d, "--out", out], "trace.1.ivl");
    strict_error(&["clockfit", "--in", d], "trace.1.ivl");

    // The raw loader: convert.
    std::fs::remove_file(dir.join("trace.1.raw")).unwrap();
    let msg = ute::cli::run(&argv(&["convert", "--in", d])).unwrap();
    assert!(
        msg.ends_with("salvage: 1 node(s) unreadable or missing: [1]\n"),
        "{msg}"
    );
    assert_eq!(
        digest(&msg, &["trace.0.ivl", "trace.2.ivl", "trace.3.ivl"]),
        13350623615245208116,
        "{msg}"
    );
    strict_error(&["convert", "--in", d], "trace.1.raw");
    let _ = std::fs::remove_dir_all(&dir);
}
