//! The merge path against its references: the merge carries records as
//! views of the input bytes ([`ute::format::Retimed`]) and writes them by
//! copying those bytes, and what comes out must be what the route over
//! decoded [`Interval`]s produces — `adjust_node` → `IvSource` →
//! `LoserTreeMerge` → `write_merged_stream` / `SlogBuilder::build` — byte
//! for byte, error for error, whichever entry point and job count ran it.
//! `ute pipeline` builds `run.slog` from the merged file it published
//! ([`slog_of_merged`] over [`merged_stream`], the inverse of
//! `write_merged_stream`) instead of merging twice: that must be the SLOG
//! the merge of the per-node files builds.

mod common;

use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;

use ute::cluster::Simulator;
use ute::convert::{convert_job_pooled, ConvertOptions};
use ute::core::bebits::BeBits;
use ute::core::error::Result;
use ute::core::ids::{CpuId, LogicalThreadId, NodeId, ThreadType};
use ute::format::datatype::FieldType;
use ute::format::file::{FramePolicy, IntervalFileReader, IntervalFileWriter, MERGED_NODE};
use ute::format::profile::{
    FieldSpec, Profile, RecordSpec, MASK_MERGED, MASK_PER_NODE, SELECT_NODE,
};
use ute::format::record::{Interval, IntervalType};
use ute::format::state::StateCode;
use ute::format::thread_table::ThreadTable;
use ute::format::value::Value;
use ute::format::{Record, RecordFields, Retimed};
use ute::merge::{
    absorb_file_header, adjust_node, adjust_node_records, merge_files, merge_files_jobs,
    merged_stream, slog_of_merged, slogmerge, slogmerge_jobs, write_merged_stream, IvSource,
    LoserTreeMerge, MergeOptions, MergeStats, VecSource,
};
use ute::scenario::{generate, ScenarioSpec};
use ute::slog::builder::{BuildOptions, SlogBuilder};
use ute::workloads::scaling::scaled_job;
use ute::workloads::{micro, Workload};

use common::{random_file, random_interval, Rng};

const BUILD: BuildOptions = BuildOptions {
    nframes: 16,
    preview_bins: 32,
    arrows: true,
};

/// Per-node interval files of one simulated run, as `ute convert` writes
/// them.
struct Corpus {
    profile: Profile,
    files: Vec<Vec<u8>>,
}

impl Corpus {
    fn of(w: Workload) -> Corpus {
        let result = Simulator::new(w.config, &w.job).unwrap().run().unwrap();
        let profile = Profile::standard();
        let copts = ConvertOptions {
            policy: FramePolicy {
                max_records_per_frame: 64,
                max_frames_per_dir: 4,
            },
            ..ConvertOptions::default()
        };
        let converted =
            convert_job_pooled(&result.raw_files, &result.threads, &profile, &copts, 1).unwrap();
        Corpus {
            profile,
            files: converted.into_iter().map(|c| c.interval_file).collect(),
        }
    }

    fn refs(&self) -> Vec<&[u8]> {
        self.files.iter().map(Vec::as_slice).collect()
    }
}

/// Table 1's program, small: 4 nodes × 4 threads of three thread types,
/// a marker open from the first record to the last, Waitall vectors,
/// collectives, clock records.
fn scaling() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| Corpus::of(scaled_job(60)))
}

/// Six nodes of halo exchange: more files than the widest job count but
/// one, so a worker takes several.
fn stencil() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| Corpus::of(micro::stencil(6, 8, 8 << 10)))
}

/// The 256+-node torture preset: long runs of equal ends across nodes.
fn torture() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let sc = generate(&ScenarioSpec::torture(11)).unwrap();
        Corpus::of(Workload {
            name: "torture",
            config: sc.config,
            job: sc.job,
        })
    })
}

/// What a merge and a slogmerge of the same inputs leave behind.
#[derive(Debug, PartialEq)]
struct Outcome {
    merged: Vec<u8>,
    slog: Vec<u8>,
    records_in: u64,
    records_out: u64,
    pseudo_added: u64,
    nodes_degraded: u64,
}

/// The merge as it ran before it carried bytes: every record decoded on
/// its way out of its file, the k-way merge and both tails over
/// `Interval`s. Salvage drops a file that fails anywhere, its header kept
/// if it got that far — the rule of `merge_files`.
fn reference(files: &[&[u8]], p: &Profile, opts: &MergeOptions) -> Result<Outcome> {
    let mut threads = ThreadTable::new();
    let mut markers = Vec::new();
    let mut stats = MergeStats::default();
    let mut streams = Vec::new();
    for bytes in files {
        let mut node = || {
            let reader = IntervalFileReader::open(bytes, p)?;
            absorb_file_header(&reader, &mut threads, &mut markers)?;
            let mut ivs = Vec::new();
            let (_, records_in) = adjust_node(&reader, p, opts, |iv| {
                ivs.push(iv);
                Ok(())
            })?;
            Ok((ivs, records_in))
        };
        match node() {
            Ok((ivs, records_in)) => {
                stats.records_in += records_in;
                streams.push(ivs);
            }
            Err(_) if opts.salvage => stats.nodes_degraded += 1,
            Err(e) => return Err(e),
        }
    }
    markers.sort_by_key(|(id, _)| *id);
    let sources: Vec<IvSource> = streams.into_iter().map(IvSource::new).collect();
    let merged: Vec<Interval> = LoserTreeMerge::new(sources).collect();
    let slog = SlogBuilder::new(p, BUILD).build(&merged, &threads, &markers)?;
    let bytes = write_merged_stream(p, &threads, &markers, opts, merged, &mut stats)?;
    Ok(Outcome {
        merged: bytes,
        slog: slog.to_bytes(),
        records_in: stats.records_in,
        records_out: stats.records_out,
        pseudo_added: stats.pseudo_added,
        nodes_degraded: stats.nodes_degraded,
    })
}

/// The shipped entry points: the serial pair, or the `jobs` pair.
fn shipped(
    files: &[&[u8]],
    p: &Profile,
    opts: &MergeOptions,
    jobs: Option<usize>,
) -> Result<Outcome> {
    let (out, (slog, slog_stats)) = match jobs {
        None => (
            merge_files(files, p, opts)?,
            slogmerge(files, p, opts, BUILD)?,
        ),
        Some(j) => (
            merge_files_jobs(files, p, opts, j)?,
            slogmerge_jobs(files, p, opts, BUILD, j)?,
        ),
    };
    assert_eq!(out.stats.records_in, slog_stats.records_in);
    assert_eq!(out.stats.nodes_degraded, slog_stats.nodes_degraded);
    assert_eq!(
        out.stats.records_out - out.stats.pseudo_added - gap_count(opts),
        slog_stats.records_out,
        "slogmerge merges the same stream"
    );
    Ok(Outcome {
        merged: out.merged,
        slog: slog.to_bytes(),
        records_in: out.stats.records_in,
        records_out: out.stats.records_out,
        pseudo_added: out.stats.pseudo_added,
        nodes_degraded: out.stats.nodes_degraded,
    })
}

fn gap_count(opts: &MergeOptions) -> u64 {
    let mut gaps = opts.gap_nodes.clone();
    gaps.sort_unstable();
    gaps.dedup();
    gaps.len() as u64
}

/// Every shipped entry point gives the reference's outcome, or fails in
/// its words.
fn assert_matches_reference(files: &[&[u8]], p: &Profile, opts: &MergeOptions, what: &str) {
    let expected = reference(files, p, opts).map_err(|e| e.to_string());
    for jobs in [None, Some(1), Some(2), Some(8), Some(64)] {
        let got = shipped(files, p, opts, jobs).map_err(|e| e.to_string());
        assert!(
            got == expected,
            "{what}, jobs {jobs:?}: shipped merge differs from the reference\n\
             shipped: {}\nreference: {}",
            summary(&got),
            summary(&expected),
        );
    }
}

fn summary(r: &std::result::Result<Outcome, String>) -> String {
    match r {
        Ok(o) => format!(
            "{} merged bytes, {} slog bytes, {} in, {} out, {} pseudo, {} degraded",
            o.merged.len(),
            o.slog.len(),
            o.records_in,
            o.records_out,
            o.pseudo_added,
            o.nodes_degraded
        ),
        Err(e) => format!("error: {e}"),
    }
}

fn option_sets() -> Vec<(&'static str, MergeOptions)> {
    let base = MergeOptions::default();
    vec![
        ("defaults", base.clone()),
        (
            "tiny frames",
            MergeOptions {
                policy: FramePolicy::tiny(),
                ..base.clone()
            },
        ),
        (
            "mpi threads only",
            MergeOptions {
                thread_types: Some(vec![ThreadType::Mpi]),
                ..base.clone()
            },
        ),
        (
            "user and system threads, tiny frames",
            MergeOptions {
                thread_types: Some(vec![ThreadType::User, ThreadType::System]),
                policy: FramePolicy::tiny(),
                ..base.clone()
            },
        ),
        (
            "gap nodes",
            MergeOptions {
                gap_nodes: vec![9, 2, 9],
                ..base.clone()
            },
        ),
        (
            "no frame-head pseudo records",
            MergeOptions {
                frame_pseudo_intervals: false,
                policy: FramePolicy::tiny(),
                ..base
            },
        ),
    ]
}

#[test]
fn shipped_merge_equals_the_interval_reference_under_every_option() {
    let c = scaling();
    for (what, opts) in option_sets() {
        for salvage in [false, true] {
            let opts = MergeOptions {
                salvage,
                ..opts.clone()
            };
            assert_matches_reference(
                &c.refs(),
                &c.profile,
                &opts,
                &format!("{what}, salvage {salvage}"),
            );
        }
    }
    let s = stencil();
    assert_matches_reference(&s.refs(), &s.profile, &MergeOptions::default(), "stencil");
    // Tiny frames put a pseudo record of the open marker at every frame
    // head; make sure that is what was compared.
    let tiny = MergeOptions {
        policy: FramePolicy::tiny(),
        ..MergeOptions::default()
    };
    let out = merge_files(&c.refs(), &c.profile, &tiny).unwrap();
    assert!(
        out.stats.pseudo_added * 5 > out.stats.records_in,
        "{} pseudo records for {} records",
        out.stats.pseudo_added,
        out.stats.records_in
    );
}

#[test]
fn shipped_merge_equals_the_interval_reference_on_the_torture_corpus() {
    let c = torture();
    assert!(c.files.len() >= 256);
    let expected = reference(&c.refs(), &c.profile, &MergeOptions::default()).unwrap();
    for jobs in [None, Some(2), Some(8), Some(64)] {
        let got = shipped(&c.refs(), &c.profile, &MergeOptions::default(), jobs).unwrap();
        assert!(got == expected, "jobs {jobs:?}");
    }
}

#[test]
fn damaged_inputs_fail_or_degrade_as_the_reference_does() {
    let (c, s) = (scaling(), stencil());
    let mut rng = Rng(0xdead_beef);
    let mut damaged: Vec<(String, &Corpus, usize, Vec<u8>)> = Vec::new();
    let cut = c.files[2].len() - 7;
    damaged.push(("file 2 truncated".into(), c, 2, c.files[2][..cut].to_vec()));
    let cut = s.files[2].len() - 7;
    damaged.push((
        "stencil file 2 truncated".into(),
        s,
        2,
        s.files[2][..cut].to_vec(),
    ));
    damaged.push((
        "file 0 cut in half".into(),
        c,
        0,
        c.files[0][..c.files[0].len() / 2].to_vec(),
    ));
    damaged.push(("file 3 header only".into(), c, 3, c.files[3][..40].to_vec()));
    for _ in 0..12 {
        let mut bytes = c.files[1].clone();
        let at = rng.below(bytes.len() as u64) as usize;
        bytes[at] ^= 1 << rng.below(8);
        damaged.push((format!("file 1 bit flipped at {at}"), c, 1, bytes));
    }
    let mut failures = 0;
    for (what, c, which, bytes) in &damaged {
        let mut files = c.refs();
        files[*which] = bytes;
        for (opts_name, opts) in option_sets().into_iter().take(2) {
            for salvage in [false, true] {
                let opts = MergeOptions {
                    salvage,
                    ..opts.clone()
                };
                let what = format!("{what}, {opts_name}, salvage {salvage}");
                assert_matches_reference(&files, &c.profile, &opts, &what);
                if !salvage && merge_files(&files, &c.profile, &opts).is_err() {
                    failures += 1;
                }
            }
        }
    }
    assert!(
        failures >= 6,
        "only {failures} damaged inputs failed a strict merge"
    );
}

/// Two damaged inputs, the earlier failing late (in its last frame, once
/// a worker reads it) and the later failing early (at its header, before
/// any worker starts). Which one a strict merge reports must not depend
/// on which was noticed first: it is the earlier file's, in the words the
/// one-file-at-a-time reference uses, at every job count. Salvage drops
/// both.
#[test]
fn two_damaged_inputs_are_reported_in_input_order() {
    let c = scaling();
    let cut = c.files[1][..c.files[1].len() - 7].to_vec();
    let mut bad_header = c.files[3].clone();
    bad_header[0] ^= 0xff;
    let mut files = c.refs();
    files[1] = &cut;
    files[3] = &bad_header;
    for salvage in [false, true] {
        let opts = MergeOptions {
            salvage,
            ..MergeOptions::default()
        };
        let what = format!("files 1 and 3 damaged, salvage {salvage}");
        assert_matches_reference(&files, &c.profile, &opts, &what);
    }

    let strict = MergeOptions::default();
    let mut only_cut = c.refs();
    only_cut[1] = &cut;
    let mut only_header = c.refs();
    only_header[3] = &bad_header;
    let of_cut = merge_files(&only_cut, &c.profile, &strict)
        .unwrap_err()
        .to_string();
    let of_header = merge_files(&only_header, &c.profile, &strict)
        .unwrap_err()
        .to_string();
    assert_ne!(of_cut, of_header, "the two faults must be told apart");
    for jobs in [1, 2, 8, 64] {
        let merge = merge_files_jobs(&files, &c.profile, &strict, jobs).unwrap_err();
        let slog = slogmerge_jobs(&files, &c.profile, &strict, BUILD, jobs).unwrap_err();
        assert_eq!(merge.to_string(), of_cut, "merge, jobs {jobs}");
        assert_eq!(slog.to_string(), of_cut, "slogmerge, jobs {jobs}");
    }
    let salvage = MergeOptions {
        salvage: true,
        ..strict
    };
    for jobs in [1, 2, 8, 64] {
        let out = merge_files_jobs(&files, &c.profile, &salvage, jobs).unwrap();
        assert_eq!(out.stats.nodes_degraded, 2, "jobs {jobs}");
    }
}

/// Appends every record of `src`, retimed, to two writers of mask
/// `dst_mask` — one through the transcode entry, one decoded and pushed —
/// and requires the same result of every call and the same file.
fn assert_transcode_equals_push(src: &[u8], p: &Profile, dst_mask: u32, what: &str) {
    let r = IntervalFileReader::open(src, p).unwrap();
    let writer = || {
        IntervalFileWriter::new(
            p,
            dst_mask,
            if dst_mask == MASK_MERGED {
                MERGED_NODE
            } else {
                5
            },
            &r.threads,
            &r.markers,
            FramePolicy {
                max_records_per_frame: 7,
                max_frames_per_dir: 3,
            },
        )
    };
    let (mut transcoded, mut pushed) = (writer(), writer());
    let mut both = |rec: &Retimed<'_>| {
        let a = transcoded.push_retimed(rec).map_err(|e| e.to_string());
        let b = pushed.push(&rec.to_interval()).map_err(|e| e.to_string());
        assert_eq!(a, b, "{what}: {:?}", rec.to_interval());
        a
    };
    let mut n = 0;
    for rec in r.records() {
        let rec = rec.unwrap();
        // Monotone in the end, so the writers' order check passes.
        let (start, duration) = (2 * rec.start(), 2 * rec.duration() + 1);
        // Not every record can be written (the signed vector cannot):
        // then neither writer takes it, in the same words.
        let _ = both(&Retimed::new(rec, start, duration));
        n += 1;
    }
    // And an error: a record that ends before the last one.
    if n > 0 {
        let first = r.records().next().unwrap().unwrap();
        both(&Retimed::new(first, 0, 0)).unwrap_err();
    }
    assert!(
        transcoded.finish() == pushed.finish(),
        "{what}: files differ"
    );
}

/// The standard profile plus record types that strain the transcode
/// rule: one with no layout at all, and several with a layout the rule
/// must refuse or handle with care.
///
/// No writer encodes a vector of signed integers, and the reference
/// decoder accepts only an empty one. So the files are written under the
/// profile's `writable` twin, where that vector is unsigned, and always
/// empty: the same bytes, which the profile proper then reads through the
/// decoder instead of a view.
fn odd_profile(writable: bool) -> Profile {
    let mut p = Profile::standard();
    let name = |p: &mut Profile, n: &str| p.intern_field_name(n);
    let common = |p: &mut Profile, cpu: FieldType| {
        vec![
            FieldSpec::scalar(name(p, "recType"), FieldType::U32),
            FieldSpec::scalar(name(p, "start"), FieldType::U64),
            FieldSpec::scalar(name(p, "dura"), FieldType::U64),
            FieldSpec::scalar(name(p, "cpu"), cpu),
            FieldSpec {
                select_bit: SELECT_NODE,
                ..FieldSpec::scalar(name(p, "node"), FieldType::U16)
            },
            FieldSpec::scalar(name(p, "thread"), FieldType::U16),
        ]
    };
    let (deltas, weight, label, samples, rank, rectype) = (
        name(&mut p, "deltas"),
        name(&mut p, "weight"),
        name(&mut p, "label"),
        name(&mut p, "samples"),
        name(&mut p, "rank"),
        name(&mut p, "recType"),
    );
    let specs: [(u16, FieldType, Vec<FieldSpec>); 5] = [
        // A vector of signed integers: no layout, every record decoded.
        (
            0x70,
            FieldType::U16,
            vec![FieldSpec::vector(
                deltas,
                if writable {
                    FieldType::U64
                } else {
                    FieldType::I64
                },
                1,
            )],
        ),
        // A cpu wider than an `Interval` keeps: a layout, but no rule.
        (
            0x71,
            FieldType::U32,
            vec![
                FieldSpec::scalar(weight, FieldType::F64),
                FieldSpec::vector(label, FieldType::Char, 2),
            ],
        ),
        // The same extra twice.
        (
            0x72,
            FieldType::U16,
            vec![
                FieldSpec::scalar(rank, FieldType::U32),
                FieldSpec::scalar(rank, FieldType::U32),
            ],
        ),
        // A second field named recType.
        (
            0x73,
            FieldType::U16,
            vec![FieldSpec::scalar(rectype, FieldType::U32)],
        ),
        // Floats, float vectors and text, all copied as bytes.
        (
            0x74,
            FieldType::U8,
            vec![
                FieldSpec::scalar(weight, FieldType::F64),
                FieldSpec::vector(samples, FieldType::F64, 1),
                FieldSpec::vector(label, FieldType::Char, 4),
                FieldSpec::scalar(deltas, FieldType::I64),
            ],
        ),
    ];
    for (state, cpu, extras) in specs {
        let mut fields = common(&mut p, cpu);
        fields.extend(extras);
        let name_idx = p.intern_record_name(&format!("Odd{state:x}"));
        p.add_record(RecordSpec {
            itype: IntervalType::complete(StateCode(state)),
            name_idx,
            fields,
        });
    }
    p
}

/// One record of an [`odd_profile`] type.
fn odd_interval(rng: &mut Rng, p: &Profile, node: u16) -> Interval {
    let state = 0x70 + rng.below(5) as u16;
    let base = Interval::basic(
        IntervalType::complete(StateCode(state)),
        rng.below(1 << 20),
        rng.below(1 << 12),
        // Above `u8` for the one-byte cpu of 0x74 too: both routes truncate.
        CpuId(rng.below(1000) as u16),
        NodeId(node),
        LogicalThreadId(rng.below(8) as u16),
    );
    let float = |rng: &mut Rng| f64::from_bits(rng.next());
    // Up to 315 bytes: both widths of the record length prefix.
    let text = |rng: &mut Rng| Value::Str("héllo ".repeat(rng.below(46) as usize).into());
    match state {
        0x70 => base.with_extra(p, "deltas", Value::UintVec(Vec::new().into())),
        0x71 => base
            .with_extra(p, "weight", Value::Float(float(rng)))
            .with_extra(p, "label", text(rng)),
        0x72 => base
            .with_extra(p, "rank", Value::Uint(rng.below(1 << 32)))
            .with_extra(p, "rank", Value::Uint(rng.below(1 << 32))),
        0x73 => base.with_extra(p, "recType", Value::Uint(rng.below(1 << 32))),
        _ => {
            let n = rng.below(9);
            let samples: Vec<f64> = (0..n).map(|_| float(rng)).collect();
            base.with_extra(p, "weight", Value::Float(float(rng)))
                .with_extra(p, "samples", Value::FloatVec(samples.into()))
                .with_extra(p, "label", text(rng))
                .with_extra(p, "deltas", Value::Int(rng.next() as i64))
        }
    }
}

/// A file of standard and odd records under either mask, written under
/// the writable profile.
fn odd_file(rng: &mut Rng, p: &Profile, merged: bool, n: usize) -> Vec<u8> {
    let mask = if merged { MASK_MERGED } else { MASK_PER_NODE };
    let mut ivs: Vec<Interval> = (0..n)
        .map(|_| {
            let node = if merged { rng.below(6) as u16 } else { 3 };
            if rng.below(2) == 0 {
                common::random_interval(rng, p, node)
            } else {
                odd_interval(rng, p, node)
            }
        })
        .collect();
    ivs.sort_by_key(|iv| iv.end());
    let mut w = IntervalFileWriter::new(
        p,
        mask,
        if merged { MERGED_NODE } else { 3 },
        &ThreadTable::new(),
        &[],
        FramePolicy::default(),
    );
    for iv in &ivs {
        w.push(iv).unwrap();
    }
    w.finish()
}

#[test]
fn transcode_appends_what_decode_and_push_append() {
    // Simulated runs: per-node files, and the merged file they make.
    for (name, c) in [("scaling", scaling()), ("torture", torture())] {
        let merged = merge_files(&c.refs(), &c.profile, &MergeOptions::default())
            .unwrap()
            .merged;
        let sources = c.files.iter().map(Vec::as_slice).chain([merged.as_slice()]);
        for (i, src) in sources.enumerate() {
            for dst_mask in [MASK_MERGED, MASK_PER_NODE] {
                let what = format!("{name} file {i} into mask {dst_mask}");
                assert_transcode_equals_push(src, &c.profile, dst_mask, &what);
            }
        }
    }
    // Seeded streams: Waitall vectors behind both prefix widths, markers,
    // clock pairs; then the odd record types, where the writer has to
    // decide per type whether bytes may be copied.
    let standard = Profile::standard();
    let (odd, odd_writable) = (odd_profile(false), odd_profile(true));
    let mut rng = Rng(0x7a5c_0de5);
    let mut owned = 0;
    for round in 0..24 {
        for merged in [false, true] {
            let plain = random_file(&mut rng, &standard, merged, 150);
            let strained = odd_file(&mut rng, &odd_writable, merged, 150);
            for dst_mask in [MASK_MERGED, MASK_PER_NODE] {
                let what = format!("round {round}, merged {merged}, into mask {dst_mask}");
                assert_transcode_equals_push(&plain, &standard, dst_mask, &what);
                assert_transcode_equals_push(&strained, &odd, dst_mask, &what);
            }
            let r = IntervalFileReader::open(&strained, &odd).unwrap();
            owned += r
                .records()
                .filter(|rec| matches!(rec, Ok(Record::Owned(_))))
                .count();
        }
    }
    assert!(owned > 100, "{owned} records read through the decoder");
    // A decoded record the writer does take.
    let mut w = IntervalFileWriter::new(
        &standard,
        MASK_MERGED,
        MERGED_NODE,
        &ThreadTable::new(),
        &[],
        FramePolicy::default(),
    );
    let iv = common::random_interval(&mut rng, &standard, 2);
    let rec = Retimed::new(Record::Owned(Box::new(iv.clone())), 70, 7);
    w.push_retimed(&rec).unwrap();
    let bytes = w.finish();
    let r = IntervalFileReader::open(&bytes, &standard).unwrap();
    let back: Vec<Interval> = r.intervals().map(|x| x.unwrap()).collect();
    assert_eq!(
        back,
        vec![Interval {
            start: 70,
            duration: 7,
            ..iv
        }]
    );
}

#[test]
fn slog_built_from_any_record_form_is_the_slog_built_from_intervals() {
    let c = scaling();
    let p = &c.profile;
    let opts = MergeOptions::default();
    let readers: Vec<IntervalFileReader> = c
        .refs()
        .into_iter()
        .map(|f| IntervalFileReader::open(f, p).unwrap())
        .collect();
    let mut threads = ThreadTable::new();
    let mut markers = Vec::new();
    let mut streams = Vec::new();
    for r in &readers {
        absorb_file_header(r, &mut threads, &mut markers).unwrap();
        let (recs, _, _) = adjust_node_records(r, p, &opts).unwrap();
        streams.push(recs);
    }
    let sources = streams.into_iter().map(VecSource::new).collect();
    let carried: Vec<Retimed> = LoserTreeMerge::new(sources).collect();
    let decoded: Vec<Interval> = carried.iter().map(Retimed::to_interval).collect();
    assert!(decoded.iter().any(|iv| iv.itype.bebits == BeBits::Begin));

    let builder = SlogBuilder::new(p, BUILD);
    let expected = builder
        .build(&decoded, &threads, &markers)
        .unwrap()
        .to_bytes();
    assert!(
        builder
            .build_from(&carried, &threads, &markers)
            .unwrap()
            .to_bytes()
            == expected
    );

    // And from the merged file, read back as views.
    let merged = merge_files(&c.refs(), p, &opts).unwrap().merged;
    let r = IntervalFileReader::open(&merged, p).unwrap();
    let records: Vec<Record> = r.records().map(|rec| rec.unwrap()).collect();
    let from_file: Vec<Interval> = r.intervals().map(|iv| iv.unwrap()).collect();
    let expected = builder
        .build(&from_file, &r.threads, &r.markers)
        .unwrap()
        .to_bytes();
    let got = builder
        .build_from(&records, &r.threads, &r.markers)
        .unwrap();
    assert!(got.to_bytes() == expected);
}

#[test]
fn the_item_the_merge_moves_is_smaller_than_an_interval() {
    assert!(std::mem::size_of::<Retimed>() <= 48);
    assert_eq!(std::mem::size_of::<Interval>(), 56);
}

#[test]
fn the_slog_of_a_merged_file_is_the_slog_its_merge_builds() {
    let corpora = [
        ("scaling", scaling(), option_sets()),
        ("stencil", stencil(), option_sets()),
        (
            "torture",
            torture(),
            vec![("defaults", MergeOptions::default())],
        ),
    ];
    for (name, c, sets) in corpora {
        for (what, opts) in sets {
            let merged = merge_files(&c.refs(), &c.profile, &opts).unwrap().merged;
            let r = IntervalFileReader::open(&merged, &c.profile).unwrap();
            let (slog, records) = slog_of_merged(&r, &c.profile, &opts, BUILD).unwrap();
            let (expected, stats) = slogmerge_jobs(&c.refs(), &c.profile, &opts, BUILD, 2).unwrap();
            assert_eq!(records, stats.records_out, "{name}, {what}");
            assert!(slog.to_bytes() == expected.to_bytes(), "{name}, {what}");
        }
    }
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ute_merge_path_{name}_{}", std::process::id()))
}

/// `ute pipeline`'s `run.slog`, built from its `merged.ivl`, is the file
/// standalone `ute slogmerge` builds by merging the per-node files —
/// under seeded faults, `--strict`, and with a node missing.
#[test]
fn the_pipeline_slog_is_the_standalone_slogmerge_slog() {
    // Seeded faults on stencil (on scaling some leave a trace convert
    // refuses); the open marker of scaling puts continuations at every
    // frame head.
    let runs: [&[&str]; 5] = [
        &["--workload", "stencil", "--fault-seed", "1"],
        &["--workload", "stencil", "--fault-seed", "2"],
        &["--workload", "stencil", "--fault-seed", "3"],
        &["--workload", "scaling", "--iterations", "60", "--strict"],
        &[
            "--workload",
            "scaling",
            "--iterations",
            "60",
            "--fault-plan",
            "1:missing",
        ],
    ];
    for (k, extra) in runs.iter().enumerate() {
        let dir = tmp(&format!("slog_{k}"));
        let d = dir.to_str().unwrap();
        let run = |tokens: &[&str]| {
            let argv: Vec<String> = tokens.iter().map(|t| t.to_string()).collect();
            ute::cli::run(&argv).unwrap()
        };
        let mut pipeline = vec!["pipeline", "--out", d];
        pipeline.extend(*extra);
        run(&pipeline);
        let alone = dir.join("alone.slog");
        let mut slogmerge = vec!["slogmerge", "--in", d, "--out", alone.to_str().unwrap()];
        if extra.contains(&"--strict") {
            slogmerge.push("--strict");
        }
        run(&slogmerge);
        let (a, b) = (std::fs::read(dir.join("run.slog")), std::fs::read(&alone));
        assert!(a.unwrap() == b.unwrap(), "{extra:?}");
        let missing = !dir.join("trace.1.ivl").exists();
        assert_eq!(missing, extra.contains(&"1:missing"), "{extra:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A merged file written under `opts`, and the stream [`merged_stream`]
/// reads back from it.
fn round_trip(stream: &[Interval], opts: &MergeOptions) -> (Vec<Interval>, MergeStats) {
    let p = Profile::standard();
    let mut stats = MergeStats::default();
    let bytes = write_merged_stream(
        &p,
        &ThreadTable::new(),
        &[],
        opts,
        stream.to_vec(),
        &mut stats,
    )
    .unwrap();
    let r = IntervalFileReader::open(&bytes, &p).unwrap();
    let back = merged_stream(&r, opts).map(|rec| rec.unwrap().into_interval());
    (back.collect(), stats)
}

/// Four records to a frame, so frame heads come often.
fn four_per_frame(gap_nodes: Vec<u16>, frame_pseudo_intervals: bool) -> MergeOptions {
    MergeOptions {
        policy: FramePolicy {
            max_records_per_frame: 4,
            max_frames_per_dir: 3,
        },
        gap_nodes,
        frame_pseudo_intervals,
        ..MergeOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reading a merged file back through `merged_stream` returns the
    /// stream it was written from: the gap records and frame-head
    /// continuations the writer added are exactly what is skipped.
    #[test]
    fn reading_a_merged_file_back_returns_the_stream_written(
        seed in any::<u64>(),
        n in 0usize..300,
        gaps in 0u16..7,
        pseudo in any::<bool>(),
    ) {
        let p = Profile::standard();
        let mut rng = Rng(seed | 1);
        let mut stream: Vec<Interval> = (0..n)
            .map(|_| {
                let node = rng.below(6) as u16;
                random_interval(&mut rng, &p, node)
            })
            .collect();
        stream.sort_by_key(|iv| iv.end());
        let (back, _) = round_trip(&stream, &four_per_frame((0..gaps).rev().collect(), pseudo));
        prop_assert_eq!(back, stream);
    }
}

#[test]
fn more_open_states_than_a_frame_holds_read_back_whole() {
    // Six threads open a marker each, then 40 short records run under
    // them: every frame head after the first carries six continuations,
    // more than the four records a frame holds.
    let p = Profile::standard();
    let piece = |bebits, thread: u16, start: u64, duration: u64| {
        Interval::basic(
            IntervalType {
                state: StateCode::MARKER,
                bebits,
            },
            start,
            duration,
            CpuId(0),
            NodeId(thread % 2),
            LogicalThreadId(thread),
        )
        .with_extra(&p, "markerId", Value::Uint(thread as u64))
        .with_extra(&p, "address", Value::Uint(0))
        .with_extra(&p, "addressEnd", Value::Uint(0))
    };
    let mut stream: Vec<Interval> = (0..6)
        .map(|t| piece(BeBits::Begin, t, t as u64, 1))
        .collect();
    for i in 0..40u64 {
        stream.push(Interval::basic(
            IntervalType::complete(StateCode::RUNNING),
            10 + i * 10,
            10,
            CpuId(0),
            NodeId(0),
            LogicalThreadId((i % 6) as u16),
        ));
    }
    stream.extend((0..6).map(|t| piece(BeBits::End, t, 500, 10 + t as u64)));
    for gaps in [vec![], vec![3, 1], vec![0, 1, 2, 3, 4, 5, 6, 7]] {
        let (back, stats) = round_trip(&stream, &four_per_frame(gaps.clone(), true));
        assert!(
            stats.pseudo_added >= 6 * 5,
            "{} pseudo records",
            stats.pseudo_added
        );
        assert!(back == stream, "gaps {gaps:?}");
    }
}

#[test]
fn a_wide_merged_file_reads_back_whole() {
    // 80 timelines — 8 nodes of 10 threads — each open a marker, then
    // 2,000 records run under them, 64 to a frame: every frame head
    // carries 80 continuations, and most records are not at one.
    let p = Profile::standard();
    let (nodes, threads) = (8u16, 10u16);
    let marker = |bebits, node: u16, thread: u16, start: u64, duration: u64| {
        Interval::basic(
            IntervalType {
                state: StateCode::MARKER,
                bebits,
            },
            start,
            duration,
            CpuId(thread % 4),
            NodeId(node),
            LogicalThreadId(thread),
        )
        .with_extra(
            &p,
            "markerId",
            Value::Uint((node * threads + thread) as u64),
        )
        .with_extra(&p, "address", Value::Uint(0))
        .with_extra(&p, "addressEnd", Value::Uint(0))
    };
    let timelines = || (0..nodes).flat_map(|n| (0..threads).map(move |t| (n, t)));
    let mut stream: Vec<Interval> = timelines()
        .map(|(n, t)| marker(BeBits::Begin, n, t, 0, 1))
        .collect();
    let mut rng = Rng(0x77de);
    for i in 0..2_000u64 {
        let node = rng.below(nodes as u64) as u16;
        stream.push(random_interval(&mut rng, &p, node));
        stream.last_mut().unwrap().start = 10 + i * 10;
        stream.last_mut().unwrap().duration = 10;
    }
    stream.extend(timelines().map(|(n, t)| marker(BeBits::End, n, t, 30_000, 1)));
    let opts = MergeOptions {
        policy: FramePolicy {
            max_records_per_frame: 64,
            max_frames_per_dir: 8,
        },
        gap_nodes: vec![9],
        frame_pseudo_intervals: true,
        ..MergeOptions::default()
    };
    let (back, stats) = round_trip(&stream, &opts);
    assert!(
        stats.pseudo_added >= 80 * 20,
        "{} pseudo records",
        stats.pseudo_added
    );
    assert!(back == stream);
}
