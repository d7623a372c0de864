//! The traced run: one workload's input pushed through every layer's
//! public functions, one call at a time, each call a span.
//!
//! A pass first replays what each command of an ingest rep does, in the
//! order and at the `--jobs` the command does it (`replay.<command>`
//! groups — their leaves are what `harness.layer_coverage` holds against
//! the command's own time), then times the serial entry points and the
//! read-side layers on the artifacts the replay left. All of it runs on
//! the workload's own input, so every layer metric exists for every
//! workload; the README says which ones a workload's reps actually pay.
//!
//! The replay restates two things the CLI decides — which library calls
//! a command makes and with which options. Two checks keep it from
//! drifting when `crates/cli` changes: every file the replay produces
//! must equal, byte for byte, the one the CLI published from the same
//! input, and the traced run fails when the replay of a command accounts
//! for too little or too much of the command's own time
//! (`traced::COVERAGE`).

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use ute_analyze::{DiagOptions, LoadOptions};
use ute_convert::{convert_job_pooled, ConvertOptions};
use ute_core::error::Result as UteResult;
use ute_format::codecio::read_thread_table_file;
use ute_format::file::{FramePolicy, IntervalFileReader, IntervalFileWriter, MERGED_NODE};
use ute_format::profile::{Profile, MASK_MERGED};
use ute_format::record::Interval;
use ute_merge::{IvSource, LoserTreeMerge, MergeOptions};
use ute_rawtrace::file::RawTraceFile;
use ute_slog::builder::{BuildOptions, SlogBuilder};
use ute_slog::file::SlogFile;
use ute_store::{JournalRecord, RunJournal};
use ute_view::model::{build_view, ViewConfig};

use crate::harness::Error;
use crate::span::{Moved, Tracer};
use crate::summary::median;
use crate::workloads::{self, xorshift, Prepared, JOBS};

/// Scratch directory of the passes, inside the work directory.
const DIR: &str = "l";
/// Seeded frame look-ups behind `format.frame_seek_us`.
const FRAME_SEEKS: usize = 1000;
/// Journal appends behind `store.journal_append_us`.
const JOURNAL_APPENDS: usize = 32;

/// One pass's metric values, by metric name.
pub type PassMetrics = BTreeMap<&'static str, f64>;

/// Seconds under each `replay.<command>` group of one pass, by command
/// kind: the harness's model of where that command's time goes.
pub type ReplaySecs = BTreeMap<&'static str, f64>;

fn moved(records: u64, bytes_in: usize, bytes_out: usize) -> Moved {
    Moved {
        records,
        bytes_in: bytes_in as u64,
        bytes_out: bytes_out as u64,
    }
}

fn total_len(files: &[Vec<u8>]) -> usize {
    files.iter().map(Vec::len).sum()
}

fn per(secs: f64, n: u64) -> f64 {
    secs * 1e9 / n.max(1) as f64
}

/// The per-node interval files of [`DIR`], in node order.
fn read_ivl_files(nodes: usize) -> std::io::Result<Vec<Vec<u8>>> {
    (0..nodes)
        .map(|n| std::fs::read(Path::new(DIR).join(format!("trace.{n}.ivl"))))
        .collect()
}

/// Fails unless the replay produced exactly the file the CLI published
/// from the same input in the last rep.
fn same_as_published(p: &Prepared, name: &str, replayed: &[u8]) -> Result<(), Error> {
    let published = std::fs::read(Path::new(p.workload.ingest_dir()).join(name))?;
    if published != replayed {
        return Err(format!(
            "the replay's {name} ({} bytes) is not the one the CLI published ({} bytes): \
             src/layers.rs no longer does what the command does",
            replayed.len(),
            published.len()
        )
        .into());
    }
    Ok(())
}

/// Runs one pass over the input of `p`, recording spans into `t`.
pub fn pass(t: &mut Tracer, p: &Prepared) -> Result<(PassMetrics, ReplaySecs), Error> {
    let mut m = PassMetrics::new();
    let mut replay = ReplaySecs::new();
    let dir = Path::new(DIR);
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)?;
    let profile = Profile::standard();
    // What the commands run with when no flag is given: salvage on.
    let mopts = MergeOptions {
        salvage: true,
        ..MergeOptions::default()
    };

    // ---- The input: simulate, encode (what set-up and `pipe4` pay).
    let model = workloads::model(p.workload, p.seed, p.smoke)?;
    let (sim, s) = t.leaf("cluster", "cluster.simulate", || {
        let sim = workloads::simulate(model);
        let n = sim.as_ref().map_or(0, |s| s.stats.events_cut);
        (sim, moved(n, 0, 0))
    });
    let sim = sim?;
    let events = sim.stats.events_cut;
    let nodes = sim.raw_files.len();
    m.insert("cluster.simulate_s", s);
    m.insert("cluster.events_per_s", events as f64 / s);
    let (files, s) = t.leaf("rawtrace", "rawtrace.encode", || {
        let files = workloads::encode(&sim);
        let bytes = files
            .as_ref()
            .map_or(0, |f| f.iter().map(|(_, b)| b.len()).sum());
        (files, moved(events, 0, bytes))
    });
    let files = files?;
    drop(sim);
    let raw_bytes: usize = files
        .iter()
        .filter(|(n, _)| n.ends_with(".raw"))
        .map(|(_, b)| b.len())
        .sum();
    m.insert("rawtrace.encode_s", s);
    m.insert("rawtrace.bytes_per_event", raw_bytes as f64 / events as f64);
    // Written through to the device now, so that no later timed fsync
    // has this data to flush as well.
    for (name, bytes) in &files {
        ute_store::atomic_write(&dir.join(name), bytes)?;
    }
    drop(files);

    let mut atomic_write_s = 0.0;
    let mut atomic_write_files = 0u64;
    let mut hashed: Vec<Vec<u8>> = Vec::new();

    // ---- replay.convert: `ute convert --in DIR --jobs 2`.
    let mut intervals_out = 0u64;
    let raws = t.group("replay", "replay.convert", |t| -> Result<_, Error> {
        let mut sum = 0.0;
        let threads = read_thread_table_file(&dir.join("threads.utt"))?;
        let profile = Profile::read_from(&dir.join("profile.ute"))?;
        let (raws, s) = t.leaf("rawtrace", "rawtrace.decode", || {
            let r: UteResult<Vec<RawTraceFile>> = (0..nodes)
                .map(|n| {
                    let name = RawTraceFile::file_name("trace", ute_core::ids::NodeId(n as u16));
                    RawTraceFile::read_from_salvage(&dir.join(name)).map(|(f, _)| f)
                })
                .collect();
            (r, moved(events, raw_bytes, 0))
        });
        sum += s;
        let raws = raws?;
        m.insert("rawtrace.decode_s", s);
        m.insert("rawtrace.decode_ns_per_event", per(s, events));
        let copts = ConvertOptions {
            policy: FramePolicy::default(),
            lenient: true,
            salvage: true,
        };
        let (outs, s) = t.leaf("convert", "convert.job_j2", || {
            let r = convert_job_pooled(&raws, &threads, &profile, &copts, JOBS);
            let out = r
                .as_ref()
                .map_or(0, |o| o.iter().map(|o| o.interval_file.len()).sum());
            (r, moved(events, 0, out))
        });
        sum += s;
        let outs = outs?;
        m.insert("convert.job_j2_s", s);
        let (r, s) = t.leaf("store", "store.atomic_write", || {
            let r = outs.iter().try_for_each(|o| {
                ute_store::atomic_write(
                    &dir.join(format!("trace.{}.ivl", o.node.raw())),
                    &o.interval_file,
                )
            });
            let bytes = outs.iter().map(|o| o.interval_file.len()).sum();
            (r, moved(outs.len() as u64, 0, bytes))
        });
        r?;
        sum += s;
        atomic_write_s += s;
        atomic_write_files += outs.len() as u64;
        intervals_out = outs.iter().map(|o| o.stats.intervals_out).sum();
        for o in &outs {
            same_as_published(p, &format!("trace.{}.ivl", o.node.raw()), &o.interval_file)?;
        }
        hashed.extend(outs.into_iter().map(|o| o.interval_file));
        // The command ends by freeing its decoded events, one payload
        // each; a copy is freed here because the pass still needs them.
        let copy = raws.clone();
        let ((), s) = t.leaf("rawtrace", "rawtrace.drop", || {
            (drop(copy), moved(events, 0, 0))
        });
        sum += s;
        replay.insert("convert", sum);
        Ok((raws, threads, copts))
    })?;
    // The same conversion on one worker.
    let (raws, threads, copts) = raws;
    let (r, s) = t.leaf("convert", "convert.job", || {
        let r = convert_job_pooled(&raws, &threads, &profile, &copts, 1);
        (r.map(|_| ()), moved(events, 0, 0))
    });
    r?;
    m.insert("convert.job_s", s);
    m.insert("convert.ns_per_event", per(s, events));
    m.insert(
        "convert.intervals_per_event",
        intervals_out as f64 / events as f64,
    );
    drop((raws, threads));

    // ---- replay.merge: `ute merge --in DIR --out DIR/merged.ivl --jobs 2`.
    let merged = t.group("replay", "replay.merge", |t| -> Result<_, Error> {
        let mut sum = 0.0;
        let (ivl, s) = t.leaf("fs", "fs.read_ivl", || {
            let r = read_ivl_files(nodes);
            let n = r.as_ref().map_or(0, |f| total_len(f));
            (r, moved(0, n, 0))
        });
        sum += s;
        let ivl = ivl?;
        let refs: Vec<&[u8]> = ivl.iter().map(Vec::as_slice).collect();
        let (out, s) = t.leaf("pipeline", "pipeline.merge_files_j2", || {
            let r = ute_pipeline::merge_files_jobs(&refs, &profile, &mopts, JOBS);
            let (n, b) = r
                .as_ref()
                .map_or((0, 0), |o| (o.stats.records_out, o.merged.len()));
            (r, moved(n, total_len(&ivl), b))
        });
        sum += s;
        let out = out?;
        m.insert("pipeline.merge_files_j2_s", s);
        let (r, s) = t.leaf("store", "store.atomic_write", || {
            let r = ute_store::atomic_write(&dir.join("merged.ivl"), &out.merged);
            (r, moved(1, 0, out.merged.len()))
        });
        r?;
        sum += s;
        atomic_write_s += s;
        atomic_write_files += 1;
        replay.insert("merge", sum);
        same_as_published(p, "merged.ivl", &out.merged)?;
        Ok((out.merged, ivl))
    })?;
    // The serial entry point and its parts, over the same files.
    let (merged, ivl) = merged;
    {
        let refs: Vec<&[u8]> = ivl.iter().map(Vec::as_slice).collect();
        let (r, s) = t.leaf("merge", "merge.merge_files", || {
            let r = ute_merge::merge_files(&refs, &profile, &mopts);
            (r.map(|_| ()), moved(intervals_out, total_len(&ivl), 0))
        });
        r?;
        m.insert("merge.merge_files_s", s);
        m.insert(
            "pipeline.merge_speedup_j2",
            s / m["pipeline.merge_files_j2_s"],
        );
        let readers: Vec<IntervalFileReader> = refs
            .iter()
            .map(|f| IntervalFileReader::open(f, &profile))
            .collect::<UteResult<_>>()?;
        let (r, s) = t.leaf("merge", "merge.clockfit", || {
            let r = readers.iter().try_for_each(|r| {
                ute_merge::fit_node(r, &profile, mopts.estimator, mopts.filter_outliers).map(|_| ())
            });
            (r, moved(readers.len() as u64, 0, 0))
        });
        r?;
        m.insert("merge.clockfit_s", s);
        let (streams, s) = t.leaf("merge", "merge.adjust", || {
            let r: UteResult<Vec<Vec<Interval>>> = readers
                .iter()
                .map(|r| {
                    let mut ivs = Vec::new();
                    ute_merge::adjust_node(r, &profile, &mopts, |iv| {
                        ivs.push(iv);
                        Ok(())
                    })?;
                    Ok(ivs)
                })
                .collect();
            (r, moved(intervals_out, 0, 0))
        });
        let streams = streams?;
        m.insert("merge.adjust_s", s);
        let sources: Vec<IvSource> = streams.into_iter().map(IvSource::new).collect();
        let (n, s) = t.leaf("merge", "merge.kway", || {
            let n = LoserTreeMerge::new(sources).count() as u64;
            (n, moved(n, 0, 0))
        });
        m.insert("merge.kway_s", s);
        m.insert("merge.kway_ns_per_record", per(s, n));
    }

    // ---- replay.slogmerge: `ute slogmerge --in DIR --out DIR/run.slog --jobs 2`.
    let slog_bytes = t.group(
        "replay",
        "replay.slogmerge",
        |t| -> Result<Vec<u8>, Error> {
            let mut sum = 0.0;
            let (ivl, s) = t.leaf("fs", "fs.read_ivl", || {
                let r = read_ivl_files(nodes);
                let n = r.as_ref().map_or(0, |f| total_len(f));
                (r, moved(0, n, 0))
            });
            sum += s;
            let ivl = ivl?;
            let refs: Vec<&[u8]> = ivl.iter().map(Vec::as_slice).collect();
            let build = BuildOptions::default();
            let (slog, s) = t.leaf("pipeline", "pipeline.slogmerge_j2", || {
                let r = ute_pipeline::slogmerge_jobs(&refs, &profile, &mopts, build, JOBS);
                let n = r.as_ref().map_or(0, |(s, _)| s.total_records() as u64);
                (r, moved(n, total_len(&ivl), 0))
            });
            sum += s;
            let (slog, _) = slog?;
            m.insert("pipeline.slogmerge_j2_s", s);
            let (bytes, s) = t.leaf("slog", "slog.encode", || {
                let b = slog.to_bytes();
                let n = b.len();
                (b, moved(slog.total_records() as u64, 0, n))
            });
            sum += s;
            m.insert("slog.encode_s", s);
            m.insert(
                "slog.bytes_per_record",
                bytes.len() as f64 / slog.total_records().max(1) as f64,
            );
            let (r, s) = t.leaf("store", "store.atomic_write", || {
                let r = ute_store::atomic_write(&dir.join("run.slog"), &bytes);
                (r, moved(1, 0, bytes.len()))
            });
            r?;
            sum += s;
            atomic_write_s += s;
            atomic_write_files += 1;
            replay.insert("slogmerge", sum);
            same_as_published(p, "run.slog", &bytes)?;
            Ok(bytes)
        },
    )?;
    {
        let refs: Vec<&[u8]> = ivl.iter().map(Vec::as_slice).collect();
        let (r, s) = t.leaf("merge", "merge.slogmerge", || {
            let r = ute_merge::slogmerge(&refs, &profile, &mopts, BuildOptions::default());
            (r.map(|_| ()), moved(intervals_out, total_len(&ivl), 0))
        });
        r?;
        m.insert("merge.slogmerge_s", s);
    }
    drop(ivl);
    m.insert("store.atomic_write_s", atomic_write_s);
    m.insert("store.atomic_write_files", atomic_write_files as f64);

    // ---- replay.stats: `ute stats --merged DIR/merged.ivl`.
    let intervals = t.group(
        "replay",
        "replay.stats",
        |t| -> Result<Vec<Interval>, Error> {
            let mut sum = 0.0;
            let (bytes, s) = t.leaf("fs", "fs.read_merged", || {
                let r = std::fs::read(dir.join("merged.ivl"));
                let n = r.as_ref().map_or(0, Vec::len);
                (r, moved(0, n, 0))
            });
            sum += s;
            let bytes = bytes?;
            let reader = IntervalFileReader::open(&bytes, &profile)?;
            let (ivs, s) = t.leaf("format", "format.decode", || {
                let r: UteResult<Vec<Interval>> = reader.intervals().collect();
                let n = r.as_ref().map_or(0, Vec::len) as u64;
                (r, moved(n, bytes.len(), 0))
            });
            sum += s;
            let ivs = ivs?;
            let rows = ivs.len() as u64;
            m.insert("format.decode_s", s);
            m.insert("format.decode_ns_per_record", per(s, rows));
            m.insert(
                "format.bytes_per_record",
                bytes.len() as f64 / rows.max(1) as f64,
            );
            let specs = ute_stats::predefined::predefined_tables();
            let (tables, s) = t.leaf("stats", "stats.run_tables", || {
                (
                    ute_stats::run_tables(&specs, &profile, &ivs),
                    moved(rows, 0, 0),
                )
            });
            sum += s;
            tables?;
            m.insert("stats.run_tables_s", s);
            m.insert("stats.ns_per_record", per(s, rows));
            // As in replay.convert: the command frees what it decoded.
            let copy = ivs.clone();
            let ((), s) = t.leaf("format", "format.drop", || (drop(copy), moved(rows, 0, 0)));
            sum += s;
            replay.insert("stats", sum);
            Ok(ivs)
        },
    )?;
    let rows = intervals.len() as u64;

    // ---- format, write side and random access, on the merged stream.
    let reader = IntervalFileReader::open(&merged, &profile)?;
    let (r, s) = t.leaf("format", "format.encode", || {
        let mut w = IntervalFileWriter::new(
            &profile,
            MASK_MERGED,
            MERGED_NODE,
            &reader.threads,
            &reader.markers,
            FramePolicy::default(),
        );
        let r = intervals.iter().try_for_each(|iv| w.push(iv));
        let n = w.finish().len();
        (r, moved(rows, 0, n))
    });
    r?;
    m.insert("format.encode_s", s);
    m.insert("format.encode_ns_per_record", per(s, rows));
    let (t0, t1) = reader.time_span()?.unwrap_or((0, 1));
    let mut seek_us = Vec::with_capacity(FRAME_SEEKS);
    let (r, _) = t.leaf("format", "format.frame_seek", || {
        let mut x = p.seed ^ 0x5ee4_5ee4_5ee4_5ee4;
        let r = (0..FRAME_SEEKS).try_for_each(|_| -> UteResult<()> {
            x = xorshift(x);
            let at = t0 + x % (t1 - t0).max(1);
            let start = Instant::now();
            if let Some(entry) = reader.find_frame(at)? {
                std::hint::black_box(reader.frame_intervals(&entry)?);
            }
            seek_us.push(start.elapsed().as_secs_f64() * 1e6);
            Ok(())
        });
        (r, moved(FRAME_SEEKS as u64, 0, 0))
    });
    r?;
    m.insert("format.frame_seek_us", median(&seek_us));

    // ---- slog: build from the merged stream, decode from bytes.
    let (r, s) = t.leaf("slog", "slog.build", || {
        let r = SlogBuilder::new(&profile, BuildOptions::default()).build(
            &intervals,
            &reader.threads,
            &reader.markers,
        );
        (r.map(|_| ()), moved(rows, 0, 0))
    });
    r?;
    m.insert("slog.build_s", s);
    m.insert("slog.build_ns_per_record", per(s, rows));
    drop(intervals);
    let (slog, s) = t.leaf("slog", "slog.decode", || {
        (
            SlogFile::from_bytes(&slog_bytes),
            moved(0, slog_bytes.len(), 0),
        )
    });
    let slog = slog?;
    m.insert("slog.decode_s", s);

    // ---- replay.analyze_all: `ute analyze DIR --all --json`.
    let dopts = DiagOptions::default();
    let merged_path = dir.join("merged.ivl");
    t.group("replay", "replay.analyze_all", |t| -> Result<(), Error> {
        let mut sum = 0.0;
        let (table, s) = t.leaf("analyze", "analyze.load_table", || {
            let r = ute_analyze::load_table(&merged_path, &profile, &LoadOptions::default());
            let n = r.as_ref().map_or(0, |t| t.len()) as u64;
            (r, moved(n, merged.len(), 0))
        });
        sum += s;
        let table = table?;
        m.insert("analyze.load_table_s", s);
        type Diag = fn(&ute_analyze::TraceTable, &DiagOptions) -> Vec<ute_analyze::Finding>;
        let diags: [(&'static str, &'static str, Diag); 4] = [
            (
                "analyze.late_sender",
                "analyze.late_sender_s",
                ute_analyze::late_sender::late_sender,
            ),
            (
                "analyze.imbalance",
                "analyze.imbalance_s",
                ute_analyze::imbalance::imbalance,
            ),
            (
                "analyze.comm_pattern",
                "analyze.comm_pattern_s",
                ute_analyze::comm_pattern::comm_pattern,
            ),
            (
                "analyze.critical_path",
                "analyze.critical_path_s",
                ute_analyze::critical_path::critical_path,
            ),
        ];
        for (span, metric, f) in diags {
            let ((), s) = t.leaf("analyze", span, || {
                let found = f(&table, &dopts).len() as u64;
                ((), moved(found, 0, 0))
            });
            sum += s;
            m.insert(metric, s);
        }
        replay.insert("analyze_all", sum);
        Ok(())
    })?;
    let tenth = (t1 - t0) / 10;
    let window = (t0 + 4 * tenth, t0 + 5 * tenth);
    let (r, s) = t.leaf("analyze", "analyze.load_window", || {
        let load = LoadOptions {
            window: Some(window),
            nodes: None,
        };
        let r = ute_analyze::load_table(&merged_path, &profile, &load);
        let n = r.as_ref().map_or(0, |t| t.len()) as u64;
        (r.map(|_| ()), moved(n, 0, 0))
    });
    r?;
    m.insert("analyze.load_window_s", s);

    // ---- view: one windowed diagram and the preview, as SVG.
    let cfg = ViewConfig {
        window: Some(window),
        ..ViewConfig::default()
    };
    let (view, s) = t.leaf("view", "view.build", || {
        let r = build_view(&slog, &cfg);
        (r, moved(0, 0, 0))
    });
    let view = view?;
    m.insert("view.build_s", s);
    let ((), s) = t.leaf("view", "view.svg", || {
        let svg = ute_view::svg::render(&view, &ute_view::svg::SvgOptions::default());
        ((), moved(0, 0, svg.len()))
    });
    m.insert("view.svg_s", s);
    let ((), s) = t.leaf("view", "view.preview", || {
        let svg = ute_view::preview::render_svg(&slog.preview, 600, 120);
        ((), moved(0, 0, svg.len()))
    });
    m.insert("view.preview_s", s);

    // ---- store: content hashing over every artifact of the pass, and
    // the journal's fsync'd appends.
    hashed.push(merged);
    hashed.push(slog_bytes);
    let hashed_len = total_len(&hashed);
    let (h, s) = t.leaf("store", "store.fnv64", || {
        let h = hashed.iter().fold(0u64, |h, b| h ^ ute_store::fnv64(b));
        (h, moved(hashed.len() as u64, hashed_len, 0))
    });
    std::hint::black_box(h);
    m.insert("store.fnv64_s", s);
    m.insert("store.fnv64_gb_per_s", hashed_len as f64 / 1e9 / s);
    drop(hashed);
    let jdir = dir.join("j");
    std::fs::create_dir_all(&jdir)?;
    let mut append_us = Vec::with_capacity(JOURNAL_APPENDS);
    let (r, _) = t.leaf("store", "store.journal_append", || {
        let r = (|| -> Result<(), ute_store::StoreError> {
            let mut journal = RunJournal::create(&jdir, &[("workload".into(), "bench".into())])?;
            for i in 0..JOURNAL_APPENDS {
                let rec = JournalRecord::StageStart {
                    stage: format!("stage{i}"),
                };
                let start = Instant::now();
                journal.append(&rec)?;
                append_us.push(start.elapsed().as_secs_f64() * 1e6);
            }
            Ok(())
        })();
        (r, moved(JOURNAL_APPENDS as u64, 0, 0))
    });
    r?;
    m.insert("store.journal_append_us", median(&append_us));

    // `ute pipeline` is the four stages after a simulate and an encode,
    // every artifact hashed once on its way through the store.
    let stages: f64 = ["convert", "merge", "slogmerge", "stats"]
        .iter()
        .map(|k| replay[k])
        .sum();
    replay.insert(
        "pipeline",
        m["cluster.simulate_s"] + m["rawtrace.encode_s"] + stages + m["store.fnv64_s"],
    );

    std::fs::remove_dir_all(dir)?;
    Ok((m, replay))
}
