//! The ingest family: `trace`, `convert`, `merge`, `slogmerge`, `stats`,
//! `clockfit`, `corrupt` and `scenario`, the trace-directory loaders
//! under them, and the typed stage functions `ute pipeline` runs through
//! [`crate::stages`].

use std::path::{Path, PathBuf};

use ute_clock::ratio::RatioEstimator;
use ute_cluster::Simulator;
use ute_convert::{convert_nodes, ConvertOptions, ConvertOutput, RawRecords};
use ute_core::error::{PathContext, Result, UteError};
use ute_core::ids::NodeId;
use ute_core::mmap::{map_file, FileBytes};
use ute_faults::FaultPlan;
use ute_format::codecio::{read_thread_table_file, thread_table_to_bytes};
use ute_format::file::{FramePolicy, IntervalFileReader};
use ute_format::profile::Profile;
use ute_format::thread_table::ThreadTable;
use ute_merge::{merge_files_jobs, slog_of_merged, slogmerge_jobs, MergeOptions};
use ute_rawtrace::file::{map_raw_file, RawTraceFile, HEADER_LEN};
use ute_rawtrace::view::{salvage_views, RawTraceView, SalvagedViews};
use ute_slog::builder::BuildOptions;
use ute_slog::file::SlogFile;
use ute_stats::predefined::predefined_tables;
use ute_stats::{parse_program, run_tables_over};
use ute_workloads::{flash, micro, patterns, scaling, sppm, Workload};

use crate::{stages, Args};

/// The fault plan of `--fault-plan SPEC` or `--fault-seed N` (seeded
/// plans need the node count); an explicit plan wins.
pub(crate) fn fault_plan(
    spec: Option<&str>,
    seed: Option<u64>,
    nodes: u16,
) -> Result<Option<FaultPlan>> {
    match spec {
        Some(spec) => Ok(Some(FaultPlan::parse(spec)?)),
        None => Ok(seed.map(|s| FaultPlan::from_seed(s, nodes))),
    }
}

pub(crate) fn workload_by_name(name: &str, iterations: u32) -> Result<Workload> {
    // `scenario:SEED` expands a generated scenario anywhere a workload
    // name is accepted (`ute pipeline --workload scenario:42 ...`).
    if let Some(seed) = name.strip_prefix("scenario:") {
        let seed: u64 = seed
            .parse()
            .map_err(|_| UteError::Invalid(format!("bad scenario seed in `{name}`")))?;
        return scenario_workload(&ute_scenario::ScenarioSpec::from_seed(seed));
    }
    // `torture:SEED` is the 256+-node merge stress preset.
    if let Some(seed) = name.strip_prefix("torture:") {
        let seed: u64 = seed
            .parse()
            .map_err(|_| UteError::Invalid(format!("bad torture seed in `{name}`")))?;
        return scenario_workload(&ute_scenario::ScenarioSpec::torture(seed));
    }
    Ok(match name {
        "sppm" => sppm::workload(sppm::SppmParams::default()),
        "flash" => flash::workload(flash::FlashParams::default()),
        "pingpong" => micro::ping_pong(32, 1 << 14),
        "stencil" => micro::stencil(4, 16, 1 << 12),
        "allreduce" => micro::allreduce_sweep(4, 10),
        "wavefront" => patterns::wavefront(6, 12, 4096),
        "sendrecv" => micro::sendrecv_shift(4, 12, 4096),
        "masterworker" => patterns::master_worker(4, 8, 8192),
        "straggler" => micro::straggler(4, 8, 2, 4),
        "scaling" => scaling::scaled_job(iterations),
        other => {
            return Err(UteError::Invalid(format!(
                "unknown workload `{other}` \
                 (sppm|flash|pingpong|stencil|allreduce|wavefront|sendrecv|masterworker|\
                 straggler|scaling|scenario:SEED|torture:SEED)"
            )))
        }
    })
}

/// Expands a scenario spec into a [`Workload`]. The name is leaked: a
/// handful of scenario names per process, each a few bytes, in exchange
/// for keeping `Workload::name` a `&'static str` everywhere else.
fn scenario_workload(spec: &ute_scenario::ScenarioSpec) -> Result<Workload> {
    let sc = ute_scenario::generate(spec)?;
    Ok(Workload {
        name: Box::leak(format!("scenario_{}", spec.seed).into_boxed_str()),
        config: sc.config,
        job: sc.job,
    })
}

fn estimator_by_name(name: &str) -> Result<RatioEstimator> {
    Ok(match name {
        "rms" => RatioEstimator::RmsSegments,
        "rmsall" => RatioEstimator::RmsAllSlopes,
        "last" => RatioEstimator::LastPair,
        "piecewise" => RatioEstimator::Piecewise,
        other => {
            return Err(UteError::Invalid(format!(
                "unknown estimator `{other}` (rms|rmsall|last|piecewise)"
            )))
        }
    })
}

/// `ute trace`: run a workload, writing raw trace files, the thread
/// table, and the standard profile into `--out`.
///
/// `--fault-seed N` (or `--fault-plan SPEC`) injects deterministic
/// faults: buffer-level kinds (dropped flushes, clock jumps) act inside
/// the tracing buffers during the run; byte-level kinds (truncation,
/// bit flips, overrun splices) mutate the raw bytes as they are
/// written; a `missing` fault suppresses the node's file entirely.
pub(crate) fn cmd_trace(args: &Args) -> Result<String> {
    let _span = ute_obs::Span::stage("trace");
    let name = args.require("workload")?;
    let iterations = args.num("iterations", 256u32)?;
    let out = PathBuf::from(args.require("out")?);
    let w = workload_by_name(name, iterations)?;
    let plan = fault_plan(
        args.get("fault-plan"),
        args.opt_num("fault-seed")?,
        w.config.nodes,
    )?;
    run_and_write_trace(name.to_string(), w, plan, &out)
}

/// Simulates a workload and writes its raw trace files, thread table,
/// and profile into `out`, applying an optional fault plan — the trace
/// stage shared by `ute trace`, `ute pipeline`, and `ute scenario`.
/// `name` is the user-facing label for the run (the CLI-typed workload
/// name, or `scenario seed N`).
fn run_and_write_trace(
    name: String,
    w: Workload,
    plan: Option<FaultPlan>,
    out: &Path,
) -> Result<String> {
    std::fs::create_dir_all(out).in_file(out)?;
    let so = trace_outputs(&name, w, plan)?;
    stages::publish_plain(out, &so)?;
    Ok(so.msg)
}

/// The trace stage as pure data: simulate, apply the fault plan, and
/// return every artifact as bytes — `threads.utt` and `profile.ute`
/// included. Nothing touches the filesystem; the caller decides whether
/// to publish plainly ([`stages::publish_plain`]) or through the run
/// journal's atomic commit protocol.
pub(crate) fn trace_outputs(
    name: &str,
    mut w: Workload,
    plan: Option<FaultPlan>,
) -> Result<stages::StageOutput> {
    if let Some(plan) = &plan {
        w.config.trace.faults = Some(plan.clone());
    }
    let res = {
        let _span = ute_obs::Span::enter("trace", format!("simulate {name}"));
        Simulator::new(w.config, &w.job)?.run_bytes()?
    };
    let nodes = res.raw_bytes.len();
    let mut faulted = 0usize;
    let mut suppressed = 0usize;
    let mut artifacts = Vec::new();
    let mut removes = Vec::new();
    for (node, bytes) in (0u16..).zip(res.raw_bytes) {
        let fname = RawTraceFile::file_name("trace", NodeId(node));
        match &plan {
            None => artifacts.push((fname, bytes)),
            Some(plan) => {
                if plan.for_node(node).next().is_some() {
                    faulted += 1;
                }
                match plan.apply_to_file(node, bytes, HEADER_LEN) {
                    Some(bytes) => artifacts.push((fname, bytes)),
                    None => {
                        suppressed += 1;
                        // A stale file from a previous run would mask
                        // the missing-node fault.
                        removes.push(fname);
                    }
                }
            }
        }
    }
    artifacts.push((
        "threads.utt".to_string(),
        thread_table_to_bytes(&res.threads),
    ));
    artifacts.push(("profile.ute".to_string(), Profile::standard().to_bytes()));
    let mut msg = format!(
        "traced {name}: {nodes} nodes, {} records, {:.6}s simulated, overhead {}\n",
        res.stats.events_cut,
        res.stats.end_time.as_secs_f64(),
        res.stats.trace_overhead,
    );
    if let Some(plan) = &plan {
        msg.push_str(&format!(
            "injected faults [{plan}]: {faulted} nodes faulted, {suppressed} files suppressed\n"
        ));
    }
    Ok(stages::StageOutput {
        artifacts,
        removes,
        msg,
    })
}

/// Finds the node numbers for which `<prefix>.<N>.<ext>` exists in
/// `dir`, sorted. Unlike a break-at-first-hole scan, this sees files
/// *past* a missing node: salvage mode ingests them, strict mode names
/// the hole.
pub(crate) fn scan_node_files(dir: &Path, prefix: &str, ext: &str) -> Result<Vec<u16>> {
    let mut nodes = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix(prefix).and_then(|r| r.strip_prefix('.')) else {
            continue;
        };
        let Some(num) = rest.strip_suffix(ext).and_then(|r| r.strip_suffix('.')) else {
            continue;
        };
        if let Ok(n) = num.parse::<u16>() {
            nodes.push(n);
        }
    }
    nodes.sort_unstable();
    nodes.dedup();
    Ok(nodes)
}

/// Nodes absent from the contiguous range `0..=max(present)`.
fn missing_nodes(present: &[u16]) -> Vec<u16> {
    match present.last() {
        None => Vec::new(),
        Some(&max) => (0..=max).filter(|n| !present.contains(n)).collect(),
    }
}

/// The nodes with a `trace.N.<ext>` in `dir` and those missing from the
/// numbering. Strict mode has no holes: the first is a `NotFound`.
fn scan_trace_files(dir: &Path, ext: &str, salvage: bool) -> Result<(Vec<u16>, Vec<u16>)> {
    let present = scan_node_files(dir, "trace", ext)?;
    let lost = missing_nodes(&present);
    match lost.first() {
        Some(node) if !salvage => Err(UteError::NotFound(format!(
            "trace.{node}.{ext} in {} (a missing node is an error under --strict)",
            dir.display()
        ))),
        _ => Ok((present, lost)),
    }
}

/// One present node of a trace directory, its raw file and the file's
/// bytes (or why they could not be mapped).
type RawFile = (u16, PathBuf, Result<FileBytes>);

/// What a trace directory's raw files are read with: its thread table,
/// its profile, each raw file mapped whole (nothing decoded yet), and
/// the nodes missing from the numbering. Strict mode stops mapping at
/// the first file it cannot map.
fn load_raw_dir(
    dir: &Path,
    salvage: bool,
) -> Result<(ThreadTable, Profile, Vec<RawFile>, Vec<u16>)> {
    let threads = read_thread_table_file(&dir.join("threads.utt"))?;
    let profile = Profile::read_from(&dir.join("profile.ute"))?;
    let (present, lost) = scan_trace_files(dir, "raw", salvage)?;
    let mut files = Vec::new();
    for node in present {
        let path = dir.join(RawTraceFile::file_name("trace", NodeId(node)));
        let bytes = map_raw_file(&path);
        let unmapped = bytes.is_err();
        files.push((node, path, bytes));
        if unmapped && !salvage {
            break;
        }
    }
    Ok((threads, profile, files, lost))
}

/// Strict reading: every file must hold its declared records whole. The
/// first file in node order that cannot be mapped or opened is the
/// error, named — a file that opens is read before a later one that
/// failed to map, as reading file by file would.
fn strict_views(files: &mut Vec<RawFile>) -> Result<Vec<RawTraceView<'_>>> {
    // The loader stopped at the first file it could not map: every file
    // before it mapped.
    let unmapped = files.pop_if(|(_, _, bytes)| bytes.is_err());
    let mut views = Vec::with_capacity(files.len());
    for (_, path, bytes) in files.iter() {
        let _span = ute_obs::Span::enter("rawtrace", format!("read {}", path.display()));
        if let Ok(bytes) = bytes {
            views.push(RawTraceView::open(bytes).in_file(path)?);
        }
    }
    match unmapped {
        Some((_, path, Err(e))) => Err(e).in_file(&path),
        _ => Ok(views),
    }
}

/// Salvage reading: each file yields what its resync scan recovers, a
/// warning naming any damage; a file that cannot be mapped, or whose
/// header is gone, is dropped with a warning and its node joins `lost`.
fn salvaged_views(files: &[RawFile], mut lost: Vec<u16>) -> (Vec<SalvagedViews<'_>>, Vec<u16>) {
    let mut views = Vec::with_capacity(files.len());
    for (node, p, bytes) in files {
        let _span = ute_obs::Span::enter("rawtrace", format!("salvage read {}", p.display()));
        let read = match bytes {
            Ok(bytes) => salvage_views(bytes).map_err(|e| e.to_string()),
            Err(e) => Err(e.to_string()),
        };
        match read {
            Ok(sv) => {
                let report = &sv.report;
                if !report.is_clean() {
                    eprintln!(
                        "ute: warning: salvage: {}: kept {} records, skipped {} \
                         ({} bytes, {} resyncs{})",
                        p.display(),
                        report.records,
                        report.records_skipped,
                        report.bytes_skipped,
                        report.resyncs,
                        if report.truncated_tail {
                            ", truncated tail"
                        } else {
                            ""
                        },
                    );
                }
                views.push(sv);
            }
            Err(e) => {
                eprintln!("ute: warning: salvage: dropping {}: {e}", p.display());
                lost.push(*node);
            }
        }
    }
    lost.sort_unstable();
    (views, lost)
}

/// What every ingest stage reads: the trace directory, the worker count,
/// and whether damaged input degrades (salvage) or fails (`--strict`).
/// The commands build it from their row-checked [`Args`]; `ute pipeline`
/// and `ute scenario` build it from the values they already hold.
pub(crate) struct Ingest {
    pub dir: PathBuf,
    pub jobs: usize,
    pub salvage: bool,
}

impl Ingest {
    fn from_args(args: &Args) -> Result<Ingest> {
        Ok(Ingest {
            dir: PathBuf::from(args.require("in")?),
            jobs: args.jobs()?,
            salvage: args.salvage(),
        })
    }
}

/// `ute convert`: raw trace files → per-node interval files. Salvages
/// corrupt raw files by default (`--strict` restores fail-fast): the
/// decoder resynchronizes on the next valid hookword after a corrupt
/// record, and states left open by a truncated stream become synthetic
/// truncated intervals.
pub(crate) fn cmd_convert(args: &Args) -> Result<String> {
    convert(&Ingest::from_args(args)?)
}

/// The convert stage, published in place without a journal.
fn convert(ing: &Ingest) -> Result<String> {
    let _span = ute_obs::Span::stage("convert");
    let so = convert_outputs(ing)?;
    stages::publish_plain(&ing.dir, &so)?;
    Ok(so.msg)
}

/// Converts what a trace directory's raw files were read into: views
/// over each file's mapping go straight to the matcher.
fn convert_views<R: RawRecords>(
    views: &[R],
    ing: &Ingest,
    threads: &ThreadTable,
    profile: &Profile,
) -> Result<Vec<ConvertOutput>> {
    if views.is_empty() {
        return Err(UteError::NotFound(format!(
            "no trace.N.raw files in {}",
            ing.dir.display()
        )));
    }
    let copts = ConvertOptions {
        policy: FramePolicy::default(),
        lenient: ing.salvage,
        salvage: ing.salvage,
    };
    convert_nodes(views, threads, profile, &copts, ing.jobs)
}

/// The convert stage as pure data (see [`trace_outputs`]).
pub(crate) fn convert_outputs(ing: &Ingest) -> Result<stages::StageOutput> {
    let load = ute_obs::Span::enter("rawtrace", format!("load {}", ing.dir.display()));
    let (threads, profile, mut files, lost) = load_raw_dir(&ing.dir, ing.salvage)?;
    let (outputs, lost) = if ing.salvage {
        let (views, lost) = salvaged_views(&files, lost);
        drop(load);
        (convert_views(&views, ing, &threads, &profile)?, lost)
    } else {
        let views = strict_views(&mut files)?;
        drop(load);
        (convert_views(&views, ing, &threads, &profile)?, lost)
    };
    let mut msg = String::new();
    let mut artifacts = Vec::new();
    for o in outputs {
        msg.push_str(&format!(
            "node {}: {} events → {} intervals ({} bytes)\n",
            o.node,
            o.stats.events_in,
            o.stats.intervals_out,
            o.interval_file.len()
        ));
        artifacts.push((format!("trace.{}.ivl", o.node.raw()), o.interval_file));
    }
    if !lost.is_empty() {
        msg.push_str(&format!(
            "salvage: {} node(s) unreadable or missing: {:?}\n",
            lost.len(),
            lost
        ));
    }
    Ok(stages::StageOutput {
        artifacts,
        removes: Vec::new(),
        msg,
    })
}

/// What [`load_interval_files`] found: the path and the bytes of each
/// file (index for index, so a merge error can name its file), and the
/// nodes lost.
type IntervalFiles = (Vec<PathBuf>, Vec<FileBytes>, Vec<u16>);

/// Loads the per-node interval files of `dir`. The nodes lost are holes
/// and unreadable files, which strict mode fails on instead.
fn load_interval_files(dir: &Path, salvage: bool) -> Result<IntervalFiles> {
    let _span = ute_obs::Span::enter("format", format!("read {}/trace.N.ivl", dir.display()));
    let (present, mut lost) = scan_trace_files(dir, "ivl", salvage)?;
    let mut paths = Vec::new();
    let mut files = Vec::new();
    for &node in &present {
        let p = dir.join(format!("trace.{node}.ivl"));
        match map_file(&p) {
            Ok(bytes) => {
                paths.push(p);
                files.push(bytes);
            }
            Err(e) if salvage => {
                eprintln!("ute: warning: salvage: dropping {}: {e}", p.display());
                lost.push(node);
            }
            Err(e) => return Err(e).in_file(&p),
        }
    }
    lost.sort_unstable();
    if files.is_empty() {
        return Err(UteError::NotFound(format!(
            "no trace.N.ivl files in {} (run `ute convert` first)",
            dir.display()
        )));
    }
    Ok((paths, files, lost))
}

/// The clock-fit choices `merge`, `slogmerge` and `clockfit` share.
fn merge_options(args: &Args) -> Result<MergeOptions> {
    Ok(MergeOptions {
        estimator: estimator_by_name(args.get("estimator").unwrap_or("rms"))?,
        filter_outliers: !args.has("no-filter"),
        ..MergeOptions::default()
    })
}

/// `ute merge`: per-node interval files → one merged interval file.
///
/// Salvage mode (the default; `--strict` restores fail-fast) proceeds
/// when a node's file is missing or unreadable: the node is dropped,
/// a zero-duration Gap pseudo-record marks it in the merged output,
/// and `salvage/nodes_degraded` counts it. This command is the single
/// place that counter is bumped, so standalone `ute merge` then
/// `ute slogmerge` over one directory count each degraded node once.
pub(crate) fn cmd_merge(args: &Args) -> Result<String> {
    let out = Path::new(args.require("out")?);
    merge(&Ingest::from_args(args)?, merge_options(args)?, out)
}

/// The merge stage, written to `out` without a journal.
fn merge(ing: &Ingest, opts: MergeOptions, out: &Path) -> Result<String> {
    let _span = ute_obs::Span::stage("merge");
    let (bytes, msg) = merge_outputs(ing, opts)?;
    ute_store::atomic_write(out, &bytes)?;
    Ok(msg)
}

/// The merge stage as pure data: the merged file's bytes plus the
/// message. `opts` carries the clock-fit choices; salvage and the gap
/// nodes come from `ing` and the load. Counter bumps
/// (`salvage/nodes_degraded`) happen here — once per merge, wherever
/// the bytes end up.
pub(crate) fn merge_outputs(ing: &Ingest, opts: MergeOptions) -> Result<(Vec<u8>, String)> {
    let profile = Profile::read_from(&ing.dir.join("profile.ute"))?;
    let (paths, files, lost) = load_interval_files(&ing.dir, ing.salvage)?;
    let refs: Vec<&[u8]> = files.iter().map(|f| &f[..]).collect();
    let opts = MergeOptions {
        salvage: ing.salvage,
        gap_nodes: lost.clone(),
        ..opts
    };
    let merged =
        merge_files_jobs(&refs, &profile, &opts, ing.jobs).map_err(|e| e.name_input(&paths))?;
    let degraded = lost.len() as u64 + merged.stats.nodes_degraded;
    if degraded > 0 {
        ute_obs::counter("salvage/nodes_degraded").add(degraded);
    }
    let mut msg = format!(
        "merged {} files: {} records in, {} out ({} pseudo)\n",
        files.len(),
        merged.stats.records_in,
        merged.stats.records_out,
        merged.stats.pseudo_added
    );
    if degraded > 0 {
        msg.push_str(&format!(
            "salvage: {degraded} node(s) degraded ({} missing at load, {} dropped in merge)\n",
            lost.len(),
            merged.stats.nodes_degraded
        ));
    }
    for f in &merged.stats.fits {
        msg.push_str(&format!(
            "  node {}: ratio {:.9} from {} samples\n",
            f.node,
            f.fit.ratio(),
            f.samples_used
        ));
    }
    Ok((merged.merged, msg))
}

/// `ute slogmerge`: per-node interval files → a SLOG file. Salvage
/// semantics match `ute merge`, except degraded nodes are not counted
/// again (see [`cmd_merge`]) and the SLOG carries no gap records — a
/// missing node simply has no timelines.
pub(crate) fn cmd_slogmerge(args: &Args) -> Result<String> {
    let out = Path::new(args.require("out")?);
    let build = BuildOptions {
        nframes: args.num("frames", 64usize)?,
        preview_bins: args.num("bins", 128u32)?,
        arrows: !args.has("no-arrows"),
    };
    slogmerge(&Ingest::from_args(args)?, merge_options(args)?, build, out)
}

/// The slogmerge stage, written to `out` without a journal.
fn slogmerge(ing: &Ingest, opts: MergeOptions, build: BuildOptions, out: &Path) -> Result<String> {
    let _span = ute_obs::Span::stage("slogmerge");
    let (bytes, msg) = slogmerge_outputs(ing, opts, build)?;
    ute_store::atomic_write(out, &bytes)?;
    Ok(msg)
}

/// The standalone slogmerge stage as pure data (see [`merge_outputs`]):
/// the per-node files merged again, straight into the SLOG builder.
fn slogmerge_outputs(
    ing: &Ingest,
    opts: MergeOptions,
    build: BuildOptions,
) -> Result<(Vec<u8>, String)> {
    let profile = Profile::read_from(&ing.dir.join("profile.ute"))?;
    let (paths, files, _lost) = load_interval_files(&ing.dir, ing.salvage)?;
    let refs: Vec<&[u8]> = files.iter().map(|f| &f[..]).collect();
    let opts = MergeOptions {
        salvage: ing.salvage,
        ..opts
    };
    let (slog, stats) = slogmerge_jobs(&refs, &profile, &opts, build, ing.jobs)
        .map_err(|e| e.name_input(&paths))?;
    Ok(slog_message(stats.records_in, stats.records_out, &slog))
}

/// The slogmerge stage of `ute pipeline`: `run.slog` built from the
/// `merged.ivl` the merge stage published under `opts` — one merge per
/// run, the bytes standalone `ute slogmerge` writes.
pub(crate) fn slog_of_merged_outputs(
    dir: &Path,
    opts: MergeOptions,
    build: BuildOptions,
) -> Result<(Vec<u8>, String)> {
    let profile = Profile::read_from(&dir.join("profile.ute"))?;
    let path = dir.join("merged.ivl");
    let merged = map_file(&path).in_file(&path)?;
    let reader = IntervalFileReader::open(&merged, &profile).in_file(&path)?;
    let (slog, records) = slog_of_merged(&reader, &profile, &opts, build)?;
    // With no thread filter, every record the merge read is in its stream.
    Ok(slog_message(records, records, &slog))
}

/// The slogmerge stage's bytes and message.
fn slog_message(records_in: u64, merged: u64, slog: &SlogFile) -> (Vec<u8>, String) {
    let msg = format!(
        "slogmerge: {records_in} records in, {merged} merged, {} frames, {} slog records\n",
        slog.frames.len(),
        slog.total_records()
    );
    (slog.to_bytes(), msg)
}

/// The files `ute stats` reads and writes. Only `merged` is required:
/// the profile defaults to `profile.ute` beside it, the program to the
/// predefined tables, and without `out` nothing is written.
#[derive(Default)]
pub(crate) struct StatsPaths {
    pub merged: PathBuf,
    pub profile: Option<PathBuf>,
    pub program: Option<PathBuf>,
    pub out: Option<PathBuf>,
}

/// `ute stats`: run the statistics utility over a merged interval file.
pub(crate) fn cmd_stats(args: &Args) -> Result<String> {
    let path = |key| args.get(key).map(PathBuf::from);
    stats(&StatsPaths {
        merged: PathBuf::from(args.require("merged")?),
        profile: path("profile"),
        program: path("program"),
        out: path("out"),
    })
}

/// The stats stage outside a journal.
fn stats(paths: &StatsPaths) -> Result<String> {
    let _span = ute_obs::Span::stage("stats");
    stats_output(paths)
}

/// The stats stage's text (see [`trace_outputs`]); `out` tables are
/// written directly, not published. The tables are made in one walk over
/// the merged file's records where they lie, `bin` over the span its
/// frame directory states ([`run_tables_over`] checks it).
pub(crate) fn stats_output(paths: &StatsPaths) -> Result<String> {
    let open_span = ute_obs::Span::enter("format", "open merged file");
    let merged_path = paths.merged.as_path();
    let merged = map_file(merged_path).in_file(merged_path)?;
    let profile_path = paths.profile.clone().unwrap_or_else(|| {
        merged_path
            .parent()
            .unwrap_or(Path::new("."))
            .join("profile.ute")
    });
    let profile = Profile::read_from(&profile_path)?;
    let reader = IntervalFileReader::open(&merged, &profile).in_file(merged_path)?;
    drop(open_span);
    let walk = || reader.records().map(|rec| rec.in_file(merged_path));
    let specs = match &paths.program {
        Some(p) => std::fs::read_to_string(p)
            .map_err(UteError::from)
            .and_then(|text| parse_program(&text)),
        None => Ok(predefined_tables()),
    }
    // A damaged file is reported before a bad program.
    .map_err(|e| walk().find_map(Result::err).unwrap_or(e))?;
    let span = reader.time_span().ok().flatten();
    let tables = run_tables_over(&specs, &profile, span, walk)?;
    let out_dir = paths.out.as_deref();
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir)?;
    }
    let mut msg = String::new();
    for t in &tables {
        msg.push_str(&format!("=== {} ===\n", t.name));
        if t.x_labels.first().map(String::as_str) == Some("routine") {
            msg.push_str(&ute_stats::viewer::named_routine_table(t)?);
        } else {
            msg.push_str(&t.to_tsv());
        }
        if t.x_labels.len() == 2 {
            if let Ok(hm) = ute_stats::viewer::heatmap_ascii(t, 0) {
                msg.push_str(&hm);
            }
        }
        if let Some(dir) = out_dir {
            std::fs::write(dir.join(format!("{}.tsv", t.name)), t.to_tsv())?;
            if t.x_labels.len() == 2 {
                if let Ok(svg) = ute_stats::viewer::heatmap_svg(t, 0, 10) {
                    std::fs::write(dir.join(format!("{}.svg", t.name)), svg)?;
                }
            }
            msg.push_str(&format!("wrote {}/{}.tsv\n", dir.display(), t.name));
        }
        msg.push('\n');
    }
    Ok(msg)
}

/// `ute clockfit`: print per-node clock fits from per-node interval files.
pub(crate) fn cmd_clockfit(args: &Args) -> Result<String> {
    let dir = PathBuf::from(args.require("in")?);
    let salvage = args.salvage();
    let opts = merge_options(args)?;
    let profile = Profile::read_from(&dir.join("profile.ute"))?;
    let (paths, files, _lost) = load_interval_files(&dir, salvage)?;
    let mut msg = String::new();
    for (path, bytes) in paths.iter().zip(&files) {
        let fit = (|| {
            let reader = IntervalFileReader::open(bytes, &profile)?;
            ute_merge::clockfit::fit_node(&reader, &profile, opts.estimator, opts.filter_outliers)
        })();
        let nf = match fit {
            Ok(nf) => nf,
            Err(e) if salvage => {
                msg.push_str(&format!("{}: unfittable ({e})\n", path.display()));
                continue;
            }
            Err(e) => return Err(e.in_file(path)),
        };
        let r = nf.fit.ratio();
        msg.push_str(&format!(
            "node {}: ratio {:.9} (drift {:+.3} ppm), {} samples\n",
            nf.node,
            r,
            (1.0 / r - 1.0) * 1e6,
            nf.samples_used,
        ));
    }
    Ok(msg)
}

/// `ute corrupt`: deterministically corrupt an existing trace
/// directory's raw and interval files for regression corpora. `--seed N`
/// derives a byte-level plan (always including a truncation, so
/// `--strict` re-runs are guaranteed to fail); `--plan SPEC` applies an
/// explicit plan. `profile.ute` and `threads.utt` are never touched.
pub(crate) fn cmd_corrupt(args: &Args) -> Result<String> {
    let dir = PathBuf::from(args.require("in")?);
    let raw_nodes = scan_node_files(&dir, "trace", "raw")?;
    let ivl_nodes = scan_node_files(&dir, "trace", "ivl")?;
    if raw_nodes.is_empty() && ivl_nodes.is_empty() {
        return Err(UteError::NotFound(format!(
            "no trace.N.raw or trace.N.ivl files in {}",
            dir.display()
        )));
    }
    let nodes = raw_nodes.len().max(ivl_nodes.len()) as u16;
    let plan = match args.get("plan") {
        Some(spec) => FaultPlan::parse(spec)?,
        None => FaultPlan::byte_level_from_seed(args.num("seed", 0u64)?, nodes),
    };
    let mut msg = format!("corrupting with plan [{plan}]\n");
    let mut apply = |node: u16, path: &Path, protect: usize| -> Result<()> {
        if !path.exists() || plan.for_node(node).next().is_none() {
            return Ok(());
        }
        // Not a mapping: the file is replaced below, and a mapping must
        // not outlive the file it maps.
        let data = std::fs::read(path)?;
        match plan.apply_to_file(node, data, protect) {
            Some(bytes) => {
                ute_store::atomic_write(path, &bytes)?;
                msg.push_str(&format!("  mutated {}\n", path.display()));
            }
            None => {
                std::fs::remove_file(path)?;
                msg.push_str(&format!("  removed {}\n", path.display()));
            }
        }
        Ok(())
    };
    for &node in &raw_nodes {
        apply(
            node,
            &dir.join(RawTraceFile::file_name("trace", NodeId(node))),
            HEADER_LEN,
        )?;
    }
    for &node in &ivl_nodes {
        // Protect only the 8-byte magic: a mangled interval-file header
        // is exactly the kind of damage salvage must survive.
        apply(node, &dir.join(format!("trace.{node}.ivl")), 8)?;
    }
    Ok(msg)
}

/// `ute scenario`: expand a seeded random workload and run it through
/// the full pipeline, or print its spec as JSON.
///
/// The seed fully determines the scenario: `--seed N` twice produces
/// byte-identical raw traces (a tested guarantee), so a seed plus any
/// explicit knob overrides is a complete, shareable reproduction of a
/// trace corpus. `--describe` prints the expanded spec as JSON instead
/// of running; a pipeline run also writes the spec to
/// `OUT/scenario.json` for provenance.
///
/// Knob overrides (all optional; unset knobs keep their sampled value):
/// `--nodes K --cpus C --tasks-per-node T --threads W` reshape the
/// topology; `--pattern P` forces every phase's communication structure
/// (`nn|ring|tree|hub|alltoall|service`); `--rounds N` fixes phase
/// iteration counts; `--straggler R:F` slows rank R by factor F (and
/// guarantees the `Collect` ground-truth phase); `--skew X` multiplies
/// upper-half-rank message sizes; `--burst N` sets the bursty-phase
/// volley length; `--depth/--width/--fanout` shape the service graph.
pub(crate) fn cmd_scenario(args: &Args) -> Result<String> {
    let seed: u64 = args
        .require("seed")?
        .parse()
        .map_err(|_| UteError::Invalid("--seed: wants an unsigned integer".into()))?;
    let mut spec = ute_scenario::ScenarioSpec::from_seed(seed);
    let topo = &mut spec.topology;
    topo.nodes = args.num("nodes", topo.nodes)?;
    topo.cpus_per_node = args.num("cpus", topo.cpus_per_node)?;
    topo.tasks_per_node = args.num("tasks-per-node", topo.tasks_per_node)?;
    topo.threads_per_task = args.num("threads", topo.threads_per_task)?;
    if let Some(p) = args.get("pattern") {
        let pattern = ute_scenario::PatternKind::parse(p).ok_or_else(|| {
            UteError::Invalid(format!(
                "--pattern: unknown `{p}` (nn|ring|tree|hub|alltoall|service)"
            ))
        })?;
        spec.force_pattern(pattern);
    }
    if let Some(rounds) = args.opt_num::<u32>("rounds")? {
        for p in &mut spec.phases {
            p.rounds = rounds.max(1);
        }
    }
    spec.chain_depth = args.num("depth", spec.chain_depth)?;
    spec.chain_width = args.num("width", spec.chain_width)?;
    spec.fanout = args.num("fanout", spec.fanout)?;
    spec.imbalance.size_skew = args.num("skew", spec.imbalance.size_skew)?;
    spec.imbalance.burst_len = args.num("burst", spec.imbalance.burst_len)?;
    if let Some(s) = args.get("straggler") {
        let (rank, factor) = s
            .split_once(':')
            .ok_or_else(|| UteError::Invalid("--straggler wants RANK:FACTOR".into()))?;
        let rank: u32 = rank
            .parse()
            .map_err(|_| UteError::Invalid("--straggler: bad rank".into()))?;
        let factor: u64 = factor
            .parse()
            .map_err(|_| UteError::Invalid("--straggler: bad factor".into()))?;
        spec = spec.with_straggler(rank, factor);
    }
    spec.validate()?;
    if args.has("describe") {
        return Ok(format!("{}\n", spec.to_json()));
    }
    let ing = Ingest {
        dir: PathBuf::from(args.require("out")?),
        jobs: args.jobs()?,
        salvage: args.salvage(),
    };
    let w = scenario_workload(&spec)?;
    let plan = fault_plan(
        args.get("fault-plan"),
        args.opt_num("fault-seed")?,
        w.config.nodes,
    )?;
    let out_dir = &ing.dir;
    std::fs::create_dir_all(out_dir)?;
    // Provenance first: the spec that produced everything else in the
    // directory, byte-stable for the CI determinism comparisons.
    std::fs::write(
        out_dir.join("scenario.json"),
        format!("{}\n", spec.to_json()),
    )?;
    let mut msg = format!(
        "scenario seed {seed}: {} nodes x {} task(s) x {} thread(s), {} phase(s)\n",
        spec.topology.nodes,
        spec.topology.tasks_per_node,
        spec.topology.threads_per_task,
        spec.phases.len()
    );
    msg.push_str(&run_and_write_trace(
        format!("scenario seed {seed}"),
        w,
        plan,
        out_dir,
    )?);
    // The plain commands back to back, no journal (`ute pipeline` runs
    // the same stage functions through `crate::stages`). Like the
    // pipeline, `run.slog` is built from the `merged.ivl` just written:
    // one merge per run.
    let merged = out_dir.join("merged.ivl");
    msg.push_str(&convert(&ing)?);
    msg.push_str(&merge(&ing, MergeOptions::default(), &merged)?);
    {
        let _span = ute_obs::Span::stage("slogmerge");
        let (bytes, text) =
            slog_of_merged_outputs(out_dir, MergeOptions::default(), BuildOptions::default())?;
        ute_store::atomic_write(&out_dir.join("run.slog"), &bytes)?;
        msg.push_str(&text);
    }
    msg.push_str(&stats(&StatsPaths {
        merged,
        ..StatsPaths::default()
    })?);
    Ok(msg)
}
