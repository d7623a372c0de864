//! # ute-cli — the `ute` command-line tool
//!
//! Drives the whole Figure 2 pipeline from a shell:
//!
//! ```text
//! ute trace     --workload sppm --out trace_dir        # run the simulator
//! ute convert   --in trace_dir                         # raw → interval files
//! ute merge     --in trace_dir --out merged.ivl        # adjust clocks + merge
//! ute slogmerge --in trace_dir --out run.slog          # merge into SLOG
//! ute stats     --merged merged.ivl [--program p.uts]  # tables (TSV)
//! ute preview   --slog run.slog                        # whole-run preview
//! ute view      --slog run.slog --kind thread          # time-space diagrams
//! ute clockfit  --in trace_dir                         # per-node clock fits
//! ute pipeline  --workload flash --out dir             # everything at once
//! ```
//!
//! Every command is implemented as a library function returning its
//! textual output so the test suite exercises them end to end.
//!
//! Two observability switches apply to every subcommand: `--metrics`
//! prints the per-stage metrics table (TSV) to stderr after the command
//! finishes, and `--self-trace FILE` captures the run's own pipeline
//! spans and writes them as a UTE interval file — the framework traced
//! with its own format (view it with `ute preview --ivl FILE`);
//! `--profiler` folds the same spans into a ranked per-stage table. The
//! `report` subcommand runs the whole pipeline and emits every metric
//! as machine-readable JSON.

pub mod selftrace;
mod stages;

pub use stages::RunPlan;

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use ute_clock::ratio::RatioEstimator;
use ute_cluster::Simulator;
use ute_convert::{convert_job_pooled, ConvertOptions};
use ute_core::error::{PathContext, Result, UteError};
use ute_core::ids::NodeId;
use ute_faults::FaultPlan;
use ute_format::codecio::{read_thread_table_file, thread_table_to_bytes};
use ute_format::file::{FramePolicy, IntervalFileReader};
use ute_format::profile::Profile;
use ute_merge::{merge_files_jobs, slogmerge_jobs, MergeOptions};
use ute_rawtrace::file::{RawTraceFile, HEADER_LEN};
use ute_slog::builder::BuildOptions;
use ute_slog::file::SlogFile;
use ute_stats::predefined::predefined_tables;
use ute_stats::{parse_program, run_tables};
use ute_view::model::{build_view, ViewConfig, ViewKind};
use ute_workloads::{flash, micro, patterns, scaling, sppm, Workload};

/// Parsed `--flag value` arguments, checked against one [`Command`] row.
#[derive(Debug)]
pub struct Args {
    map: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses `--key value` and bare `--switch` arguments against the
    /// row of the command they were given to.
    ///
    /// The row (with [`SHARED`]) says which names are switches and which
    /// take a value: a valued `--key` followed by another `--token` (or
    /// the end of the argument list) is an error, and a name in neither
    /// list is an unknown option — reported before anything runs, with
    /// the known name it is a prefix of (or that is a prefix of it), if
    /// any. A leading bare token is the value of the row's positional
    /// key (`ute analyze DIR`, `ute resume DIR`).
    pub fn parse(cmd: &Command, argv: &[String]) -> Result<Args> {
        let mut a = Args {
            map: HashMap::new(),
            flags: Vec::new(),
        };
        let mut unknown = Vec::new();
        let mut rest = argv.iter().peekable();
        if let Some(key) = cmd.positional {
            if let Some(v) = rest.next_if(|t| !t.starts_with("--")) {
                a.map.insert(key.to_string(), v.clone());
            }
        }
        while let Some(k) = rest.next() {
            if !k.starts_with("--") {
                return Err(UteError::Invalid(format!("unexpected argument `{k}`")));
            }
            let key = k.trim_start_matches("--");
            let among = |own: &str, shared: &str| {
                own.split_whitespace()
                    .chain(shared.split_whitespace())
                    .any(|n| n == key)
            };
            if among(cmd.switches, SHARED.switches) {
                a.flags.push(key.to_string());
            } else if among(cmd.keys, SHARED.keys) {
                let v = rest
                    .next_if(|v| !v.starts_with("--"))
                    .ok_or_else(|| UteError::Invalid(format!("missing value for --{key}")))?;
                a.map.insert(key.to_string(), v.clone());
            } else {
                unknown.push(key);
                rest.next_if(|v| !v.starts_with("--"));
            }
        }
        match unknown.into_iter().min() {
            Some(key) => Err(cmd.unknown_option(key)),
            None => Ok(a),
        }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(|s| s.as_str())
    }

    fn require(&self, key: &str) -> Result<&str> {
        self.get(key)
            .ok_or_else(|| UteError::Invalid(format!("missing required --{key}")))
    }

    fn has(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    fn opt_num<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>> {
        self.get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| UteError::Invalid(format!("--{key}: bad value `{v}`")))
            })
            .transpose()
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T> {
        Ok(self.opt_num(key)?.unwrap_or(default))
    }

    /// The `--jobs N` worker count; defaults to the machine's available
    /// parallelism. `--jobs 1` runs every stage on the calling thread.
    fn jobs(&self) -> Result<usize> {
        let jobs = self.num("jobs", ute_core::pool::default_jobs())?;
        if jobs == 0 {
            return Err(UteError::Invalid("--jobs: must be at least 1".into()));
        }
        Ok(jobs)
    }

    /// Whether salvage-mode ingestion is active. The CLI salvages by
    /// default — truncated, corrupt, or missing inputs degrade with
    /// warnings instead of aborting; `--strict` restores fail-fast.
    /// (Library APIs are the opposite: strict unless opted in.)
    fn salvage(&self) -> bool {
        !self.has("strict")
    }
}

/// The fault plan of `--fault-plan SPEC` or `--fault-seed N` (seeded
/// plans need the node count); an explicit plan wins.
fn fault_plan(spec: Option<&str>, seed: Option<u64>, nodes: u16) -> Result<Option<FaultPlan>> {
    match spec {
        Some(spec) => Ok(Some(FaultPlan::parse(spec)?)),
        None => Ok(seed.map(|s| FaultPlan::from_seed(s, nodes))),
    }
}

fn workload_by_name(name: &str, iterations: u32) -> Result<Workload> {
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
fn trace_outputs(
    name: &str,
    mut w: Workload,
    plan: Option<FaultPlan>,
) -> Result<stages::StageOutput> {
    if let Some(plan) = &plan {
        w.config.trace.faults = Some(plan.clone());
    }
    let res = {
        let _span = ute_obs::Span::enter("trace", format!("simulate {name}"));
        Simulator::new(w.config, &w.job)?.run()?
    };
    let _span = ute_obs::Span::enter("rawtrace", "encode raw files");
    let mut faulted = 0usize;
    let mut suppressed = 0usize;
    let mut artifacts = Vec::new();
    let mut removes = Vec::new();
    for f in &res.raw_files {
        let fname = RawTraceFile::file_name("trace", f.node);
        match &plan {
            None => artifacts.push((fname, f.to_bytes()?)),
            Some(plan) => {
                let node = f.node.raw();
                if plan.for_node(node).next().is_some() {
                    faulted += 1;
                }
                match plan.apply_to_file(node, f.to_bytes()?, HEADER_LEN) {
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
        "traced {name}: {} nodes, {} records, {:.6}s simulated, overhead {}\n",
        res.raw_files.len(),
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
fn scan_node_files(dir: &Path, prefix: &str, ext: &str) -> Result<Vec<u16>> {
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

/// Loads a trace directory's raw files. In salvage mode, files past a
/// hole are still found, unreadable files are dropped with a warning,
/// and the last return value lists the nodes that could not be loaded;
/// strict mode fails on the first hole or unreadable file.
fn load_raw_dir(
    dir: &Path,
    salvage: bool,
) -> Result<(
    Vec<RawTraceFile>,
    ute_format::thread_table::ThreadTable,
    Profile,
    Vec<u16>,
)> {
    let _span = ute_obs::Span::enter("rawtrace", format!("load {}", dir.display()));
    let threads = read_thread_table_file(&dir.join("threads.utt"))?;
    let profile = Profile::read_from(&dir.join("profile.ute"))?;
    let (present, mut lost) = scan_trace_files(dir, "raw", salvage)?;
    let mut files = Vec::new();
    for &node in &present {
        let p = dir.join(RawTraceFile::file_name("trace", NodeId(node)));
        if salvage {
            match RawTraceFile::read_from_salvage(&p) {
                Ok((f, report)) => {
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
                    files.push(f);
                }
                Err(e) => {
                    eprintln!("ute: warning: salvage: dropping {}: {e}", p.display());
                    lost.push(node);
                }
            }
        } else {
            files.push(RawTraceFile::read_from(&p).in_file(&p)?);
        }
    }
    if files.is_empty() {
        return Err(UteError::NotFound(format!(
            "no trace.N.raw files in {}",
            dir.display()
        )));
    }
    lost.sort_unstable();
    Ok((files, threads, profile, lost))
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

/// The convert stage as pure data (see [`trace_outputs`]).
pub(crate) fn convert_outputs(ing: &Ingest) -> Result<stages::StageOutput> {
    let (files, threads, profile, lost) = load_raw_dir(&ing.dir, ing.salvage)?;
    let copts = ConvertOptions {
        policy: FramePolicy::default(),
        lenient: ing.salvage,
        salvage: ing.salvage,
    };
    let outputs = convert_job_pooled(&files, &threads, &profile, &copts, ing.jobs)?;
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
type IntervalFiles = (Vec<PathBuf>, Vec<Vec<u8>>, Vec<u16>);

/// Loads the per-node interval files of `dir`. The nodes lost are holes
/// and unreadable files, which strict mode fails on instead.
fn load_interval_files(dir: &Path, salvage: bool) -> Result<IntervalFiles> {
    let _span = ute_obs::Span::enter("format", format!("read {}/trace.N.ivl", dir.display()));
    let (present, mut lost) = scan_trace_files(dir, "ivl", salvage)?;
    let mut paths = Vec::new();
    let mut files = Vec::new();
    for &node in &present {
        let p = dir.join(format!("trace.{node}.ivl"));
        match std::fs::read(&p) {
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
/// place that counter is bumped, so a staged `ute pipeline` run (which
/// also re-reads the files for slogmerge) counts each degraded node
/// once.
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
    let refs: Vec<&[u8]> = files.iter().map(|f| f.as_slice()).collect();
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

/// The slogmerge stage as pure data (see [`merge_outputs`]).
pub(crate) fn slogmerge_outputs(
    ing: &Ingest,
    opts: MergeOptions,
    build: BuildOptions,
) -> Result<(Vec<u8>, String)> {
    let profile = Profile::read_from(&ing.dir.join("profile.ute"))?;
    let (paths, files, _lost) = load_interval_files(&ing.dir, ing.salvage)?;
    let refs: Vec<&[u8]> = files.iter().map(|f| f.as_slice()).collect();
    let opts = MergeOptions {
        salvage: ing.salvage,
        ..opts
    };
    let (slog, stats) = slogmerge_jobs(&refs, &profile, &opts, build, ing.jobs)
        .map_err(|e| e.name_input(&paths))?;
    let msg = format!(
        "slogmerge: {} records in, {} merged, {} frames, {} slog records\n",
        stats.records_in,
        stats.records_out,
        slog.frames.len(),
        slog.total_records()
    );
    Ok((slog.to_bytes(), msg))
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
/// written directly, not published.
pub(crate) fn stats_output(paths: &StatsPaths) -> Result<String> {
    let read_span = ute_obs::Span::enter("format", "read + decode merged file");
    let merged_path = paths.merged.as_path();
    let merged = std::fs::read(merged_path).in_file(merged_path)?;
    let profile_path = paths.profile.clone().unwrap_or_else(|| {
        merged_path
            .parent()
            .unwrap_or(Path::new("."))
            .join("profile.ute")
    });
    let profile = Profile::read_from(&profile_path)?;
    let reader = IntervalFileReader::open(&merged, &profile).in_file(merged_path)?;
    let intervals: Result<Vec<_>> = reader.intervals().collect();
    let intervals = intervals.in_file(merged_path)?;
    drop(read_span);
    let specs = match &paths.program {
        Some(p) => parse_program(&std::fs::read_to_string(p)?)?,
        None => predefined_tables(),
    };
    let tables = run_tables(&specs, &profile, &intervals)?;
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

/// `ute preview`: render the whole-run preview of a SLOG file, or of a
/// standard-profile interval file (`--ivl`, e.g. a `--self-trace`
/// output) by building an in-memory SLOG from it first.
pub(crate) fn cmd_preview(args: &Args) -> Result<String> {
    let slog = match args.get("ivl") {
        Some(ivl) => {
            let bytes = std::fs::read(ivl)?;
            // A zero-length file is a trace that never got written;
            // say so instead of failing on a header short-read.
            if bytes.is_empty() {
                return Ok(format!("empty trace: {ivl} has no data\n"));
            }
            let profile = Profile::standard();
            let reader = IntervalFileReader::open(&bytes, &profile)?;
            let intervals: Result<Vec<_>> = reader.intervals().collect();
            let intervals = intervals?;
            // Header-only: structurally valid but nothing to preview.
            if intervals.is_empty() {
                return Ok(format!("empty trace: {ivl} contains no intervals\n"));
            }
            ute_slog::builder::SlogBuilder::new(&profile, BuildOptions::default()).build(
                &intervals,
                &reader.threads,
                &reader.markers,
            )?
        }
        // Only the preview is drawn: no frame is decoded.
        None => SlogFile::read_from_in(Path::new(args.require("slog")?), Some((0, 0)))?,
    };
    let mut msg = ute_view::preview::render_ascii(&slog.preview, 8);
    let ranges = ute_view::preview::interesting_ranges(&slog.preview, 0.25);
    msg.push_str("interesting ranges:");
    for (a, b) in ranges {
        msg.push_str(&format!(" [{a:.3}s..{b:.3}s]"));
    }
    msg.push('\n');
    if let Some(svg_path) = args.get("svg") {
        std::fs::write(
            svg_path,
            ute_view::preview::render_svg(&slog.preview, 600, 120),
        )?;
        msg.push_str(&format!("wrote {svg_path}\n"));
    }
    Ok(msg)
}

/// `ute view`: render a time-space diagram of a SLOG file.
pub(crate) fn cmd_view(args: &Args) -> Result<String> {
    let slog_path = Path::new(args.require("slog")?);
    let kind = match args.get("kind").unwrap_or("thread") {
        "thread" => ViewKind::ThreadActivity,
        "cpu" => ViewKind::ProcessorActivity,
        "threadcpu" => ViewKind::ThreadProcessor,
        "cputhread" => ViewKind::ProcessorThread,
        "type" => ViewKind::TypeActivity,
        other => {
            return Err(UteError::Invalid(format!(
                "unknown view kind `{other}` (thread|cpu|threadcpu|cputhread|type)"
            )))
        }
    };
    let window = match args.get("window") {
        None => None,
        Some(w) => {
            let (a, b) = w
                .split_once(',')
                .ok_or_else(|| UteError::Invalid("--window wants `start,end` seconds".into()))?;
            let a: f64 = a
                .parse()
                .map_err(|_| UteError::Invalid("bad window start".into()))?;
            let b: f64 = b
                .parse()
                .map_err(|_| UteError::Invalid("bad window end".into()))?;
            Some(((a * 1e9) as u64, (b * 1e9) as u64))
        }
    };
    let cfg = ViewConfig {
        kind,
        window,
        connected: args.has("connected"),
        hide_running: args.has("hide-running"),
        cpus_per_node: args
            .get("cpus")
            .map(|c| c.parse().unwrap_or(0))
            .filter(|&c| c > 0),
        ..ViewConfig::default()
    };
    // Only the frames the view walks are decoded: those a `--window`
    // overlaps, or the one holding `--frame-at`.
    let view = match args.get("frame-at") {
        Some(t) => {
            let secs: f64 = t
                .parse()
                .map_err(|_| UteError::Invalid("--frame-at wants seconds".into()))?;
            let t = (secs * 1e9) as u64;
            let slog = SlogFile::read_from_in(slog_path, Some((t, t.saturating_add(1))))?;
            ute_view::model::frame_view(&slog, t, &cfg)?
        }
        None => build_view(&SlogFile::read_from_in(slog_path, window)?, &cfg)?,
    };
    let mut msg = ute_view::ascii::render(&view, args.num("width", 100usize)?);
    if let Some(svg_path) = args.get("svg") {
        std::fs::write(
            svg_path,
            ute_view::svg::render(&view, &ute_view::svg::SvgOptions::default()),
        )?;
        msg.push_str(&format!("wrote {svg_path}\n"));
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
                msg.push_str(&format!("node ?: unfittable ({e})\n"));
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
        let data = std::fs::read(path)?;
        match plan.apply_to_file(node, data, protect) {
            Some(bytes) => {
                std::fs::write(path, bytes)?;
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
    // the same stage functions through [`stages`]).
    let merged = out_dir.join("merged.ivl");
    msg.push_str(&convert(&ing)?);
    msg.push_str(&merge(&ing, MergeOptions::default(), &merged)?);
    msg.push_str(&slogmerge(
        &ing,
        MergeOptions::default(),
        BuildOptions::default(),
        &out_dir.join("run.slog"),
    )?);
    msg.push_str(&stats(&StatsPaths {
        merged,
        ..StatsPaths::default()
    })?);
    Ok(msg)
}

/// Counters that exist on every run, registered up front so a *clean*
/// run's report still carries them (as zeros). Without this, the keys
/// only appear once the first salvage/drop event bumps them — and a
/// `--stable` report could not be byte-compared between a fault-matrix
/// job and its clean baseline, or asserted on ("this never happened"
/// would be indistinguishable from "this was never measured").
const BASELINE_COUNTERS: &[&str] = &[
    "salvage/nodes_degraded",
    "salvage/records_skipped",
    "salvage/bytes_skipped",
    "salvage/resyncs",
    "salvage/intervals_truncated",
    "obs/spans_dropped",
    "obs/flows_dropped",
    "analyze/rows",
    "analyze/frames_read",
    "analyze/frames_skipped",
    "analyze/findings",
    "analyze/msgs_matched",
    "store/journal_records",
    "store/journal_replayed",
    "store/stages_run",
    "store/stages_skipped",
    "store/artifacts_published",
    "store/artifacts_verified",
    "store/temps_gc",
    "chaos/kills",
    "chaos/resumes",
];

/// `ute report`: run the full pipeline with metrics from zero and emit
/// every counter, gauge, and histogram as machine-readable JSON,
/// including p50/p95/p99 estimates per histogram. `--stable` drops
/// wall-clock and `--jobs`-dependent metrics (and the percentiles) so
/// the output is byte-comparable across runs and thread counts (the
/// form the CI determinism job diffs); deterministic `salvage/*` and
/// `obs/*` totals are kept and always present.
pub(crate) fn cmd_report(args: &Args, root: &ute_obs::Span) -> Result<String> {
    ute_obs::reset();
    for name in BASELINE_COUNTERS {
        ute_obs::counter(name);
    }
    stages::cmd_pipeline(args)?;
    // Run the diagnostics over the pipeline's merged output before the
    // snapshot, so the analyze stage's own counters land in the report
    // and the JSON always carries a diagnostics summary block. Findings
    // are a pure function of merged.ivl, so this stays byte-stable
    // across `--jobs` (the determinism CI job diffs it).
    let diag_summary = {
        let dir = PathBuf::from(args.require("out")?);
        let profile = Profile::read_from(&dir.join("profile.ute"))?;
        let table = ute_analyze::load_table(
            &dir.join("merged.ivl"),
            &profile,
            &ute_analyze::LoadOptions::default(),
        )?;
        let findings = ute_analyze::run_all(&table, &ute_analyze::DiagOptions::default());
        ute_analyze::summary_json(ute_analyze::DIAGNOSTICS, &findings)
    };
    let stable = args.has("stable");
    let snap = ute_obs::snapshot();
    let snap = if stable { snap.stable() } else { snap };
    // The diagnostics and, outside --stable, the profile of the run so
    // far (under `--profiler`; the root span is still open) close the
    // object.
    let mut extra = vec![("diagnostics", diag_summary)];
    if !stable {
        extra.push((
            "profile",
            if args.has("profiler") {
                let pj = profile_so_far(args.require("workload")?, root).to_json();
                pj.trim_end().replace('\n', "\n  ")
            } else {
                "{\"enabled\": false}".to_string()
            },
        ));
    }
    let opts = ute_obs::ReportOptions {
        percentiles: !stable,
        extra: &extra,
    };
    let mut json = snap.render_json(&opts);
    json.push('\n');
    Ok(json)
}

/// The profile of a run still in progress: the fold of the spans closed
/// so far, with the caller's still-open root span charged the time on
/// its thread that none of them covers.
fn profile_so_far(workload: &str, root: &ute_obs::Span) -> ute_profile::ProfileReport {
    let spans = ute_obs::captured_spans();
    ute_profile::build_report(workload, ute_profile::fold(&spans, Some(root.so_far())))
}

/// `ute profile`: run the journaled pipeline with span capture on (the
/// dispatcher turns it on before the root span opens, so every stage
/// is covered) and emit the ranked bottleneck report. A sixth journaled
/// `profile` stage folds the spans captured so far and publishes
/// `profile.folded` (flamegraph-ready folded stacks) and `profile.json`
/// (the full report) through the same atomic store protocol as the
/// pipeline artifacts. `--json` prints the report JSON instead of the
/// text rendering.
pub(crate) fn cmd_profile(args: &Args, root: &ute_obs::Span) -> Result<String> {
    ute_obs::reset();
    for name in BASELINE_COUNTERS {
        ute_obs::counter(name);
    }
    let workload = args.require("workload")?.to_string();
    let json_out = std::cell::RefCell::new(String::new());
    let msg = stages::cmd_profile_run(args, || {
        let report = profile_so_far(&workload, root);
        let json = report.to_json();
        json_out.replace(json.clone());
        Ok(stages::StageOutput {
            artifacts: vec![
                (
                    "profile.folded".to_string(),
                    ute_profile::folded_output(&report.profile).into_bytes(),
                ),
                ("profile.json".to_string(), json.into_bytes()),
            ],
            removes: Vec::new(),
            msg: report.render_text(),
        })
    })?;
    if args.has("json") {
        let j = json_out.into_inner();
        if !j.is_empty() {
            return Ok(j);
        }
    }
    Ok(msg)
}

/// `ute check`: run the conformance rule suites (crate `ute-verify`)
/// over trace artifacts. `--in DIR` checks every artifact the pipeline
/// left there (raw files, per-node interval files, `merged.ivl`,
/// `run.slog`); `--ivl/--slog/--raw FILE` checks one file; `--oracles`
/// runs the differential oracles instead (serial vs `--jobs`, salvage ⊆
/// strict, clock-adjusted order, fast vs reference decode). Violations
/// are structured findings, never panics; any error-severity finding
/// makes the command fail with the full report in the error text.
pub(crate) fn cmd_check(args: &Args) -> Result<String> {
    let ivl_opts = ute_verify::IvlCheckOptions {
        lenient_tail: args.has("lenient-tail"),
    };
    let mut reports: Vec<ute_verify::Report> = Vec::new();
    if args.has("oracles") {
        let _span = ute_obs::Span::enter("check", "oracles".to_string());
        reports.extend(ute_verify::run_all_oracles(args.num("seed", 7u64)?));
    } else if let Some(path) = args.get("ivl") {
        let bytes = std::fs::read(path)?;
        let profile = match args.get("profile") {
            Some(p) => Profile::read_from(Path::new(p))?,
            None => Profile::standard(),
        };
        reports.push(ute_verify::check_interval_bytes(
            path, &bytes, &profile, ivl_opts,
        ));
    } else if let Some(path) = args.get("slog") {
        let bytes = std::fs::read(path)?;
        reports.push(ute_verify::check_slog_bytes(path, &bytes));
    } else if let Some(path) = args.get("raw") {
        let bytes = std::fs::read(path)?;
        reports.push(ute_verify::check_raw_bytes(path, &bytes));
        reports.push(ute_verify::check_salvage_agrees(path, &bytes));
    } else {
        let dir = PathBuf::from(args.require("in")?);
        let profile = Profile::read_from(&dir.join("profile.ute"))?;
        for node in scan_node_files(&dir, "trace", "raw")? {
            let p = dir.join(RawTraceFile::file_name("trace", NodeId(node)));
            let bytes = std::fs::read(&p)?;
            let label = p.display().to_string();
            reports.push(ute_verify::check_raw_bytes(&label, &bytes));
            reports.push(ute_verify::check_salvage_agrees(&label, &bytes));
        }
        for node in scan_node_files(&dir, "trace", "ivl")? {
            let p = dir.join(format!("trace.{node}.ivl"));
            let bytes = std::fs::read(&p)?;
            reports.push(ute_verify::check_interval_bytes(
                &p.display().to_string(),
                &bytes,
                &profile,
                ivl_opts,
            ));
        }
        for name in ["merged.ivl", "run.slog"] {
            let p = dir.join(name);
            if !p.exists() {
                continue;
            }
            let bytes = std::fs::read(&p)?;
            let label = p.display().to_string();
            if name.ends_with(".slog") {
                reports.push(ute_verify::check_slog_bytes(&label, &bytes));
            } else {
                reports.push(ute_verify::check_interval_bytes(
                    &label, &bytes, &profile, ivl_opts,
                ));
            }
        }
        if reports.is_empty() {
            return Err(UteError::NotFound(format!(
                "no checkable artifacts in {}",
                dir.display()
            )));
        }
    }
    let mut msg = String::new();
    for r in &reports {
        msg.push_str(&r.render());
    }
    let errors: usize = reports.iter().map(|r| r.errors()).sum();
    let warnings: usize = reports.iter().map(|r| r.warnings()).sum();
    msg.push_str(&format!(
        "checked {} artifact(s): {errors} error(s), {warnings} warning(s)\n",
        reports.len()
    ));
    if errors > 0 {
        Err(UteError::Invalid(msg))
    } else {
        Ok(msg)
    }
}

/// `ute fuzz`: run the structure-aware decoder fuzzer — seeded
/// mutations of valid raw/interval/SLOG corpora, every decoder driven
/// over each mutant. Deterministic in `--seed`; fails if any decoder
/// panics (mutants must be *rejected*, not crashed on).
pub(crate) fn cmd_fuzz(args: &Args) -> Result<String> {
    let opts = ute_verify::FuzzOptions {
        seed: args.num("seed", 1u64)?,
        iters: args.num("iters", 256u64)?,
        quiet: true,
    };
    let stats = ute_verify::run_fuzz(&opts);
    let msg = format!("fuzz seed {}: {}\n", opts.seed, stats.render());
    if stats.passed() {
        Ok(msg)
    } else {
        Err(UteError::Invalid(msg))
    }
}

/// `ute analyze`: run the programmable diagnostics layer over a trace
/// directory's `merged.ivl` (or over an interval file given directly via
/// `--in FILE`). `--diag NAME` runs one diagnostic, `--all` (the
/// default) runs every one; `--window T0:T1` (seconds) and
/// `--nodes A..B` restrict what is even *loaded* — the loader walks the
/// frame directory and skips frames outside the window without decoding
/// them. `--json` emits the structured findings report instead of text.
pub(crate) fn cmd_analyze(args: &Args) -> Result<String> {
    let input = PathBuf::from(args.require("in")?);
    let (merged, default_profile) = if input.is_dir() {
        (input.join("merged.ivl"), input.join("profile.ute"))
    } else {
        let dir = input.parent().unwrap_or(Path::new(".")).to_path_buf();
        (input.clone(), dir.join("profile.ute"))
    };
    if !merged.exists() {
        return Err(UteError::NotFound(format!(
            "{} (run `ute pipeline` or `ute merge` first)",
            merged.display()
        )));
    }
    let profile = match args.get("profile") {
        Some(p) => Profile::read_from(Path::new(p))?,
        None if default_profile.exists() => Profile::read_from(&default_profile)?,
        None => Profile::standard(),
    };
    let window = match args.get("window") {
        None => None,
        Some(w) => {
            let (a, b) = w
                .split_once(':')
                .ok_or_else(|| UteError::Invalid("--window wants `T0:T1` seconds".into()))?;
            let a: f64 = a
                .parse()
                .map_err(|_| UteError::Invalid("bad window start".into()))?;
            let b: f64 = b
                .parse()
                .map_err(|_| UteError::Invalid("bad window end".into()))?;
            Some(((a * 1e9) as u64, (b * 1e9) as u64))
        }
    };
    let nodes = match args.get("nodes") {
        None => None,
        Some(n) => {
            let (a, b) = n
                .split_once("..")
                .ok_or_else(|| UteError::Invalid("--nodes wants `A..B` inclusive".into()))?;
            let a: u16 = a
                .parse()
                .map_err(|_| UteError::Invalid("bad node range start".into()))?;
            let b: u16 = b
                .parse()
                .map_err(|_| UteError::Invalid("bad node range end".into()))?;
            Some((a, b))
        }
    };
    let load = ute_analyze::LoadOptions { window, nodes };
    let table = ute_analyze::load_table(&merged, &profile, &load).in_file(&merged)?;
    let diags: Vec<&str> = match args.get("diag") {
        Some(d) if ute_analyze::DIAGNOSTICS.contains(&d) => vec![d],
        Some(d) => {
            return Err(UteError::Invalid(format!(
                "unknown diagnostic `{d}` (late_sender|imbalance|comm_pattern|critical_path)"
            )))
        }
        None => ute_analyze::DIAGNOSTICS.to_vec(),
    };
    let dopts = ute_analyze::DiagOptions {
        imbalance_threshold: args.num("imbalance-threshold", 1.25f64)?,
        ..ute_analyze::DiagOptions::default()
    };
    let mut findings = Vec::new();
    for d in &diags {
        findings.extend(ute_analyze::run_diagnostic(d, &table, &dopts)?);
    }
    if args.has("json") {
        return Ok(ute_analyze::render_report_json(
            &diags,
            table.len(),
            &findings,
        ));
    }
    let mut msg = format!(
        "analyzed {} rows ({} diagnostic(s)): {} finding(s)\n",
        table.len(),
        diags.len(),
        findings.len()
    );
    for f in &findings {
        msg.push_str(&f.to_text());
        msg.push('\n');
    }
    Ok(msg)
}

/// How a command is entered.
pub enum Run {
    /// Reads its [`Args`] only; under `--profiler` the dispatcher prints
    /// the ranked stage table to stderr once it returns.
    Plain(fn(&Args) -> Result<String>),
    /// Renders the run's profile itself, from the still-open root span
    /// (`report`, when `--profiler` is given).
    Profiled(fn(&Args, &ute_obs::Span) -> Result<String>),
    /// As `Profiled`, with span capture on whether or not an option
    /// asks for it (`profile`).
    Profiler(fn(&Args, &ute_obs::Span) -> Result<String>),
}

/// One command of [`run`], declared once: [`Args::parse`] accepts
/// exactly `keys` (valued) and `switches` (bare) plus [`SHARED`], `run`
/// dispatches by `name`, and `ute help` prints `usage` — whose synopsis
/// names exactly `keys ∪ switches` (`tests/cli.rs` holds that).
pub struct Command {
    pub name: &'static str,
    /// The `--key VALUE` options the command reads, space separated.
    pub keys: &'static str,
    /// The bare `--switch`es the command reads, space separated.
    pub switches: &'static str,
    /// The key a leading bare token is the value of (`ute analyze DIR`).
    pub positional: Option<&'static str>,
    /// The command's block of `ute help`: synopsis lines, then an
    /// optional parenthesised note.
    pub usage: &'static str,
    run: Run,
}

impl Command {
    /// The error for an option the command does not read, naming the
    /// known option `key` is a prefix of (or that is a prefix of it).
    fn unknown_option(&self, key: &str) -> UteError {
        let near = [self.keys, SHARED.keys, self.switches, SHARED.switches]
            .into_iter()
            .flat_map(str::split_whitespace)
            .find(|n| n.starts_with(key) || key.starts_with(n));
        let hint = near.map_or(String::new(), |n| format!(" (did you mean --{n}?)"));
        UteError::Invalid(format!("{}: unknown option --{key}{hint}", self.name))
    }
}

/// The options every command takes, and the section of `ute help` that
/// documents them (one option per line that starts `  --`).
pub struct Shared {
    pub keys: &'static str,
    pub switches: &'static str,
    pub usage: &'static str,
}

pub const SHARED: Shared = Shared {
    keys: "self-trace self-trace-format self-trace-limit",
    switches: "metrics profiler",
    usage: "\
observability (any command):
  --metrics            print the per-stage metrics table (TSV) to stderr
  --self-trace FILE    write this run's own spans (hierarchical: parent
                       ids, per-thread lanes, cross-thread flow links,
                       thread CPU time per span)
  --self-trace-format ivl|chrome
                       self-trace sink format (default ivl). `ivl` is a
                       UTE interval file (view with `ute preview --ivl`);
                       `chrome` is Chrome trace JSON for ui.perfetto.dev
  --self-trace-limit N capture at most N spans (default 1048576); spans
                       beyond the cap are dropped and counted in
                       obs/spans_dropped
  --profiler           fold the same spans into `ute profile`'s ranked
                       stage table: printed to stderr on any command,
                       embedded as the \"profile\" block by `ute report`.
                       Build with `--features profile-alloc` to also
                       attribute allocations to the active stage
",
};

/// Every command, in `ute help` order.
pub const COMMANDS: &[Command] = &[
    Command {
        name: "trace",
        keys: "workload out iterations fault-seed fault-plan",
        switches: "",
        positional: None,
        usage: "  trace     --workload NAME --out DIR [--iterations N]
            [--fault-seed N | --fault-plan SPEC]
",
        run: Run::Plain(cmd_trace),
    },
    Command {
        name: "convert",
        keys: "in jobs",
        switches: "strict",
        positional: None,
        usage: "  convert   --in DIR [--jobs N] [--strict]
",
        run: Run::Plain(cmd_convert),
    },
    Command {
        name: "merge",
        keys: "in out estimator jobs",
        switches: "strict no-filter",
        positional: None,
        usage:
            "  merge     --in DIR --out FILE [--estimator rms|rmsall|last|piecewise] [--no-filter]
            [--jobs N] [--strict]
",
        run: Run::Plain(cmd_merge),
    },
    Command {
        name: "slogmerge",
        keys: "in out estimator frames bins jobs",
        switches: "strict no-filter no-arrows",
        positional: None,
        usage: "  slogmerge --in DIR --out FILE [--estimator ...] [--no-filter] [--frames N]
            [--bins N] [--no-arrows] [--jobs N] [--strict]
",
        run: Run::Plain(cmd_slogmerge),
    },
    Command {
        name: "stats",
        keys: "merged profile program out",
        switches: "",
        positional: None,
        usage: "  stats     --merged FILE [--profile FILE] [--program FILE] [--out DIR]
",
        run: Run::Plain(cmd_stats),
    },
    Command {
        name: "preview",
        keys: "slog ivl svg",
        switches: "",
        positional: None,
        usage: "  preview   --slog FILE | --ivl FILE [--svg FILE]
",
        run: Run::Plain(cmd_preview),
    },
    Command {
        name: "view",
        keys: "slog kind window frame-at cpus width svg",
        switches: "connected hide-running",
        positional: None,
        usage: "  view      --slog FILE [--kind thread|cpu|threadcpu|cputhread|type]
            [--window a,b] [--frame-at t] [--connected] [--hide-running]
            [--cpus N] [--width N] [--svg FILE]
",
        run: Run::Plain(cmd_view),
    },
    Command {
        name: "clockfit",
        keys: "in estimator",
        switches: "strict no-filter",
        positional: None,
        usage: "  clockfit  --in DIR [--estimator ...] [--no-filter] [--strict]
",
        run: Run::Plain(cmd_clockfit),
    },
    Command {
        name: "corrupt",
        keys: "in seed plan",
        switches: "",
        positional: None,
        usage: "  corrupt   --in DIR [--seed N | --plan SPEC]
            (deterministically corrupt trace.N.raw/.ivl for regression
             corpora; profile.ute and threads.utt are never touched)
",
        run: Run::Plain(cmd_corrupt),
    },
    Command {
        name: "pipeline",
        keys: "workload out iterations jobs fault-seed fault-plan disk-budget",
        switches: "strict",
        positional: None,
        usage: "  pipeline  --workload NAME --out DIR [--iterations N] [--jobs N] [--strict]
            [--fault-seed N | --fault-plan SPEC] [--disk-budget BYTES[k|m|g]]
",
        run: Run::Plain(stages::cmd_pipeline),
    },
    Command {
        name: "resume",
        keys: "in jobs disk-budget",
        switches: "",
        positional: Some("in"),
        usage: "  resume    DIR | --in DIR [--jobs N] [--disk-budget BYTES]
            (replay DIR/journal.utj from an interrupted `ute pipeline`
             run, verify published artifacts by content hash, complete
             any half-published stage from its committed temps, and
             re-run only the incomplete stages; the finished directory
             is byte-identical to an uninterrupted run at any --jobs)
",
        run: Run::Plain(stages::cmd_resume),
    },
    Command {
        name: "chaos",
        keys: "workload out iterations jobs fault-seed fault-plan disk-budget seed kills mode",
        switches: "strict",
        positional: None,
        usage: "  chaos     --workload NAME --out DIR [--seed N] [--kills K] [--jobs N]
            [--mode point|timed|soft] [--iterations N] [--strict]
            [--fault-seed N | --fault-plan SPEC] [--disk-budget BYTES]
            (process-kill chaos harness: run a clean reference pipeline
             under OUT/clean, then for each kill run a victim pipeline
             that dies at a seeded abort point — `point` SIGKILL-aborts
             a child process at an exact protocol state, `timed` kills
             it on a seeded timer, `soft` aborts in-process — resume
             it, and verify the result is byte-identical to the clean
             run with no stale temp files)
",
        run: Run::Plain(stages::cmd_chaos),
    },
    Command {
        name: "scenario",
        keys: "seed out jobs fault-seed fault-plan nodes cpus tasks-per-node threads pattern rounds straggler skew burst depth width fanout",
        switches: "strict describe",
        positional: None,
        usage: "  scenario  --seed N (--out DIR | --describe) [--jobs N] [--strict]
            [--fault-seed N | --fault-plan SPEC]
            [--nodes K] [--cpus C] [--tasks-per-node T] [--threads W]
            [--pattern nn|ring|tree|hub|alltoall|service] [--rounds N]
            [--straggler RANK:FACTOR] [--skew X] [--burst N]
            [--depth D] [--width W] [--fanout F]
            (expand a seeded random workload — topology, phase structure,
             communication patterns, injected imbalance — and run it
             through the full pipeline; the seed fully determines the
             trace bytes. --describe prints the expanded spec as JSON;
             a run writes it to OUT/scenario.json. Seeded specs are also
             usable anywhere a workload name is: --workload scenario:N)
",
        run: Run::Plain(cmd_scenario),
    },
    Command {
        name: "report",
        keys: "workload out iterations jobs fault-seed fault-plan disk-budget",
        switches: "strict stable",
        positional: None,
        usage: "  report    --workload NAME --out DIR [--iterations N] [--jobs N] [--stable]
            [--strict] [--fault-seed N | --fault-plan SPEC] [--disk-budget BYTES]
            (metrics as JSON with p50/p95/p99 per histogram; --stable
             drops wall-clock and worker-count metrics — and the
             percentiles — so output is byte-comparable across runs and
             --jobs; salvage/* and obs/* totals are kept)
",
        run: Run::Profiled(cmd_report),
    },
    Command {
        name: "profile",
        keys: "workload out iterations jobs fault-seed fault-plan disk-budget",
        switches: "strict json",
        positional: None,
        usage: "  profile   --workload NAME --out DIR [--json] [--jobs N]
            [--iterations N] [--strict] [--fault-seed N | --fault-plan SPEC]
            [--disk-budget BYTES]
            (run the journaled pipeline with span capture on and fold
             the spans into a ranked bottleneck report — exact self
             time per stage, wall-vs-CPU utilization, coverage (the
             share of the run inside a named stage) — and publish
             OUT/profile.folded (flamegraph-ready folded stacks, weight
             = µs of self time) and OUT/profile.json as a sixth
             journaled stage. --json prints the report JSON instead of
             the text table)
",
        run: Run::Profiler(cmd_profile),
    },
    Command {
        name: "analyze",
        keys: "in diag window nodes imbalance-threshold profile",
        switches: "all json",
        positional: Some("in"),
        usage: "  analyze   DIR | --in DIR|FILE [--diag late_sender|imbalance|comm_pattern
            |critical_path | --all] [--window T0:T1] [--nodes A..B] [--json]
            [--imbalance-threshold X] [--profile FILE]
            (programmable diagnostics over DIR/merged.ivl: late-sender
             wait attribution, per-phase load imbalance, communication-
             pattern classification, critical-path extraction; --window/
             --nodes load only the matching frames through the frame
             directory; --json emits structured findings)
",
        run: Run::Plain(cmd_analyze),
    },
    Command {
        name: "check",
        keys: "in ivl profile slog raw seed",
        switches: "oracles lenient-tail",
        positional: None,
        usage: "  check     --in DIR | --ivl FILE [--profile FILE] | --slog FILE
            | --raw FILE | --oracles [--seed N]   [--lenient-tail]
            (conformance rule suites over trace artifacts, or the
             differential oracles; violations are structured findings
             and any error-severity finding fails the command)
",
        run: Run::Plain(cmd_check),
    },
    Command {
        name: "fuzz",
        keys: "seed iters",
        switches: "",
        positional: None,
        usage: "  fuzz      [--seed N] [--iters M]
            (structure-aware decoder fuzzing: seeded mutations of valid
             corpora; fails if any decoder panics instead of rejecting)
",
        run: Run::Plain(cmd_fuzz),
    },
    Command {
        name: "help",
        keys: "",
        switches: "",
        positional: None,
        usage: "",
        run: Run::Plain(|_| Ok(help())),
    },
];

/// The row for `name` (`ute --help` is `ute help`).
pub fn command(name: &str) -> Option<&'static Command> {
    let name = if name == "--help" { "help" } else { name };
    COMMANDS.iter().find(|c| c.name == name)
}

/// The text of `ute help`: the rows' usage blocks in table order between
/// a fixed header and the cross-command notes, [`SHARED`]'s last.
pub fn help() -> String {
    let mut s = String::from(HELP_HEADER);
    for c in COMMANDS {
        s.push_str(c.usage);
    }
    s.push_str(HELP_NOTES);
    s.push_str(SHARED.usage);
    s
}

/// Dispatches one invocation through its [`COMMANDS`] row. The
/// [`SHARED`] options work on every command: `--metrics` prints the
/// metrics table (TSV) to stderr when the command finishes,
/// `--self-trace FILE` writes the run's own spans as a UTE interval file
/// (or Chrome trace JSON with `--self-trace-format chrome`), and
/// `--profiler` prints their fold — the ranked stage table — to stderr.
/// The last two (and `ute profile`) render the same capture, drained
/// once here.
pub fn run(argv: &[String]) -> Result<String> {
    let (name, rest) = argv
        .split_first()
        .ok_or_else(|| UteError::Invalid(help().trim().to_string()))?;
    let cmd = command(name)
        .ok_or_else(|| UteError::Invalid(format!("unknown command `{name}`\n{}", help())))?;
    let args = Args::parse(cmd, rest)?;
    let self_trace = args.get("self-trace").map(PathBuf::from);
    let self_trace_format = match args.get("self-trace-format") {
        None => selftrace::SelfTraceFormat::default(),
        Some(s) => selftrace::SelfTraceFormat::parse(s).ok_or_else(|| {
            UteError::Invalid(format!(
                "--self-trace-format must be `ivl` or `chrome`, got `{s}`"
            ))
        })?,
    };
    if let Some(limit) = args.get("self-trace-limit") {
        let limit: usize = limit
            .parse()
            .map_err(|_| UteError::Invalid(format!("bad --self-trace-limit `{limit}`")))?;
        ute_obs::set_capture_limit(limit);
    }
    let capture =
        self_trace.is_some() || args.has("profiler") || matches!(cmd.run, Run::Profiler(_));
    if capture {
        ute_obs::set_capture(true);
        ute_obs::drain_spans();
        ute_obs::drain_flows();
    }
    let result = {
        // Root of the run's span tree: every stage span opened on this
        // thread (and every worker adopting it across a spawn) nests
        // under one `cli/<command>` interval.
        let root = ute_obs::Span::enter("cli", cmd.name);
        match cmd.run {
            Run::Plain(f) => f(&args),
            Run::Profiled(f) | Run::Profiler(f) => f(&args, &root),
        }
    };
    let (spans, flows) = if capture {
        ute_obs::set_capture(false);
        (ute_obs::drain_spans(), ute_obs::drain_flows())
    } else {
        Default::default()
    };
    if args.has("profiler") && matches!(cmd.run, Run::Plain(_)) {
        let label = args.get("workload").unwrap_or(cmd.name);
        let report = ute_profile::build_report(label, ute_profile::fold(&spans, None));
        eprint!("{}", report.render_text());
    }
    let mut msg = result?;
    if let Some(path) = self_trace {
        selftrace::write_self_trace(&spans, &flows, &path, self_trace_format)?;
        msg.push_str(&format!(
            "wrote self-trace {} ({} spans)\n",
            path.display(),
            spans.len()
        ));
    }
    if args.has("metrics") {
        eprint!("{}", ute_obs::snapshot().to_tsv());
    }
    Ok(msg)
}

const HELP_HEADER: &str = "\
ute — Unified Trace Environment (SC 2000 reproduction)

commands:
";

const HELP_NOTES: &str = "
fault tolerance:
  Ingestion commands salvage by default: corrupt records are skipped
  (the decoder resynchronizes on the next valid hookword), truncated
  streams close their open states as synthetic intervals, and missing
  or unreadable nodes degrade with a warning and a Gap pseudo-record
  instead of aborting. Salvage events are counted in the salvage/*
  metrics (see --metrics / `ute report`).
  --strict             restore fail-fast: any corrupt, truncated, or
                       missing input is a hard error
  --fault-seed N       (trace/pipeline) inject a deterministic seeded
                       fault plan while writing raw traces
  --fault-plan SPEC    explicit plan, comma-separated NODE:KIND — e.g.
                       0:truncate@500,1:bitflip@123.5,2:missing,
                       3:overrun@64+40,4:dropflush@1,5:clockjump@100+9999

crash safety:
  `ute pipeline` writes through a write-ahead run journal
  (OUT/journal.utj) and an atomic artifact store: every stage's outputs
  are written to fsync'd NAME.tmp.<pid> temps, committed to the journal
  with content hashes, and only then renamed into place. Kill the
  process anywhere and `ute resume OUT` finishes the run — published
  stages are verified and skipped, committed stages complete from their
  temps, stale temps are swept. `--disk-budget` stops a run gracefully
  (journaled, resumable) before a stage would exceed the budget, as
  does a full disk. `ute chaos` proves all of this under seeded kills.

parallelism:
  --jobs N             worker count for convert and merge (default: all
                       cores; 1 = serial). Output is byte-identical for
                       every value — CI enforces it.

";

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(cmd: &str, tokens: &[&str]) -> Result<Args> {
        let argv: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        Args::parse(command(cmd).unwrap(), &argv)
    }

    #[test]
    fn args_parse() {
        let a = parse("slogmerge", &["--in", "x", "--no-filter", "--frames", "8"]).unwrap();
        assert_eq!(a.get("in"), Some("x"));
        assert!(a.has("no-filter"));
        assert!(!a.has("no-arrows"));
        assert_eq!(a.num("frames", 0usize).unwrap(), 8);
        assert_eq!(a.num("bins", 99u32).unwrap(), 99);
        assert_eq!(a.opt_num::<u32>("bins").unwrap(), None);
        assert!(a.require("out").is_err());
        let e = parse("slogmerge", &["--frames", "x"])
            .unwrap()
            .num("frames", 0usize);
        assert_eq!(
            e.unwrap_err().to_string(),
            "invalid request: --frames: bad value `x`"
        );
    }

    #[test]
    fn a_later_value_wins_and_the_positional_is_only_the_first_token() {
        let a = parse("resume", &["d", "--in", "e"]).unwrap();
        assert_eq!(a.get("in"), Some("e"));
        let e = parse("resume", &["--jobs", "2", "d"]).unwrap_err();
        assert!(e.to_string().contains("unexpected argument `d`"), "{e}");
    }

    #[test]
    fn the_first_unknown_name_in_sort_order_is_reported_whatever_follows_it() {
        let e = parse("merge", &["--zeta", "--in", "d", "--alpha", "1"]).unwrap_err();
        assert!(
            e.to_string().ends_with("merge: unknown option --alpha"),
            "{e}"
        );
        // A value missing from a key the row does read is reported first.
        let e = parse("merge", &["--zeta", "--in"]).unwrap_err();
        assert!(e.to_string().contains("missing value for --in"), "{e}");
    }
}
