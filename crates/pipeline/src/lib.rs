//! # ute-pipeline — parallel convert/merge with a determinism guarantee
//!
//! The paper's Table 1 makes convert and merge the throughput-critical
//! stages between trace generation and visualization. This crate runs
//! them on a parallel execution layer without changing a single output
//! byte:
//!
//! * **Fan-out** — one worker per node file converts raw events and
//!   clock-adjusts the node's intervals
//!   ([`ute_merge::adjust_node_records`], which includes the §2.2 clock
//!   fit). CPU concurrency is bounded by a [`pool::Semaphore`] with
//!   `jobs` permits.
//! * **Streaming** — each worker feeds its end-ordered interval stream
//!   into the k-way [`ute_merge::LoserTreeMerge`] through a bounded
//!   channel ([`source::ChannelSource`]), so the merge and the merged
//!   file writer overlap upstream conversion instead of waiting for all
//!   nodes.
//! * **Determinism** — output is byte-identical to the serial path for
//!   every `jobs` value. Headers are absorbed in input order on the
//!   consumer; per-node streams are produced by the *same* code the
//!   serial path runs; the merge tree breaks end-time ties by source
//!   index, which is input order; and the writer is shared. Nothing
//!   downstream can observe scheduling.
//!
//! Deadlock freedom: workers release their CPU permit before any
//! blocking channel send (see [`source::BatchSender`]), so a full
//! channel parks a worker without occupying the pool, and the consumer's
//! demand always reaches a runnable worker.
//!
//! `jobs == 1` (or a single input) short-circuits to the serial
//! functions — the parallel machinery is entirely bypassed.

pub mod pool;
pub mod source;

use std::sync::atomic::AtomicI64;

use crossbeam::channel;
use crossbeam::thread as cb_thread;

use ute_convert::{
    convert_job_opts, convert_node_tapped, node_threads, ConvertOptions, ConvertOutput, MarkerMap,
};
use ute_core::error::{Result, UteError};
use ute_format::file::IntervalFileReader;
use ute_format::profile::Profile;
use ute_format::record::Interval;
use ute_format::thread_table::ThreadTable;
use ute_format::Retimed;
use ute_merge::clockfit::NodeFit;
use ute_merge::{
    absorb_file_header, absorb_header_tables, adjust_intervals, adjust_node_records, build_slog,
    plan_boundaries, split_stream, write_merged_stream, IvSource, LoserTreeMerge, MergeOptions,
    MergeOutput, MergeStats,
};
use ute_rawtrace::file::RawTraceFile;
use ute_slog::builder::BuildOptions;
use ute_slog::file::SlogFile;

use pool::Semaphore;
use source::{BatchSender, ChannelSource, CHANNEL_BATCHES};

/// Error message a worker reports when the merge consumer disappeared
/// mid-stream. Secondary by construction — the consumer's own error is
/// the interesting one — so result collection filters it out.
const CONSUMER_GONE: &str = "pipeline: merge consumer stopped";

fn is_consumer_gone(e: &UteError) -> bool {
    matches!(e, UteError::Invalid(m) if m == CONSUMER_GONE)
}

pub(crate) fn consumer_gone() -> UteError {
    UteError::Invalid(CONSUMER_GONE.into())
}

/// The default worker count: the machine's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Picks the first *primary* error in deterministic order: worker errors
/// by input index (skipping the secondary consumer-gone report), then
/// the consumer's own error. `Ok` only if every part succeeded.
fn first_error<T, C>(
    workers: Vec<cb_thread::Result<Result<T>>>,
    consumer: Result<C>,
) -> Result<(Vec<T>, C)> {
    let mut oks = Vec::with_capacity(workers.len());
    let mut secondary = None;
    for r in workers {
        match r.map_err(|_| UteError::Invalid("pipeline worker panicked".into()))? {
            Ok(v) => oks.push(v),
            Err(e) if is_consumer_gone(&e) => secondary = Some(e),
            Err(e) => return Err(e),
        }
    }
    let c = consumer?;
    match secondary {
        // Consumer succeeded yet a worker saw it gone — can only mean
        // the stream ended early somehow; surface rather than swallow.
        Some(e) => Err(e),
        None => Ok((oks, c)),
    }
}

/// A merge-side worker's result: the node's clock fit and input record
/// count, or `None` when salvage mode degraded the node.
type WorkerFit = Option<(NodeFit, u64)>;

/// The header a fused convert worker publishes before streaming records
/// (thread table + marker list), or `None` for a degraded node.
type HeaderMsg = Option<(ThreadTable, Vec<(u32, String)>)>;

/// One node's merge-side worker: adjust the node under a CPU permit and
/// stream batches downstream.
///
/// Strict mode streams as it adjusts and fails the whole pipeline on
/// error. Salvage mode materializes the node's full adjusted vector
/// first — all-or-nothing, isolated by [`salvage_attempt`] — and only
/// then streams it, so a node that degrades mid-decode contributes
/// *nothing* and the merged bytes stay identical at every `jobs` value.
/// A degraded node returns `Ok(None)`; dropping `tx` ends its stream.
///
/// `parent` is the spawning thread's span ([`ute_obs::current_span`]
/// does not cross the spawn) and `link` the pre-allocated flow id tying
/// this worker's stream to the merge consumer in the self-trace.
#[allow(clippy::too_many_arguments)]
fn produce_adjusted<'r>(
    reader: &'r IntervalFileReader<'_>,
    profile: &Profile,
    opts: &MergeOptions,
    sem: &Semaphore,
    tx: channel::Sender<Vec<Retimed<'r>>>,
    depth: &AtomicI64,
    parent: u64,
    link: u64,
) -> Result<WorkerFit> {
    let permit = sem.acquire();
    let _span = ute_obs::Span::enter_under(
        "pipeline",
        format!("adjust worker node {}", reader.node),
        parent,
    );
    if !opts.salvage {
        let mut sender = BatchSender::new(tx, sem, permit, depth, link);
        let out = adjust_node_records(reader, profile, opts, |rec| sender.push(rec))?;
        sender.finish()?;
        return Ok(Some(out));
    }
    let attempt = || {
        let mut adjusted = Vec::new();
        let out = adjust_node_records(reader, profile, opts, |rec| {
            adjusted.push(rec);
            Ok(())
        })?;
        Ok((adjusted, out))
    };
    match salvage_attempt(attempt, &format!("node {}", reader.node)) {
        Some((adjusted, out)) => {
            let mut sender = BatchSender::new(tx, sem, permit, depth, link);
            for iv in adjusted {
                sender.push(iv)?;
            }
            sender.finish()?;
            Ok(Some(out))
        }
        None => Ok(None),
    }
}

/// Runs a salvage-mode worker stage with panic isolation and one
/// bounded retry: a panicking or erroring attempt is retried once
/// (`pipeline/worker_retries`), then the node is dropped with a warning
/// and `None`. A poisoned worker therefore never wedges the bounded
/// channels or the k-way merge — it just ends its stream early.
fn salvage_attempt<T>(attempt: impl Fn() -> Result<T>, who: &str) -> Option<T> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let run = |a: &dyn Fn() -> Result<T>| match catch_unwind(AssertUnwindSafe(a)) {
        Ok(r) => r,
        Err(_) => Err(UteError::Invalid("worker panicked".into())),
    };
    match run(&attempt) {
        Ok(v) => Some(v),
        Err(first) => {
            ute_obs::counter("pipeline/worker_retries").inc();
            match run(&attempt) {
                Ok(v) => Some(v),
                Err(_) => {
                    ute_merge::salvage_warn(who, &first.to_string());
                    None
                }
            }
        }
    }
}

/// Runs the headers-then-streams topology shared by [`merge_files_jobs`]
/// and [`slogmerge_jobs`]: spawns one producer per open reader, then
/// hands the channel-fed merge iterator to `consume` on the calling
/// thread. Headers were already absorbed serially by the caller. The
/// records streamed are views into the readers' files.
fn merge_streamed<'r, T>(
    readers: &'r [IntervalFileReader<'_>],
    profile: &Profile,
    opts: &MergeOptions,
    jobs: usize,
    consume: impl FnOnce(LoserTreeMerge<ChannelSource<'_, Retimed<'r>>>) -> Result<T>,
) -> Result<(Vec<WorkerFit>, T)> {
    let sem = Semaphore::new(jobs);
    let depth = AtomicI64::new(0);
    ute_obs::gauge("pipeline/jobs").set(jobs as f64);
    // Workers run on their own threads, so the thread-local span stack
    // does not follow them: capture the current span here and parent
    // each worker's span under it explicitly.
    let parent = ute_obs::current_span();
    let (workers, consumed) = cb_thread::scope(|s| {
        let sem = &sem;
        let depth = &depth;
        let mut sources = Vec::with_capacity(readers.len());
        let mut handles = Vec::with_capacity(readers.len());
        for reader in readers {
            let (tx, rx) = channel::bounded(CHANNEL_BATCHES);
            // One flow link per worker→consumer stream, allocated here
            // on the spawning thread in input order.
            let link = ute_obs::new_link();
            sources.push(ChannelSource::new(rx, depth, link));
            handles.push(s.spawn(move |_| {
                produce_adjusted(reader, profile, opts, sem, tx, depth, parent, link)
            }));
        }
        let consumed = {
            let _span = ute_obs::Span::enter("pipeline", "merge consumer");
            consume(LoserTreeMerge::new(sources))
        };
        let workers: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        (workers, consumed)
    })
    .map_err(|_| UteError::Invalid("pipeline scope panicked".into()))?;
    first_error(workers, consumed)
}

/// [`ute_merge::merge_files`] on `jobs` workers. Byte-identical output
/// for every `jobs` value; `jobs <= 1` runs the serial path directly.
pub fn merge_files_jobs(
    files: &[&[u8]],
    profile: &Profile,
    opts: &MergeOptions,
    jobs: usize,
) -> Result<MergeOutput> {
    if jobs <= 1 || files.len() <= 1 {
        return ute_merge::merge_files(files, profile, opts);
    }
    let mut stats = MergeStats::default();
    let mut union_threads = ThreadTable::new();
    let mut markers: Vec<(u32, String)> = Vec::new();
    let mut readers = Vec::with_capacity(files.len());
    open_and_absorb(
        files,
        profile,
        opts,
        &mut union_threads,
        &mut markers,
        &mut stats,
        &mut readers,
    )?;
    markers.sort_by_key(|(id, _)| *id);
    let (fits, merged) = merge_streamed(&readers, profile, opts, jobs, |merge| {
        write_merged_stream(profile, &union_threads, &markers, opts, merge, &mut stats)
    })?;
    collect_fits(fits, &mut stats);
    Ok(MergeOutput { merged, stats })
}

/// The serial open-and-absorb prologue both parallel entry points run:
/// every openable input's header joins the union tables in input order;
/// in salvage mode an input that fails to open or absorb is dropped and
/// counted instead of aborting. This mirrors [`ute_merge::merge_files`]'s
/// serial loop exactly, which is what keeps the union tables — and so
/// the merged bytes — identical at every `jobs` value.
fn open_and_absorb<'a>(
    files: &[&'a [u8]],
    profile: &'a Profile,
    opts: &MergeOptions,
    union_threads: &mut ThreadTable,
    markers: &mut Vec<(u32, String)>,
    stats: &mut MergeStats,
    readers: &mut Vec<IntervalFileReader<'a>>,
) -> Result<()> {
    for (i, bytes) in files.iter().enumerate() {
        let reader = match IntervalFileReader::open(bytes, profile) {
            Ok(r) => r,
            Err(e) if opts.salvage => {
                ute_merge::degrade_node(stats, &format!("input {i}"), &e.to_string());
                continue;
            }
            Err(e) => return Err(e),
        };
        match absorb_file_header(&reader, union_threads, markers) {
            Ok(()) => readers.push(reader),
            Err(e) if opts.salvage => {
                ute_merge::degrade_node(stats, &format!("node {}", reader.node), &e.to_string());
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Folds worker results into the stats: `None` marks a salvage-mode
/// degraded node.
fn collect_fits(fits: Vec<WorkerFit>, stats: &mut MergeStats) {
    for f in fits {
        match f {
            Some((nf, records_in)) => {
                stats.records_in += records_in;
                stats.fits.push(nf);
            }
            None => stats.nodes_degraded += 1,
        }
    }
}

/// [`ute_merge::slogmerge`] on `jobs` workers: the merged stream is
/// collected while workers still adjust, then built into a SLOG file.
pub fn slogmerge_jobs(
    files: &[&[u8]],
    profile: &Profile,
    opts: &MergeOptions,
    build: BuildOptions,
    jobs: usize,
) -> Result<(SlogFile, MergeStats)> {
    if jobs <= 1 || files.len() <= 1 {
        return ute_merge::slogmerge(files, profile, opts, build);
    }
    let mut stats = MergeStats::default();
    let mut union_threads = ThreadTable::new();
    let mut markers: Vec<(u32, String)> = Vec::new();
    let mut readers = Vec::with_capacity(files.len());
    open_and_absorb(
        files,
        profile,
        opts,
        &mut union_threads,
        &mut markers,
        &mut stats,
        &mut readers,
    )?;
    markers.sort_by_key(|(id, _)| *id);
    let (fits, slog) = merge_streamed(&readers, profile, opts, jobs, |merge| {
        build_slog(profile, build, merge, &union_threads, &markers, &mut stats)
    })?;
    collect_fits(fits, &mut stats);
    Ok((slog, stats))
}

/// The fused pipeline's result: per-node converted files (in input
/// order, same bytes as staged conversion) plus the merged output.
#[derive(Debug)]
pub struct PipelineOutput {
    /// Per-node conversion results, in input order.
    pub converted: Vec<ConvertOutput>,
    /// The merged interval file and statistics.
    pub merged: MergeOutput,
}

/// One node's fused worker: convert raw events, publish the converted
/// file's header, then clock-adjust and stream intervals — all under
/// the CPU permit except blocking sends.
///
/// Fusion skips the encode/decode round-trip: the converter taps every
/// record it writes into an in-memory vector, and the merge stage
/// consumes that vector directly ([`adjust_intervals`]). The staged
/// path decodes each converted file twice (clock-fit pass + adjust
/// pass); this path decodes it zero times. The header tables sent
/// downstream are the very tables the converter embedded in the file,
/// so the absorbed union is identical to the staged path's.
/// In salvage mode the convert attempt and the adjust attempt are each
/// isolated by [`salvage_attempt`]: a node that fails conversion sends a
/// `None` header and no records; one that converts but fails adjustment
/// sends its real header (matching the staged path, which absorbs a
/// degraded file's header before dropping its records) and no records.
#[allow(clippy::too_many_arguments)]
fn produce_converted(
    file: &RawTraceFile,
    threads: &ThreadTable,
    profile: &Profile,
    markers: &MarkerMap,
    copts: &ConvertOptions,
    mopts: &MergeOptions,
    sem: &Semaphore,
    header_tx: channel::Sender<HeaderMsg>,
    tx: channel::Sender<Vec<Interval>>,
    depth: &AtomicI64,
    parent: u64,
    link: u64,
) -> Result<(Option<ConvertOutput>, WorkerFit)> {
    let permit = sem.acquire();
    let node_raw = file.node.raw();
    let _span = ute_obs::Span::enter_under(
        "pipeline",
        format!("convert worker node {node_raw}"),
        parent,
    );
    let who = format!("node {node_raw}");
    let convert = || {
        let mut tapped: Vec<Interval> = Vec::new();
        let out = convert_node_tapped(file, threads, profile, markers, copts, &mut |iv| {
            testhook::fire(node_raw);
            tapped.push(iv.clone())
        })?;
        Ok((out, tapped))
    };
    let converted = if mopts.salvage {
        salvage_attempt(convert, &who)
    } else {
        Some(convert()?)
    };
    let Some((out, tapped)) = converted else {
        let _ = header_tx.send(None);
        return Ok((None, None));
    };
    let node_table = node_threads(threads, file.node);
    // Capacity-1 channel, single send: never blocks. A send error means
    // the consumer already failed; the interval sends below will report
    // it as the usual secondary consumer-gone error.
    let _ = header_tx.send(Some((node_table.clone(), markers.table().to_vec())));
    drop(header_tx);
    if !mopts.salvage {
        let mut sender = BatchSender::new(tx, sem, permit, depth, link);
        let (nf, records_in) =
            adjust_intervals(file.node.raw(), &node_table, tapped, profile, mopts, |iv| {
                sender.push(iv)
            })?;
        sender.finish()?;
        return Ok((Some(out), Some((nf, records_in))));
    }
    // Salvage: materialize the adjusted stream all-or-nothing before
    // streaming, exactly like the merge-side salvage worker.
    let adjust = || {
        let mut adjusted = Vec::new();
        let fit = adjust_intervals(
            file.node.raw(),
            &node_table,
            tapped.clone(),
            profile,
            mopts,
            |iv| {
                adjusted.push(iv);
                Ok(())
            },
        )?;
        Ok((adjusted, fit))
    };
    match salvage_attempt(adjust, &who) {
        Some((adjusted, fit)) => {
            let mut sender = BatchSender::new(tx, sem, permit, depth, link);
            for iv in adjusted {
                sender.push(iv)?;
            }
            sender.finish()?;
            Ok((Some(out), Some(fit)))
        }
        None => Ok((Some(out), None)),
    }
}

/// The fused parallel pipeline: converts every node's raw trace and
/// merges the results in one pass, with merge overlapping conversion —
/// the merged file is byte-identical to staged serial
/// convert-then-merge for every `jobs` value.
pub fn convert_and_merge(
    files: &[RawTraceFile],
    threads: &ThreadTable,
    profile: &Profile,
    copts: &ConvertOptions,
    mopts: &MergeOptions,
    jobs: usize,
) -> Result<PipelineOutput> {
    if jobs <= 1 || files.len() <= 1 {
        let (converted, convert_degraded) = if mopts.salvage {
            // Tolerant per-node conversion with the same retry/isolation
            // semantics as the parallel workers, so the same nodes
            // degrade at every jobs value.
            let markers = MarkerMap::build(files)?;
            let mut out = Vec::with_capacity(files.len());
            let mut degraded = 0u64;
            for f in files {
                let who = format!("node {}", f.node.raw());
                match salvage_attempt(
                    || ute_convert::convert_node_opts(f, threads, profile, &markers, copts),
                    &who,
                ) {
                    Some(c) => out.push(c),
                    None => degraded += 1,
                }
            }
            (out, degraded)
        } else {
            (convert_job_opts(files, threads, profile, copts, false)?, 0)
        };
        let refs: Vec<&[u8]> = converted
            .iter()
            .map(|c| c.interval_file.as_slice())
            .collect();
        let mut merged = ute_merge::merge_files(&refs, profile, mopts)?;
        merged.stats.nodes_degraded += convert_degraded;
        return Ok(PipelineOutput { converted, merged });
    }
    // Marker-id unification needs a global view, so the map is built
    // serially up front (a cheap scan) — exactly as staged conversion
    // does, keeping converted bytes identical.
    let marker_map = MarkerMap::build(files)?;
    let mut stats = MergeStats::default();
    let sem = Semaphore::new(jobs);
    let depth = AtomicI64::new(0);
    ute_obs::gauge("pipeline/jobs").set(jobs as f64);
    // See merge_streamed: workers adopt the spawning thread's span as
    // their explicit parent, and each stream gets a flow link.
    let parent = ute_obs::current_span();
    let (workers, merged) = cb_thread::scope(|s| {
        let sem = &sem;
        let depth = &depth;
        let marker_map = &marker_map;
        let mut sources = Vec::with_capacity(files.len());
        let mut header_rxs = Vec::with_capacity(files.len());
        let mut handles = Vec::with_capacity(files.len());
        for file in files {
            let (header_tx, header_rx) = channel::bounded(1);
            let (tx, rx) = channel::bounded(CHANNEL_BATCHES);
            let link = ute_obs::new_link();
            sources.push(ChannelSource::new(rx, depth, link));
            header_rxs.push(header_rx);
            handles.push(s.spawn(move |_| {
                produce_converted(
                    file, threads, profile, marker_map, copts, mopts, sem, header_tx, tx, depth,
                    parent, link,
                )
            }));
        }
        // Absorb headers in input order; workers stream on regardless
        // (their bounded channels absorb the head start).
        let consumed = (|| {
            let _span = ute_obs::Span::enter("pipeline", "merge consumer");
            let mut union_threads = ThreadTable::new();
            let mut markers: Vec<(u32, String)> = Vec::new();
            for header_rx in header_rxs {
                // `None` is a salvage-mode degraded node: no header, no
                // records — the same absence the staged path produces.
                let Some((t, m)) = header_rx.recv().map_err(|_| consumer_gone())? else {
                    continue;
                };
                absorb_header_tables(&t, &m, &mut union_threads, &mut markers)?;
            }
            markers.sort_by_key(|(id, _)| *id);
            write_merged_stream(
                profile,
                &union_threads,
                &markers,
                mopts,
                LoserTreeMerge::new(sources),
                &mut stats,
            )
        })();
        let workers: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        (workers, consumed)
    })
    .map_err(|_| UteError::Invalid("pipeline scope panicked".into()))?;
    let (parts, merged) = first_error(workers, merged)?;
    let mut converted = Vec::with_capacity(parts.len());
    for (out, fit) in parts {
        match fit {
            Some((nf, records_in)) => {
                stats.records_in += records_in;
                stats.fits.push(nf);
            }
            None => stats.nodes_degraded += 1,
        }
        if let Some(out) = out {
            converted.push(out);
        }
    }
    Ok(PipelineOutput {
        converted,
        merged: MergeOutput { merged, stats },
    })
}

/// One node's phase-A worker for the sharded pipeline: convert and
/// clock-adjust under a CPU permit, materializing the adjusted stream
/// instead of streaming it over a channel. Salvage semantics mirror
/// [`produce_converted`] exactly: a node that fails conversion
/// contributes no header and no records; one that converts but fails
/// adjustment contributes its real header and no records — so the same
/// nodes degrade, and the same bytes come out, at every `jobs` value.
#[allow(clippy::type_complexity, clippy::too_many_arguments)]
fn convert_adjust_materialized(
    file: &RawTraceFile,
    threads: &ThreadTable,
    profile: &Profile,
    markers: &MarkerMap,
    copts: &ConvertOptions,
    mopts: &MergeOptions,
    sem: &Semaphore,
    parent: u64,
) -> Result<(Option<ConvertOutput>, HeaderMsg, WorkerFit, Vec<Interval>)> {
    let _permit = sem.acquire();
    let node_raw = file.node.raw();
    let _span = ute_obs::Span::enter_under(
        "pipeline",
        format!("convert worker node {node_raw}"),
        parent,
    );
    let who = format!("node {node_raw}");
    let convert = || {
        let mut tapped: Vec<Interval> = Vec::new();
        let out = convert_node_tapped(file, threads, profile, markers, copts, &mut |iv| {
            testhook::fire(node_raw);
            tapped.push(iv.clone())
        })?;
        Ok((out, tapped))
    };
    let converted = if mopts.salvage {
        salvage_attempt(convert, &who)
    } else {
        Some(convert()?)
    };
    let Some((out, tapped)) = converted else {
        return Ok((None, None, None, Vec::new()));
    };
    let node_table = node_threads(threads, file.node);
    let header = Some((node_table.clone(), markers.table().to_vec()));
    if !mopts.salvage {
        let mut adjusted = Vec::new();
        let fit = adjust_intervals(node_raw, &node_table, tapped, profile, mopts, |iv| {
            adjusted.push(iv);
            Ok(())
        })?;
        return Ok((Some(out), header, Some(fit), adjusted));
    }
    let adjust = || {
        let mut adjusted = Vec::new();
        let fit = adjust_intervals(
            node_raw,
            &node_table,
            tapped.clone(),
            profile,
            mopts,
            |iv| {
                adjusted.push(iv);
                Ok(())
            },
        )?;
        Ok((adjusted, fit))
    };
    match salvage_attempt(adjust, &who) {
        Some((adjusted, fit)) => Ok((Some(out), header, Some(fit), adjusted)),
        None => Ok((Some(out), header, None, Vec::new())),
    }
}

/// The two-phase *sharded* variant of [`convert_and_merge`]: phase A
/// converts and clock-adjusts every node in parallel, materializing each
/// node's end-ordered stream; phase B plans time-range shard boundaries
/// at the frame-directory stride ([`plan_boundaries`]), merges each
/// shard on its own worker, and stitches the shard outputs — strictly in
/// shard order — into the single merged writer while later shards are
/// still merging.
///
/// Where [`convert_and_merge`] parallelizes conversion but funnels the
/// k-way merge through one consumer thread, this path parallelizes the
/// merge itself. Output is byte-identical to [`convert_and_merge`] (and
/// to staged serial convert-then-merge) at every `jobs` value: the
/// half-open shard partition keeps every equal-end tie inside one shard
/// (see [`ute_merge::shard`]), so the stitched sequence — and therefore
/// every frame boundary and §3.3 pseudo-record the writer derives from
/// it — is exactly the global merge sequence.
pub fn convert_and_merge_sharded(
    files: &[RawTraceFile],
    threads: &ThreadTable,
    profile: &Profile,
    copts: &ConvertOptions,
    mopts: &MergeOptions,
    jobs: usize,
) -> Result<PipelineOutput> {
    if jobs <= 1 || files.len() <= 1 {
        return convert_and_merge(files, threads, profile, copts, mopts, jobs);
    }
    let marker_map = MarkerMap::build(files)?;
    let sem = Semaphore::new(jobs);
    ute_obs::gauge("pipeline/jobs").set(jobs as f64);
    let parent = ute_obs::current_span();
    // Phase A: fan out one convert+adjust worker per node.
    let parts = cb_thread::scope(|s| {
        let sem = &sem;
        let marker_map = &marker_map;
        let handles: Vec<_> = files
            .iter()
            .map(|file| {
                s.spawn(move |_| {
                    convert_adjust_materialized(
                        file, threads, profile, marker_map, copts, mopts, sem, parent,
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()
    })
    .map_err(|_| UteError::Invalid("pipeline scope panicked".into()))?;
    let mut stats = MergeStats::default();
    let mut union_threads = ThreadTable::new();
    let mut markers: Vec<(u32, String)> = Vec::new();
    let mut converted = Vec::with_capacity(files.len());
    let mut streams: Vec<Vec<Interval>> = Vec::with_capacity(files.len());
    // Input order throughout: header absorption and stream order (the
    // merge's tie-break) are both defined by it.
    for joined in parts {
        let (out, header, fit, adjusted) =
            joined.map_err(|_| UteError::Invalid("pipeline worker panicked".into()))??;
        if let Some((t, m)) = header {
            absorb_header_tables(&t, &m, &mut union_threads, &mut markers)?;
        }
        match fit {
            Some((nf, records_in)) => {
                stats.records_in += records_in;
                stats.fits.push(nf);
            }
            None => stats.nodes_degraded += 1,
        }
        if let Some(out) = out {
            converted.push(out);
        }
        if !adjusted.is_empty() {
            streams.push(adjusted);
        }
    }
    markers.sort_by_key(|(id, _)| *id);
    // Phase B: partition the time line at the frame-directory stride and
    // merge each shard on its own worker.
    let stride = mopts
        .policy
        .max_records_per_frame
        .saturating_mul(mopts.policy.max_frames_per_dir);
    let boundaries = plan_boundaries(&streams, stride, jobs);
    let nshards = boundaries.len() + 1;
    ute_obs::gauge("pipeline/merge_shards").set(nshards as f64);
    let mut seg: Vec<Vec<Vec<Interval>>> = (0..nshards).map(|_| Vec::new()).collect();
    for stream in streams {
        for (sh, part) in split_stream(stream, &boundaries).into_iter().enumerate() {
            seg[sh].push(part);
        }
    }
    let merged_bytes = cb_thread::scope(|s| {
        let sem = &sem;
        let handles: Vec<_> = seg
            .into_iter()
            .enumerate()
            .map(|(i, shard)| {
                s.spawn(move |_| {
                    let _permit = sem.acquire();
                    let _span =
                        ute_obs::Span::enter_under("pipeline", format!("merge shard {i}"), parent);
                    let sources: Vec<IvSource> = shard.into_iter().map(IvSource::new).collect();
                    LoserTreeMerge::new(sources).collect::<Vec<Interval>>()
                })
            })
            .collect();
        // Stitch: consume shard outputs strictly in shard order; shard
        // s+1 keeps merging while shard s is being written.
        let _span = ute_obs::Span::enter("pipeline", "sharded stitch");
        let stitched = handles
            .into_iter()
            .flat_map(|h| h.join().expect("shard merge worker panicked"));
        write_merged_stream(
            profile,
            &union_threads,
            &markers,
            mopts,
            stitched,
            &mut stats,
        )
    })
    .map_err(|_| UteError::Invalid("pipeline scope panicked".into()))??;
    Ok(PipelineOutput {
        converted,
        merged: MergeOutput {
            merged: merged_bytes,
            stats,
        },
    })
}

/// Fault-injection hook for regression tests: arms a one-shot panic
/// inside a fused convert worker's record tap, so tests can verify that
/// `catch_unwind` isolation closes (marks aborted) the worker's open
/// spans and that the salvage retry still produces clean output. The
/// disarmed fast path is a single relaxed atomic load per record —
/// the same cost class as the always-on counters.
#[doc(hidden)]
pub mod testhook {
    use std::sync::atomic::{AtomicI64, Ordering};

    /// Node whose next tapped record panics, or -1 when disarmed.
    static PANIC_NODE: AtomicI64 = AtomicI64::new(-1);

    /// Arms a one-shot panic in the fused convert worker for `node`.
    pub fn arm_convert_panic(node: u16) {
        PANIC_NODE.store(node as i64, Ordering::SeqCst);
    }

    #[inline]
    pub(crate) fn fire(node: u16) {
        if PANIC_NODE.load(Ordering::Relaxed) == node as i64
            && PANIC_NODE
                .compare_exchange(node as i64, -1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            panic!("testhook: injected convert panic on node {node}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ute_cluster::Simulator;
    use ute_format::file::FramePolicy;
    use ute_workloads::micro;

    /// Simulates and converts a small stencil run, surfacing the full
    /// error (not a bare unwrap panic) when any stage refuses.
    fn converted_files() -> Result<(Profile, Vec<Vec<u8>>)> {
        let w = micro::stencil(6, 8, 8 << 10);
        let result = Simulator::new(w.config, &w.job)?.run()?;
        let profile = Profile::standard();
        let copts = ConvertOptions {
            policy: FramePolicy {
                max_records_per_frame: 64,
                max_frames_per_dir: 4,
            },
            ..ConvertOptions::default()
        };
        let converted =
            convert_job_opts(&result.raw_files, &result.threads, &profile, &copts, false)?;
        Ok((
            profile,
            converted.into_iter().map(|c| c.interval_file).collect(),
        ))
    }

    #[test]
    fn parallel_merge_is_byte_identical_to_serial() -> Result<()> {
        let (profile, per_node) = converted_files()?;
        let refs: Vec<&[u8]> = per_node.iter().map(|f| f.as_slice()).collect();
        let opts = MergeOptions::default();
        let serial = ute_merge::merge_files(&refs, &profile, &opts)?;
        for jobs in [2, 3, 8] {
            let parallel = merge_files_jobs(&refs, &profile, &opts, jobs)?;
            assert_eq!(
                serial.merged, parallel.merged,
                "merged bytes differ at jobs={jobs}"
            );
            assert_eq!(serial.stats.records_in, parallel.stats.records_in);
            assert_eq!(serial.stats.records_out, parallel.stats.records_out);
            assert_eq!(serial.stats.pseudo_added, parallel.stats.pseudo_added);
            assert_eq!(serial.stats.fits.len(), parallel.stats.fits.len());
        }
        Ok(())
    }

    #[test]
    fn parallel_slogmerge_matches_serial() -> Result<()> {
        let (profile, per_node) = converted_files()?;
        let refs: Vec<&[u8]> = per_node.iter().map(|f| f.as_slice()).collect();
        let opts = MergeOptions::default();
        let build = BuildOptions {
            nframes: 8,
            preview_bins: 16,
            arrows: true,
        };
        let (serial, _) = ute_merge::slogmerge(&refs, &profile, &opts, build)?;
        let (parallel, _) = slogmerge_jobs(&refs, &profile, &opts, build, 4)?;
        assert_eq!(serial.to_bytes(), parallel.to_bytes());
        Ok(())
    }

    #[test]
    fn fused_pipeline_matches_staged_serial() -> Result<()> {
        let w = micro::sendrecv_shift(5, 6, 4 << 10);
        let result = Simulator::new(w.config, &w.job)?.run()?;
        let profile = Profile::standard();
        let copts = ConvertOptions {
            policy: FramePolicy::default(),
            ..ConvertOptions::default()
        };
        let mopts = MergeOptions::default();
        let staged = convert_and_merge(
            &result.raw_files,
            &result.threads,
            &profile,
            &copts,
            &mopts,
            1,
        )?;
        for jobs in [2, 4, 8] {
            let fused = convert_and_merge(
                &result.raw_files,
                &result.threads,
                &profile,
                &copts,
                &mopts,
                jobs,
            )?;
            assert_eq!(
                staged.merged.merged, fused.merged.merged,
                "merged bytes differ at jobs={jobs}"
            );
            assert_eq!(staged.converted.len(), fused.converted.len());
            for (a, b) in staged.converted.iter().zip(&fused.converted) {
                assert_eq!(a.node, b.node);
                assert_eq!(a.interval_file, b.interval_file);
            }
        }
        Ok(())
    }

    #[test]
    fn sharded_pipeline_matches_streamed_and_serial() -> Result<()> {
        let w = micro::sendrecv_shift(5, 6, 4 << 10);
        let result = Simulator::new(w.config, &w.job)?.run()?;
        let profile = Profile::standard();
        // Tiny frames so shard boundaries land at many frame edges.
        let copts = ConvertOptions {
            policy: FramePolicy {
                max_records_per_frame: 32,
                max_frames_per_dir: 2,
            },
            ..ConvertOptions::default()
        };
        let mopts = MergeOptions {
            policy: FramePolicy {
                max_records_per_frame: 32,
                max_frames_per_dir: 2,
            },
            ..MergeOptions::default()
        };
        let serial = convert_and_merge(
            &result.raw_files,
            &result.threads,
            &profile,
            &copts,
            &mopts,
            1,
        )?;
        for jobs in [2, 3, 8] {
            let sharded = convert_and_merge_sharded(
                &result.raw_files,
                &result.threads,
                &profile,
                &copts,
                &mopts,
                jobs,
            )?;
            assert_eq!(
                serial.merged.merged, sharded.merged.merged,
                "sharded merged bytes differ at jobs={jobs}"
            );
            assert_eq!(
                serial.merged.stats.pseudo_added,
                sharded.merged.stats.pseudo_added
            );
            assert_eq!(serial.converted.len(), sharded.converted.len());
            for (a, b) in serial.converted.iter().zip(&sharded.converted) {
                assert_eq!(a.interval_file, b.interval_file);
            }
        }
        Ok(())
    }

    #[test]
    fn corrupt_input_reports_the_error_at_any_job_count() {
        let (profile, mut per_node) =
            converted_files().expect("clean stencil run must simulate and convert");
        // Truncate one file mid-body so decoding fails after the header.
        let keep = per_node[2].len() - 7;
        per_node[2].truncate(keep);
        let refs: Vec<&[u8]> = per_node.iter().map(|f| f.as_slice()).collect();
        let opts = MergeOptions::default();
        for jobs in [1, 4] {
            assert!(
                merge_files_jobs(&refs, &profile, &opts, jobs).is_err(),
                "corruption undetected at jobs={jobs}"
            );
        }
    }
}
