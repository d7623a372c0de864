//! # ute-pipeline — the parallel merge, with a determinism guarantee
//!
//! The paper's Table 1 makes convert and merge the throughput-critical
//! stages between trace generation and visualization. Convert is a map
//! over node files ([`ute_convert::convert_job_pooled`]); this crate is
//! the other half — `ute merge` and `ute slogmerge` at `--jobs N` —
//! and runs without changing a single output byte:
//!
//! * **Fan-out** — one worker per converted node file fits the node's
//!   clock (§2.2) and clock-adjusts its records
//!   ([`ute_merge::adjust_node_records`]). CPU concurrency is bounded by
//!   a [`pool::Semaphore`] with `jobs` permits.
//! * **Streaming** — each worker feeds its end-ordered record stream
//!   into the k-way [`ute_merge::LoserTreeMerge`] through a bounded
//!   channel ([`source::ChannelSource`]), so the merge and the merged
//!   file writer overlap upstream decoding instead of waiting for all
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
//!
//! This is the only convert→merge executor: the CLI publishes the
//! converted files between the two stages (`ute pipeline` journals
//! them), so nothing here takes raw traces or hands records from a
//! converter to the merge in memory.

pub mod pool;
pub mod source;

use std::sync::atomic::AtomicI64;

use crossbeam::channel;
use crossbeam::thread as cb_thread;

use ute_core::error::{Result, UteError};
use ute_format::file::IntervalFileReader;
use ute_format::profile::Profile;
use ute_format::thread_table::ThreadTable;
use ute_format::Retimed;
use ute_merge::clockfit::NodeFit;
use ute_merge::{
    absorb_file_header, adjust_node_records, build_slog, write_merged_stream, LoserTreeMerge,
    MergeOptions, MergeOutput, MergeStats,
};
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
        let injected_panic = testhook::take_adjust_panic(reader.node);
        let mut adjusted = Vec::new();
        let out = adjust_node_records(reader, profile, opts, |rec| {
            if injected_panic {
                panic!("testhook: injected adjust panic on node {}", reader.node);
            }
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

/// Fault-injection hook for regression tests: arms a one-shot panic
/// inside a salvage-mode merge worker's record sink (the attempt
/// [`salvage_attempt`] guards in `produce_adjusted`), so tests can
/// verify that `catch_unwind` isolation closes (marks aborted) the
/// worker's open spans and that the retry still produces clean output.
/// Disarmed, it costs one relaxed atomic load per attempt — per node,
/// not per record.
#[doc(hidden)]
pub mod testhook {
    use std::sync::atomic::{AtomicI64, Ordering};

    /// Node whose next salvage attempt panics, or -1 when disarmed.
    static PANIC_NODE: AtomicI64 = AtomicI64::new(-1);

    /// Arms a one-shot panic in the salvage-mode adjust worker for
    /// `node`: its next attempt panics at its first record.
    pub fn arm_adjust_panic(node: u16) {
        PANIC_NODE.store(node as i64, Ordering::SeqCst);
    }

    /// Whether this attempt on `node` is the armed one; disarms.
    pub(crate) fn take_adjust_panic(node: u16) -> bool {
        PANIC_NODE.load(Ordering::Relaxed) == node as i64
            && PANIC_NODE
                .compare_exchange(node as i64, -1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ute_cluster::Simulator;
    use ute_convert::{convert_job_opts, ConvertOptions};
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

    /// A worker that saw the consumer go reports a secondary error: the
    /// consumer's own error outranks it, a worker's primary error
    /// outranks both, and it surfaces only when nothing else explains
    /// the early end.
    #[test]
    fn first_error_ranks_consumer_gone_below_every_primary_error() {
        let invalid = |m: &str| UteError::Invalid(m.into());
        let text = |r: Result<(Vec<()>, ())>| r.unwrap_err().to_string();
        let x = invalid("consumer failed: X").to_string();
        let y = invalid("worker failed: Y").to_string();

        let got = first_error(
            vec![Ok(Ok(())), Ok(Err(consumer_gone()))],
            Err::<(), _>(invalid("consumer failed: X")),
        );
        assert_eq!(text(got), x);

        let got = first_error(vec![Ok(Ok(())), Ok(Err(consumer_gone()))], Ok(()));
        assert_eq!(text(got), consumer_gone().to_string());

        let got = first_error(
            vec![
                Ok(Err(invalid("worker failed: Y"))),
                Ok(Err(consumer_gone())),
            ],
            Err::<(), _>(invalid("consumer failed: X")),
        );
        assert_eq!(text(got), y);
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
