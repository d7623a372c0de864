//! The merge pipeline.

use std::collections::BTreeMap;

use ute_clock::ratio::RatioEstimator;
use ute_core::bebits::BeBits;
use ute_core::error::{Result, UteError};
use ute_core::ids::{CpuId, LogicalThreadId, NodeId, ThreadType};
use ute_core::pool::map_ordered;
use ute_core::time::LocalTime;
use ute_format::file::{FramePolicy, IntervalFileReader, IntervalFileWriter, MERGED_NODE};
use ute_format::profile::{Profile, MASK_MERGED};
use ute_format::record::{Interval, IntervalType};
use ute_format::state::StateCode;
use ute_format::thread_table::ThreadTable;
use ute_format::{widen_span, Record, RecordFields, Retimed};
use ute_slog::builder::{BuildOptions, SlogBuilder};
use ute_slog::file::SlogFile;

use crate::clockfit::{fit_node, NodeFit};
use crate::kway::{LoserTreeMerge, MergeSource};

/// Merge configuration.
#[derive(Debug, Clone)]
pub struct MergeOptions {
    /// Which §2.2 estimator computes each node's ratio `R`.
    pub estimator: RatioEstimator,
    /// Whether to drop §5 deschedule outliers before fitting.
    pub filter_outliers: bool,
    /// Frame policy of the merged output file.
    pub policy: FramePolicy,
    /// If set, only records of threads with these types are merged —
    /// §2.3.3: the thread-table categories "provide a way to choose
    /// specific threads for merging". Clock records always pass.
    pub thread_types: Option<Vec<ThreadType>>,
    /// Whether to add the §3.3 zero-duration continuation intervals at
    /// the head of each output frame.
    pub frame_pseudo_intervals: bool,
    /// Salvage mode: a node whose interval file fails to open, absorb,
    /// fit, or adjust (including a panic in the per-node stage) is
    /// dropped whole and counted in [`MergeStats::nodes_degraded`]
    /// instead of aborting the merge. Off by default — library callers
    /// get fail-fast unless they opt in.
    pub salvage: bool,
    /// Nodes known missing before the merge started (e.g. a per-node
    /// file absent on disk). Each gets a zero-duration [`StateCode::GAP`]
    /// pseudo-record at the head of the merged stream so downstream
    /// consumers can see the hole.
    pub gap_nodes: Vec<u16>,
}

impl Default for MergeOptions {
    fn default() -> Self {
        MergeOptions {
            estimator: RatioEstimator::RmsSegments,
            filter_outliers: true,
            policy: FramePolicy::default(),
            thread_types: None,
            frame_pseudo_intervals: true,
            salvage: false,
            gap_nodes: Vec::new(),
        }
    }
}

/// Merge statistics.
#[derive(Debug, Clone, Default)]
pub struct MergeStats {
    /// Records read across all inputs.
    pub records_in: u64,
    /// Records written to the merged file (including pseudo records).
    pub records_out: u64,
    /// §3.3 pseudo continuation records added at frame heads.
    pub pseudo_added: u64,
    /// Salvage mode: inputs dropped whole because they failed to open,
    /// absorb, fit, or adjust.
    pub nodes_degraded: u64,
    /// Per-node clock fits used for adjustment.
    pub fits: Vec<NodeFit>,
}

/// The merged interval file plus statistics.
#[derive(Debug)]
pub struct MergeOutput {
    /// Serialized merged interval file ([`MASK_MERGED`]).
    pub merged: Vec<u8>,
    /// Statistics.
    pub stats: MergeStats,
}

/// What travels through the merge: a record whose fields can be read
/// where it is, that a merged file's writer can append, and that can be
/// decoded when something needs all of it.
///
/// The shipped merge moves [`Retimed`] — the input file's bytes plus the
/// adjusted start and duration. [`Interval`] is the other implementor:
/// the reference the byte-carrying path is tested against.
pub trait MergeItem: RecordFields {
    /// Appends the record to a merged file.
    fn write_to(&self, w: &mut IntervalFileWriter<'_>) -> Result<()>;
    /// The record, decoded.
    fn to_interval(&self) -> Interval;
}

impl MergeItem for Interval {
    fn write_to(&self, w: &mut IntervalFileWriter<'_>) -> Result<()> {
        w.push(self)
    }

    fn to_interval(&self) -> Interval {
        self.clone()
    }
}

impl MergeItem for Retimed<'_> {
    fn write_to(&self, w: &mut IntervalFileWriter<'_>) -> Result<()> {
        w.push_retimed(self)
    }

    fn to_interval(&self) -> Interval {
        Retimed::to_interval(self)
    }
}

/// A [`MergeSource`] over an in-memory, end-ordered vector of records:
/// one node's cursor into the [`LoserTreeMerge`].
pub struct VecSource<T> {
    items: std::vec::IntoIter<T>,
}

/// [`VecSource`] over decoded intervals.
pub type IvSource = VecSource<Interval>;

impl<T> VecSource<T> {
    /// Wraps an end-ordered vector.
    pub fn new(items: Vec<T>) -> VecSource<T> {
        VecSource {
            items: items.into_iter(),
        }
    }

    /// The records not yet merged.
    pub fn as_slice(&self) -> &[T] {
        self.items.as_slice()
    }
}

impl<T: RecordFields> MergeSource for VecSource<T> {
    type Item = T;

    fn next_item(&mut self) -> Option<T> {
        self.items.next()
    }

    fn end_of(item: &T) -> u64 {
        item.end()
    }
}

/// Folds one input file's header into the union thread table and the
/// unified marker table. Must be called in input order — the union
/// tables (and therefore the merged file's header bytes) are defined by
/// that order.
pub fn absorb_file_header(
    reader: &IntervalFileReader<'_>,
    union_threads: &mut ThreadTable,
    markers: &mut Vec<(u32, String)>,
) -> Result<()> {
    union_threads.absorb(&reader.threads)?;
    for (id, name) in &reader.markers {
        match markers.iter().find(|(i, _)| i == id) {
            Some((_, existing)) if existing != name => {
                return Err(UteError::Invalid(format!(
                    "marker id {id} names both \"{existing}\" and \"{name}\"; \
                     inputs were not converted together"
                )));
            }
            Some(_) => {}
            None => markers.push((*id, name.clone())),
        }
    }
    Ok(())
}

/// The per-node stage of the merge: fits the node's clock, then reads,
/// filters, and clock-adjusts its records into a vector ordered by
/// adjusted end — the stable sort by end, so ties keep file order.
/// Returns it with the node's fit and its raw record count.
///
/// A record goes out as a [`Retimed`]: still the bytes `reader` holds,
/// with the adjusted start and duration beside them.
pub fn adjust_node_records<'r>(
    reader: &'r IntervalFileReader<'_>,
    profile: &Profile,
    opts: &MergeOptions,
) -> Result<(Vec<Retimed<'r>>, NodeFit, u64)> {
    let _span = ute_obs::Span::enter("merge", format!("merge node {}", reader.node));
    if testhook::take_adjust_panic(reader.node) {
        panic!("testhook: injected adjust panic on node {}", reader.node);
    }
    let nf = fit_node(reader, profile, opts.estimator, opts.filter_outliers)?;
    let mut adjusted = Vec::new();
    let mut records_in = 0u64;
    for rec in reader.records() {
        let rec = rec?;
        records_in += 1;
        if let Some(types) = &opts.thread_types {
            if rec.itype().state != StateCode::CLOCK {
                let (node, thread) = (rec.node(), rec.thread());
                let ttype = reader
                    .threads
                    .lookup(node, thread)
                    .map(|e| e.ttype)
                    .ok_or_else(|| {
                        UteError::corrupt(format!(
                            "record references unknown thread (node {node}, logical {thread})"
                        ))
                    })?;
                if !types.contains(&ttype) {
                    continue;
                }
            }
        }
        // Map both endpoints through the fit and derive the duration,
        // rather than scaling the duration independently (§2.2's R·D —
        // the two agree to within rounding). Endpoint mapping is
        // monotone, so it cannot create the partial overlaps that
        // start+R·D can: a record whose start precedes the node's first
        // clock sample has its start clamped to the fit origin, and
        // keeping the full scaled duration would push its end past
        // fit(local end) — on top of every enclosed record.
        let start = rec.start();
        let end = start.saturating_add(rec.duration());
        let gend = nf.fit.adjust(LocalTime(end)).ticks();
        let gstart = nf.fit.adjust(LocalTime(start)).ticks().min(gend);
        adjusted.push(Retimed::new(rec, gstart, gend - gstart));
    }
    // The file is end-ordered and the fit monotone, so the adjusted ends
    // are too — unless a damaged time field broke the file's order. Look
    // before sorting: a stable sort takes a scratch the size of the
    // vector even when there is nothing to move.
    if !adjusted.is_sorted_by_key(|r| r.end()) {
        adjusted.sort_by_key(|r| r.end());
    }
    ute_obs::counter("merge/records_in").add(adjusted.len() as u64);
    ute_obs::gauge("merge/clock_fit_residual_ns").set_max(nf.max_residual as f64);
    Ok((adjusted, nf, records_in))
}

/// [`adjust_node_records`] with every record decoded on its way out: the
/// route the merge took before it carried bytes, kept as the reference
/// its output is compared with.
pub fn adjust_node(
    reader: &IntervalFileReader<'_>,
    profile: &Profile,
    opts: &MergeOptions,
    mut sink: impl FnMut(Interval) -> Result<()>,
) -> Result<(NodeFit, u64)> {
    let (adjusted, nf, records_in) = adjust_node_records(reader, profile, opts)?;
    for rec in adjusted {
        sink(rec.into_interval())?;
    }
    Ok((nf, records_in))
}

/// The per-node stage as the merge runs it: all or nothing. Every record
/// is adjusted into a vector before any is used, so a node that fails
/// part-way contributes nothing. In salvage mode a panic is caught and a
/// failed attempt — panic or error — is retried once
/// (`pipeline/worker_retries`); the first failure is the one reported.
fn stage_node<'r>(
    reader: &'r IntervalFileReader<'_>,
    profile: &Profile,
    opts: &MergeOptions,
) -> Result<(Vec<Retimed<'r>>, NodeFit, u64)> {
    let attempt = || adjust_node_records(reader, profile, opts);
    if !opts.salvage {
        return attempt();
    }
    let isolated = || {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(&attempt))
            .unwrap_or_else(|_| Err(UteError::Invalid("per-node merge stage panicked".into())))
    };
    isolated().or_else(|first| {
        ute_obs::counter("pipeline/worker_retries").inc();
        isolated().map_err(|_| first)
    })
}

/// The one merge driver: opens every input and absorbs its header in
/// input order, runs [`stage_node`] over the readers on `jobs` workers
/// ([`map_ordered`]), folds the per-file outcomes in input order, and
/// hands the surviving nodes' staged records, which the k-way merge runs
/// over, to `consume` together with the union tables. Nothing downstream
/// of the map can observe its schedule, so the output is the same bytes
/// at every `jobs`.
///
/// The first file, in input order, that failed to open, absorb or stage
/// decides the outcome: its error is returned as an [`UteError::Input`]
/// carrying its position in `files` (the caller may know a path for it),
/// or in salvage mode the node is dropped with a warning and counted,
/// and the next is looked at.
fn merge_core<T>(
    files: &[&[u8]],
    profile: &Profile,
    opts: &MergeOptions,
    jobs: usize,
    consume: impl FnOnce(
        Vec<VecSource<Retimed<'_>>>,
        &ThreadTable,
        &[(u32, String)],
        &mut MergeStats,
    ) -> Result<T>,
) -> Result<(T, MergeStats)> {
    let mut stats = MergeStats::default();
    let mut union_threads = ThreadTable::new();
    let mut markers: Vec<(u32, String)> = Vec::new();
    // The records that travel borrow from their file's reader, so every
    // reader exists before the first is used. A file with no reader left
    // who it was and why instead, for its turn in the fold below. A node
    // that degrades in the stage still leaves its header in the union
    // tables.
    let (readers, failures): (Vec<_>, Vec<_>) = files
        .iter()
        .enumerate()
        .map(|(i, bytes)| {
            let reader = match IntervalFileReader::open(bytes, profile) {
                Ok(r) => r,
                Err(e) => return (None, Some((format!("input {i}"), e))),
            };
            match absorb_file_header(&reader, &mut union_threads, &mut markers) {
                Ok(()) => (Some(reader), None),
                Err(e) => (None, Some((format!("node {}", reader.node), e))),
            }
        })
        .unzip();

    ute_obs::gauge("pipeline/jobs").set(jobs as f64);
    // The thread-local span stack does not follow an item onto a worker:
    // parent each item's span under the caller's explicitly. The flow
    // link ties the span a node was staged in to the fold that takes it.
    let parent = ute_obs::current_span();
    let staged = map_ordered(&readers, jobs, |_, reader| {
        let reader = reader.as_ref()?;
        let _span = ute_obs::Span::enter_under(
            "pipeline",
            format!("adjust worker node {}", reader.node),
            parent,
        );
        let outcome =
            stage_node(reader, profile, opts).map_err(|e| (format!("node {}", reader.node), e));
        let link = ute_obs::new_link();
        ute_obs::flow_begin(link);
        Some((link, outcome))
    })?;

    let mut sources = Vec::with_capacity(files.len());
    for (index, (failure, staged)) in failures.into_iter().zip(staged).enumerate() {
        let outcome = match staged {
            Some((link, outcome)) => {
                ute_obs::flow_end(link);
                outcome
            }
            None => Err(failure.expect("a file without a reader left its error")),
        };
        match outcome {
            Ok((adjusted, nf, records_in)) => {
                stats.records_in += records_in;
                stats.fits.push(nf);
                sources.push(VecSource::new(adjusted));
            }
            Err((who, e)) if opts.salvage => {
                stats.nodes_degraded += 1;
                eprintln!("ute: warning: salvage: dropping {who}: {e}");
            }
            Err((_, e)) => {
                return Err(UteError::Input {
                    index,
                    source: Box::new(e),
                })
            }
        }
    }

    markers.sort_by_key(|(id, _)| *id);
    // `consume` pulls the k-way merge through whatever it writes.
    let _span = ute_obs::Span::enter("merge", format!("k-way merge of {}", sources.len()));
    let out = consume(sources, &union_threads, &markers, &mut stats)?;
    Ok((out, stats))
}

/// Fault-injection hook for regression tests: arms a one-shot panic
/// inside the per-node merge stage, so tests can verify
/// that salvage mode's `catch_unwind` isolation closes (marks aborted)
/// the open spans and that the retry still produces clean output, and
/// that strict mode surfaces the panic as an error. Disarmed, it costs
/// one relaxed atomic load per attempt — per node, not per record.
#[doc(hidden)]
pub mod testhook {
    use std::sync::atomic::{AtomicI64, Ordering};

    /// Node whose next stage attempt panics, or -1 when disarmed.
    static PANIC_NODE: AtomicI64 = AtomicI64::new(-1);

    /// Arms a one-shot panic in the per-node merge stage for `node`: its
    /// next attempt panics as it starts, inside its `merge node` span.
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

/// The zero-duration [`StateCode::GAP`] pseudo-record marking a node
/// whose data is missing from a degraded merge.
pub fn gap_record(node: u16) -> Interval {
    Interval::basic(
        IntervalType::complete(StateCode::GAP),
        0,
        0,
        CpuId(0),
        NodeId(node),
        LogicalThreadId(0),
    )
}

/// Tracks open states per thread to synthesize the §3.3 frame-head
/// pseudo continuation records. Keyed by a `BTreeMap` so pseudo records
/// at a frame head come out in sorted `(node, thread)` order — the
/// determinism gate compares merged files byte for byte, so emission
/// order must not depend on hash-map iteration. `T` is what is kept of
/// an open `Begin` piece: the writer keeps the record, a reader nothing.
struct OpenTracker<T> {
    open: BTreeMap<(u16, u16), Vec<(StateCode, T)>>,
}

impl<T> OpenTracker<T> {
    fn new() -> OpenTracker<T> {
        OpenTracker {
            open: BTreeMap::new(),
        }
    }

    fn observe<R: RecordFields>(&mut self, rec: &R, keep: impl FnOnce(&R) -> T) {
        let itype = rec.itype();
        if itype.state == StateCode::CLOCK {
            return;
        }
        let key = (rec.node().raw(), rec.thread().raw());
        match itype.bebits {
            BeBits::Begin => self
                .open
                .entry(key)
                .or_default()
                .push((itype.state, keep(rec))),
            BeBits::End => {
                if let Some(stack) = self.open.get_mut(&key) {
                    if let Some(pos) = stack.iter().rposition(|(s, _)| *s == itype.state) {
                        stack.remove(pos);
                    }
                }
            }
            BeBits::Complete | BeBits::Continuation => {}
        }
    }

    /// What is kept of every open state, in sorted `(node, thread)` order.
    fn open(&self) -> impl Iterator<Item = &T> {
        self.open.values().flatten().map(|(_, kept)| kept)
    }
}

/// Whether the §3.3 rule puts pseudo records before the stream record
/// that follows `pushed` records of a merged file: the writer's rule,
/// which its reader replays.
fn at_frame_head(opts: &MergeOptions, pushed: u64) -> bool {
    let frame_len = opts.policy.max_records_per_frame as u64;
    opts.frame_pseudo_intervals && pushed > 0 && pushed.is_multiple_of(frame_len)
}

/// Writes an already-merged, end-ordered record stream to a merged
/// interval file, inserting the §3.3 frame-head pseudo continuation
/// records: the tail of [`merge_files_jobs`].
pub fn write_merged_stream<R: MergeItem>(
    profile: &Profile,
    threads: &ThreadTable,
    markers: &[(u32, String)],
    opts: &MergeOptions,
    intervals: impl IntoIterator<Item = R>,
    stats: &mut MergeStats,
) -> Result<Vec<u8>> {
    let mut writer = IntervalFileWriter::new(
        profile,
        MASK_MERGED,
        MERGED_NODE,
        threads,
        markers,
        opts.policy,
    );
    let mut tracker = OpenTracker::<Interval>::new();
    let mut pushed: u64 = 0;
    let mut last_end: u64 = 0;
    // Gap pseudo-records for nodes missing from a degraded merge go
    // first (zero start, zero duration, sorted by node) so they land at
    // a deterministic position regardless of how the merge was run.
    let mut gaps: Vec<u16> = opts.gap_nodes.clone();
    gaps.sort_unstable();
    gaps.dedup();
    for node in gaps {
        writer.push(&gap_record(node))?;
        pushed += 1;
    }
    for iv in intervals {
        if at_frame_head(opts, pushed) {
            // Zero-duration continuations of every state open here.
            for open in tracker.open() {
                let mut p = open.clone();
                p.itype.bebits = BeBits::Continuation;
                p.start = last_end;
                p.duration = 0;
                writer.push(&p)?;
                pushed += 1;
                stats.pseudo_added += 1;
            }
        }
        iv.write_to(&mut writer)?;
        pushed += 1;
        last_end = iv.end();
        tracker.observe(&iv, MergeItem::to_interval);
    }
    stats.records_out = writer.record_count();
    ute_obs::counter("merge/records_out").add(stats.records_out);
    ute_obs::counter("merge/pseudo_added").add(stats.pseudo_added);
    Ok(writer.finish())
}

/// The inverse of [`write_merged_stream`]: the stream a merged file was
/// written from under `opts`, read where it lies. What the writer added
/// is skipped — the leading [`StateCode::GAP`] records (GAP is the
/// merge's own pseudo state: convert writes none) and the frame-head
/// continuations, counted by replaying the writer's [`OpenTracker`].
pub fn merged_stream<'a>(
    reader: &'a IntervalFileReader<'_>,
    opts: &MergeOptions,
) -> impl Iterator<Item = Result<Record<'a>>> + 'a {
    let (mut records, mut tracker, opts) = (reader.records(), OpenTracker::new(), opts.clone());
    let (mut pushed, mut leading) = (0, true);
    std::iter::from_fn(move || {
        let mut pseudo = None;
        loop {
            let rec = match records.next()? {
                Ok(rec) => rec,
                Err(e) => return Some(Err(e)),
            };
            pushed += 1;
            leading &= rec.itype().state == StateCode::GAP;
            if leading {
                continue;
            }
            // Only a frame head has continuations before it: counting
            // the open states for every record costs a walk of them all.
            let head = at_frame_head(&opts, pushed - 1);
            let left = pseudo.get_or_insert_with(|| if head { tracker.open().count() } else { 0 });
            if *left == 0 {
                tracker.observe(&rec, |_| ());
                return Some(Ok(rec));
            }
            *left -= 1;
        }
    })
}

/// Merges per-node interval files into one merged interval file, with
/// the per-node stage on `jobs` workers. Byte-identical output for every
/// `jobs` value.
pub fn merge_files_jobs(
    files: &[&[u8]],
    profile: &Profile,
    opts: &MergeOptions,
    jobs: usize,
) -> Result<MergeOutput> {
    let (merged, stats) = merge_core(
        files,
        profile,
        opts,
        jobs,
        |sources, threads, markers, stats| {
            let merged = LoserTreeMerge::new(sources);
            write_merged_stream(profile, threads, markers, opts, merged, stats)
        },
    )?;
    Ok(MergeOutput { merged, stats })
}

/// [`merge_files_jobs`] on the calling thread.
pub fn merge_files(files: &[&[u8]], profile: &Profile, opts: &MergeOptions) -> Result<MergeOutput> {
    merge_files_jobs(files, profile, opts, 1)
}

/// The `slogmerge` utility: the same merge, emitting a SLOG file for
/// Jumpshot-style visualization (plus the merged stream statistics),
/// built as the k-way merge runs.
pub fn slogmerge_jobs(
    files: &[&[u8]],
    profile: &Profile,
    opts: &MergeOptions,
    build: BuildOptions,
    jobs: usize,
) -> Result<(SlogFile, MergeStats)> {
    merge_core(
        files,
        profile,
        opts,
        jobs,
        |sources, threads, markers, stats| {
            // The builder wants the run's span before the first record;
            // the staged records hold it.
            let staged = sources.iter().flat_map(VecSource::as_slice);
            let span = staged.clone().fold(None, widen_span);
            stats.records_out = staged.count() as u64;
            ute_obs::counter("merge/records_out").add(stats.records_out);
            let merged = LoserTreeMerge::new(sources).map(Ok);
            let builder = SlogBuilder::new(profile, build);
            builder.build_stream(span, stats.records_out, merged, threads, markers)
        },
    )
}

/// [`slogmerge_jobs`] on the calling thread.
pub fn slogmerge(
    files: &[&[u8]],
    profile: &Profile,
    opts: &MergeOptions,
    build: BuildOptions,
) -> Result<(SlogFile, MergeStats)> {
    slogmerge_jobs(files, profile, opts, build, 1)
}

/// `run.slog` from a merged file: the SLOG [`slogmerge_jobs`] builds from
/// the per-node files the merged file was written from under `opts`,
/// built in one walk of its stream read back instead. The frame
/// directory states the span (and bounds the count) before the walk; the
/// walk measures the stream's own, and where they differ — a leading GAP
/// record, a damaged directory — the SLOG is built again under the
/// stream's. Returns it with the stream's record count.
pub fn slog_of_merged(
    reader: &IntervalFileReader<'_>,
    profile: &Profile,
    opts: &MergeOptions,
    build: BuildOptions,
) -> Result<(SlogFile, u64)> {
    let builder = SlogBuilder::new(profile, build);
    let (mut span, mut bound) = (reader.time_span()?, reader.total_records()?);
    loop {
        let (mut seen, mut count) = (None, 0);
        let stream = merged_stream(reader, opts).inspect(|rec| {
            if let Ok(rec) = rec {
                (seen, count) = (widen_span(seen, rec), count + 1);
            }
        });
        let slog = builder.build_stream(span, bound, stream, &reader.threads, &reader.markers)?;
        if seen == span {
            return Ok((slog, count));
        }
        (span, bound) = (seen, count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ute_core::ids::{CpuId, LogicalThreadId, NodeId, Pid, SystemThreadId, TaskId};
    use ute_format::profile::MASK_PER_NODE;
    use ute_format::thread_table::ThreadEntry;
    use ute_format::value::Value;

    /// Builds a per-node file whose local clock runs at `rate` (local
    /// ticks per global tick) from global origin 0, containing clock
    /// records every second plus one MPI_Barrier piece per second.
    fn node_file(profile: &Profile, node: u16, rate: f64, secs: u64) -> Vec<u8> {
        let mut threads = ThreadTable::new();
        threads
            .register(ThreadEntry {
                task: TaskId(node as u32),
                pid: Pid(1),
                system_tid: SystemThreadId(node as u64),
                node: NodeId(node),
                logical: LogicalThreadId(0),
                ttype: ThreadType::Mpi,
            })
            .unwrap();
        let mut w = IntervalFileWriter::new(
            profile,
            MASK_PER_NODE,
            node,
            &threads,
            &[(1, "Phase".to_string())],
            FramePolicy::default(),
        );
        let local = |g: u64| (g as f64 * rate) as u64;
        let mut records: Vec<Interval> = Vec::new();
        for s in 0..=secs {
            let g = s * 1_000_000_000;
            records.push(
                Interval::basic(
                    IntervalType::complete(StateCode::CLOCK),
                    local(g),
                    0,
                    CpuId(0),
                    NodeId(node),
                    LogicalThreadId(0),
                )
                .with_extra(profile, "globalTime", Value::Uint(g)),
            );
            if s < secs {
                records.push(
                    Interval::basic(
                        IntervalType::complete(StateCode::mpi(ute_core::event::MpiOp::Barrier)),
                        local(g + 200_000_000),
                        (100_000_000_f64 * rate) as u64,
                        CpuId(0),
                        NodeId(node),
                        LogicalThreadId(0),
                    )
                    .with_extra(profile, "rank", Value::Uint(node as u64))
                    .with_extra(profile, "peer", Value::Uint(u32::MAX as u64))
                    .with_extra(profile, "msgSizeSent", Value::Uint(0))
                    .with_extra(profile, "address", Value::Uint(0)),
                );
            }
        }
        records.sort_by_key(|iv| iv.end());
        for iv in &records {
            w.push(iv).unwrap();
        }
        w.finish()
    }

    #[test]
    fn merged_output_is_globally_aligned_and_ordered() {
        let p = Profile::standard();
        let f0 = node_file(&p, 0, 1.0 + 100e-6, 10); // +100 ppm
        let f1 = node_file(&p, 1, 1.0 - 80e-6, 10); // −80 ppm
        let out = merge_files(&[&f0, &f1], &p, &MergeOptions::default()).unwrap();
        let r = IntervalFileReader::open(&out.merged, &p).unwrap();
        let ivs: Vec<Interval> = r.intervals().map(|x| x.unwrap()).collect();
        // End-ordered.
        for w in ivs.windows(2) {
            assert!(w[0].end() <= w[1].end());
        }
        // Barriers from both nodes happened at the same *global* instants
        // (200 ms into each second); after adjustment they should agree
        // within a few µs despite the ±100 ppm local drift.
        let barriers: Vec<&Interval> = ivs
            .iter()
            .filter(|iv| iv.itype.state == StateCode::mpi(ute_core::event::MpiOp::Barrier))
            .collect();
        assert_eq!(barriers.len(), 20);
        for pair in barriers.chunks(2) {
            let d = pair[0].start as i64 - pair[1].start as i64;
            assert!(d.abs() < 10_000, "barrier misalignment {d} ticks");
            assert_ne!(pair[0].node, pair[1].node);
        }
        assert_eq!(out.stats.fits.len(), 2);
        assert!((out.stats.fits[0].fit.ratio() - 1.0 / (1.0 + 100e-6)).abs() < 1e-6);
    }

    #[test]
    fn merged_file_has_node_field_and_union_tables() {
        let p = Profile::standard();
        let f0 = node_file(&p, 0, 1.0, 2);
        let f1 = node_file(&p, 1, 1.0, 2);
        let out = merge_files(&[&f0, &f1], &p, &MergeOptions::default()).unwrap();
        let r = IntervalFileReader::open(&out.merged, &p).unwrap();
        assert_eq!(r.mask, MASK_MERGED);
        assert_eq!(r.node, MERGED_NODE);
        assert_eq!(r.threads.len(), 2);
        assert_eq!(r.markers.len(), 1);
        let nodes: std::collections::HashSet<u16> =
            r.intervals().map(|iv| iv.unwrap().node.raw()).collect();
        assert_eq!(nodes.len(), 2, "records from both nodes present");
    }

    #[test]
    fn conflicting_marker_tables_rejected() {
        let p = Profile::standard();
        let f0 = node_file(&p, 0, 1.0, 1);
        // Build a second file with marker id 1 bound to a different name.
        let mut threads = ThreadTable::new();
        threads
            .register(ThreadEntry {
                task: TaskId(9),
                pid: Pid(1),
                system_tid: SystemThreadId(9),
                node: NodeId(9),
                logical: LogicalThreadId(0),
                ttype: ThreadType::Mpi,
            })
            .unwrap();
        let w = IntervalFileWriter::new(
            &p,
            MASK_PER_NODE,
            9,
            &threads,
            &[(1, "Different".to_string())],
            FramePolicy::default(),
        );
        let f9 = w.finish();
        let err = merge_files(&[&f0, &f9], &p, &MergeOptions::default()).unwrap_err();
        assert!(err.to_string().contains("marker id 1"), "{err}");
    }

    #[test]
    fn thread_type_filter_selects_threads() {
        let p = Profile::standard();
        let f0 = node_file(&p, 0, 1.0, 3);
        let opts = MergeOptions {
            thread_types: Some(vec![ThreadType::User]), // node files hold MPI threads
            ..MergeOptions::default()
        };
        let out = merge_files(&[&f0], &p, &opts).unwrap();
        let r = IntervalFileReader::open(&out.merged, &p).unwrap();
        // Only the CLOCK records survive.
        for iv in r.intervals() {
            assert_eq!(iv.unwrap().itype.state, StateCode::CLOCK);
        }
    }

    /// Builds a file holding one long split state (Begin … End) plus many
    /// small complete intervals so the merged file spans several frames.
    fn split_state_file(profile: &Profile, n_middle: u64) -> Vec<u8> {
        let mut threads = ThreadTable::new();
        threads
            .register(ThreadEntry {
                task: TaskId(0),
                pid: Pid(1),
                system_tid: SystemThreadId(0),
                node: NodeId(0),
                logical: LogicalThreadId(0),
                ttype: ThreadType::Mpi,
            })
            .unwrap();
        let mut w = IntervalFileWriter::new(
            profile,
            MASK_PER_NODE,
            0,
            &threads,
            &[],
            FramePolicy::default(),
        );
        let marker_begin = Interval::basic(
            IntervalType {
                state: StateCode::MARKER,
                bebits: BeBits::Begin,
            },
            0,
            10,
            CpuId(0),
            NodeId(0),
            LogicalThreadId(0),
        )
        .with_extra(profile, "markerId", Value::Uint(1))
        .with_extra(profile, "address", Value::Uint(0))
        .with_extra(profile, "addressEnd", Value::Uint(0));
        w.push(&marker_begin).unwrap();
        for i in 0..n_middle {
            let iv = Interval::basic(
                IntervalType::complete(StateCode::RUNNING),
                20 + i * 10,
                10,
                CpuId(0),
                NodeId(0),
                LogicalThreadId(0),
            );
            w.push(&iv).unwrap();
        }
        let end_t = 20 + n_middle * 10 + 5;
        let marker_end = Interval::basic(
            IntervalType {
                state: StateCode::MARKER,
                bebits: BeBits::End,
            },
            end_t,
            10,
            CpuId(0),
            NodeId(0),
            LogicalThreadId(0),
        )
        .with_extra(profile, "markerId", Value::Uint(1))
        .with_extra(profile, "address", Value::Uint(0))
        .with_extra(profile, "addressEnd", Value::Uint(0));
        w.push(&marker_end).unwrap();
        w.finish()
    }

    #[test]
    fn frame_head_pseudo_continuations_added() {
        let p = Profile::standard();
        // 40 middle records with 8-record frames → several frame
        // boundaries inside the open marker.
        let f = split_state_file(&p, 40);
        let opts = MergeOptions {
            policy: FramePolicy {
                max_records_per_frame: 8,
                max_frames_per_dir: 2,
            },
            filter_outliers: false,
            ..MergeOptions::default()
        };
        let out = merge_files(&[&f], &p, &opts).unwrap();
        assert!(
            out.stats.pseudo_added >= 4,
            "added {}",
            out.stats.pseudo_added
        );
        let r = IntervalFileReader::open(&out.merged, &p).unwrap();
        // Every frame after the first that starts inside the marker must
        // begin with a zero-duration Marker continuation record.
        let dirs: Vec<_> = r.directories().map(|d| d.unwrap()).collect();
        let mut frames_checked = 0;
        let marker_end_time = 20 + 40 * 10 + 5 + 10;
        for dir in &dirs {
            for e in &dir.entries {
                if e.start_time > 10 && e.end_time < marker_end_time as u64 {
                    let ivs = r.frame_intervals(e).unwrap();
                    let head = &ivs[0];
                    assert_eq!(head.itype.state, StateCode::MARKER, "frame head");
                    assert_eq!(head.itype.bebits, BeBits::Continuation);
                    assert_eq!(head.duration, 0);
                    frames_checked += 1;
                }
            }
        }
        assert!(frames_checked >= 3, "only {frames_checked} frames checked");
        // Disabling the feature removes them.
        let out2 = merge_files(
            &[&f],
            &p,
            &MergeOptions {
                frame_pseudo_intervals: false,
                ..opts
            },
        )
        .unwrap();
        assert_eq!(out2.stats.pseudo_added, 0);
    }

    #[test]
    fn slogmerge_produces_viewable_slog() {
        let p = Profile::standard();
        let f0 = node_file(&p, 0, 1.0 + 50e-6, 5);
        let f1 = node_file(&p, 1, 1.0 - 50e-6, 5);
        let (slog, stats) = slogmerge(
            &[&f0, &f1],
            &p,
            &MergeOptions::default(),
            BuildOptions {
                nframes: 8,
                preview_bins: 16,
                arrows: true,
            },
        )
        .unwrap();
        assert_eq!(slog.frames.len(), 8);
        assert_eq!(slog.threads.len(), 2);
        assert!(stats.records_out > 0);
        // Preview knows about the barrier time.
        assert!(slog
            .preview
            .counts
            .contains_key(&StateCode::mpi(ute_core::event::MpiOp::Barrier).0));
        // Round-trips to bytes.
        let bytes = slog.to_bytes();
        assert_eq!(SlogFile::from_bytes(&bytes).unwrap(), slog);
    }
}
