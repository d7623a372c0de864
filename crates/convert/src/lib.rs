//! # ute-convert — event-to-interval conversion (§3.1)
//!
//! "Matching events is the first step in the conversion process. A begin
//! event is matched with its end event to create an interval, provided
//! that there is no other events in between. If there are other events,
//! such as user marker events and thread dispatch events, the interval is
//! divided into multiple interval pieces."
//!
//! The converter walks each node's raw event stream in time order keeping,
//! per thread, a stack of open states (MPI call, user markers, I/O) plus
//! the implicit *Running* bottom state. Thread dispatch boundaries and
//! nested state transitions close the current piece of every affected
//! state; the piece's bebits record whether it is the first (`Begin`),
//! an interior (`Continuation`), the final (`End`), or the only
//! (`Complete`) piece of its state.
//!
//! The converter also re-assigns **globally unique marker identifiers**:
//! the tracing library hands out ids per task without cross-task
//! communication, so "the identifier for a marker with the string, say
//! 'Initial Phase', may be different in different tasks. The convert
//! utility re-assigns a unique identifier to each user-defined marker
//! string in the trace files."

pub mod marker;
pub mod matcher;

use crossbeam::thread as cb_thread;

use ute_core::error::{Result, UteError};
use ute_core::ids::NodeId;
use ute_format::file::FramePolicy;
use ute_format::profile::Profile;
use ute_format::thread_table::ThreadTable;
use ute_rawtrace::file::RawTraceFile;

pub use marker::MarkerMap;
pub use matcher::{convert_node, convert_node_opts, ConvertOptions, ConvertOutput, ConvertStats};

/// Converts a whole job's raw trace files into per-node interval files.
///
/// The marker map is built over *all* files first (so identical marker
/// strings from different tasks share one id), then each node is
/// converted — on a worker pool when `parallel` is set.
///
/// `threads` supplies process/thread identity, which the AIX trace
/// facility recorded as side metadata; our simulator hands over its
/// ground-truth table.
pub fn convert_job(
    files: &[RawTraceFile],
    threads: &ThreadTable,
    profile: &Profile,
    policy: FramePolicy,
    parallel: bool,
) -> Result<Vec<ConvertOutput>> {
    convert_job_opts(
        files,
        threads,
        profile,
        &ConvertOptions {
            policy,
            ..ConvertOptions::default()
        },
        parallel,
    )
}

/// [`convert_job`] with explicit [`ConvertOptions`] (e.g. lenient mode
/// for delayed-start partial traces): [`convert_job_pooled`] on one
/// worker, or on as many as the machine has cores when `parallel`.
pub fn convert_job_opts(
    files: &[RawTraceFile],
    threads: &ThreadTable,
    profile: &Profile,
    opts: &ConvertOptions,
    parallel: bool,
) -> Result<Vec<ConvertOutput>> {
    let jobs = if parallel {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        1
    };
    convert_job_pooled(files, threads, profile, opts, jobs)
}

/// [`convert_job_opts`] on a bounded worker pool: one task per node
/// file, at most `jobs` running at once, results collected in input
/// order. `jobs == 1` runs the plain serial loop on the calling thread.
///
/// The per-node conversion is a pure function of `(file, tables, opts)`
/// — workers share no mutable state — so the output vector is identical
/// for every `jobs` value; only wall time changes.
pub fn convert_job_pooled(
    files: &[RawTraceFile],
    threads: &ThreadTable,
    profile: &Profile,
    opts: &ConvertOptions,
    jobs: usize,
) -> Result<Vec<ConvertOutput>> {
    let jobs = jobs.max(1).min(files.len().max(1));
    let markers = MarkerMap::build(files)?;
    if jobs == 1 || files.len() <= 1 {
        return files
            .iter()
            .map(|f| convert_node_opts(f, threads, profile, &markers, opts))
            .collect();
    }
    let markers = &markers;
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut slots: Vec<Option<Result<ConvertOutput>>> = Vec::new();
    slots.resize_with(files.len(), || None);
    let slots = std::sync::Mutex::new(slots);
    // The thread-local span stack does not cross the spawn: adopt the
    // calling thread's span as each worker's explicit parent.
    let parent = ute_obs::current_span();
    cb_thread::scope(|s| {
        let handles: Vec<_> = (0..jobs)
            .map(|w| {
                let next = &next;
                let slots = &slots;
                s.spawn(move |_| {
                    let _span = ute_obs::Span::enter_under(
                        "pipeline",
                        format!("convert worker {w}"),
                        parent,
                    );
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= files.len() {
                            break;
                        }
                        let r = convert_node_opts(&files[i], threads, profile, markers, opts);
                        slots.lock().expect("slot lock")[i] = Some(r);
                    }
                })
            })
            .collect();
        for h in handles {
            if h.join().is_err() {
                return Err(UteError::Invalid("convert worker panicked".into()));
            }
        }
        Ok(())
    })
    .map_err(|_| UteError::Invalid("convert scope panicked".into()))??;
    slots
        .into_inner()
        .expect("slot lock")
        .into_iter()
        .map(|r| r.expect("every index was claimed by a worker"))
        .collect()
}

/// Restricts a job-wide thread table to one node's threads.
pub fn node_threads(threads: &ThreadTable, node: NodeId) -> ThreadTable {
    let mut t = ThreadTable::new();
    for e in threads.entries() {
        if e.node == node {
            t.register(*e).expect("source table was consistent");
        }
    }
    t
}
