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
//! (`Complete`) piece of its state. [`matcher`] is that rule written
//! once: a row per bracketed state kind, one `open_state`, one
//! `close_state`, and one `close_piece` that owns the bebits decision
//! (DESIGN "The matcher is a transition table").
//!
//! The converter also re-assigns **globally unique marker identifiers**:
//! the tracing library hands out ids per task without cross-task
//! communication, so "the identifier for a marker with the string, say
//! 'Initial Phase', may be different in different tasks. The convert
//! utility re-assigns a unique identifier to each user-defined marker
//! string in the trace files."

pub mod marker;
pub mod matcher;

use ute_core::error::Result;
use ute_core::ids::NodeId;
use ute_core::pool::map_ordered;
use ute_format::profile::Profile;
use ute_format::thread_table::ThreadTable;
use ute_rawtrace::file::RawTraceFile;

pub use marker::MarkerMap;
pub use matcher::{
    convert_node, convert_node_opts, ConvertOptions, ConvertOutput, ConvertStats, RawRecords,
};

/// [`convert_nodes`] over decoded files: the owned adapter, kept for
/// the benchmark and as the oracle the view route is compared against.
pub fn convert_job_pooled(
    files: &[RawTraceFile],
    threads: &ThreadTable,
    profile: &Profile,
    opts: &ConvertOptions,
    jobs: usize,
) -> Result<Vec<ConvertOutput>> {
    convert_nodes(files, threads, profile, opts, jobs)
}

/// Converts a whole job's raw trace files on `jobs` workers
/// ([`map_ordered`]: one item per node file, results in input order).
///
/// The marker map is built over *all* files first (so identical marker
/// strings from different tasks share one id). The per-node conversion
/// is then a pure function of `(file, tables, opts)` — workers share no
/// mutable state — so the output vector is identical for every `jobs`
/// value; only wall time changes.
///
/// `threads` supplies process/thread identity, which the AIX trace
/// facility recorded as side metadata; the simulator hands over its
/// ground-truth table.
pub fn convert_nodes<R: RawRecords>(
    files: &[R],
    threads: &ThreadTable,
    profile: &Profile,
    opts: &ConvertOptions,
    jobs: usize,
) -> Result<Vec<ConvertOutput>> {
    let markers = MarkerMap::build(files)?;
    // The thread-local span stack does not follow an item onto a
    // worker: parent each item's span under the caller's explicitly.
    let parent = ute_obs::current_span();
    map_ordered(files, jobs, |_, file| {
        let _span = ute_obs::Span::enter_under(
            "pipeline",
            format!("convert worker node {}", file.node().raw()),
            parent,
        );
        convert_node_opts(file, threads, profile, &markers, opts)
    })?
    .into_iter()
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
