//! # ute-merge — the merge / `slogmerge` utility (§2.2, §3.1, §3.3)
//!
//! Merges per-node interval files into one globally-timed interval file:
//!
//! 1. **Alignment** — "the first global clock records in individual trace
//!    files are used to determine the starting point in time for records
//!    in each trace file";
//! 2. **Drift adjustment** — subsequent clock records give the
//!    global-to-local ratio `R` (RMS of slope segments by default; see
//!    [`ute_clock::ratio`] for the alternatives), and both ends of every
//!    record are mapped through that fit, the duration being their
//!    difference. A fit through a falling global time is refused, so
//!    every fit is monotone and an end-ordered file stays end-ordered;
//!    only a damaged time field can break that, and the node's records
//!    are then stably sorted by end;
//! 3. **K-way merge** — "a balanced tree in which each tree node holds
//!    the pointer to the next interval in the corresponding interval
//!    file. Tree nodes are sorted by end time";
//! 4. **Unification pseudo-intervals** — "the merge utility provides
//!    additional zero-duration continuation intervals at the beginning of
//!    each frame" representing the nested outer states open there (§3.3),
//!    so a viewer can jump into any frame and still know the enclosing
//!    states;
//! 5. Optionally, **SLOG conversion** ([`merger::slogmerge`]) — the same
//!    merge pipeline emitting a [`ute_slog::SlogFile`] for visualization.
//!
//! Steps 1–2 are per node and independent, so [`merge_files_jobs`] and
//! [`slogmerge_jobs`] run them as items of the workspace's worker pool
//! ([`ute_core::pool::map_ordered`]): each worker fits one node's clock
//! and adjusts that node's records — views over the input bytes — into a
//! vector, all or nothing. Steps 3–5 then run once, on the calling
//! thread, over those vectors. There is one driver for every `jobs`
//! value ([`merge_files`] and [`slogmerge`] are `jobs = 1`), headers are
//! absorbed and per-file outcomes folded in input order, and the k-way
//! merge breaks end-time ties by input index, so output bytes, error
//! text and salvage warnings do not depend on the worker count.

pub mod clockfit;
pub mod kway;
pub mod merger;

pub use clockfit::{
    clock_samples_of, extract_clock_samples, fit_node, fit_node_intervals, NodeFit,
};
pub use kway::{LoserTreeMerge, MergeSource, NaiveMerge};
pub use merger::{
    absorb_file_header, adjust_node, adjust_node_records, gap_record, merge_files,
    merge_files_jobs, merged_stream, slog_of_merged, slogmerge, slogmerge_jobs, testhook,
    write_merged_stream, IvSource, MergeItem, MergeOptions, MergeOutput, MergeStats, VecSource,
};
