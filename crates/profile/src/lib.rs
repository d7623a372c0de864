//! # ute-profile — continuous profiling & bottleneck attribution
//!
//! The paper's framework measures the *traced application*; `ute-obs`
//! turned that lens inward with counters and spans. This crate closes
//! the remaining gap — *where do the cycles go, and what is waiting on
//! what?* — with three attribution sources, all strictly observational
//! (artifacts stay byte-identical with profiling on or off):
//!
//! 1. **Wall-clock stack sampler** ([`start`]/[`stop`]): a background
//!    thread periodically walks every worker's live span stack (the
//!    registry `ute_obs::sample_stacks` exposes) and folds each
//!    snapshot into flamegraph-ready semicolon-joined stacks
//!    ([`folded_output`], rendered by `inferno`/`flamegraph.pl`).
//!    Leaf frames attribute *self time* per stage.
//! 2. **Per-span CPU time**: with profiling on, `ute-obs` spans read
//!    `CLOCK_THREAD_CPUTIME_ID` at open/close, so every stage gets a
//!    wall-vs-CPU utilization ratio — blocking shows up as a number.
//! 3. A feature-gated (`count-allocs`) **counting global allocator**
//!    attributing allocation counts/bytes to the active stage slot.
//!
//! [`build_report`] fuses all three into the ranked bottleneck report
//! behind `ute profile`.

pub mod alloc;
pub mod report;
pub mod sampler;

pub use alloc::{slot_alloc_stats, stage_alloc_stats, tracking_enabled, AllocStats};
pub use report::{build_report, ProfileReport, StageRow};
pub use sampler::{folded_output, running, start, stop, ProfileData, DEFAULT_INTERVAL_US};
