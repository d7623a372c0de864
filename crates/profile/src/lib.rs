//! # ute-profile — bottleneck attribution from the span log
//!
//! The paper's framework measures the *traced application*; `ute-obs`
//! turned that lens inward with counters and spans. This crate answers
//! *where did the time go, and what was waiting on what?* from the
//! spans `ute-obs` already captured, the way the paper's tools compute
//! on matched intervals rather than raw events — nothing here runs
//! while the pipeline does, so artifacts are byte-identical with
//! capture on or off:
//!
//! 1. [`fold`]: one pure function from a capture to a [`Profile`] —
//!    exact self time per span, flamegraph-ready stacks
//!    ([`folded_output`], rendered by `inferno`/`flamegraph.pl`), and
//!    per-stage self / wall / thread-CPU rows, so blocking shows up as
//!    a wall-vs-CPU utilization number.
//! 2. A feature-gated (`count-allocs`) **counting global allocator**
//!    attributing allocation counts/bytes to the stage slot of the
//!    innermost captured span.
//!
//! [`build_report`] puts the two side by side as the ranked report
//! behind `ute profile`, `--profiler` and `ute report`'s profile block.

pub mod alloc;
pub mod fold;
pub mod report;

pub use alloc::{slot_alloc_stats, stage_alloc_stats, tracking_enabled, AllocStats};
pub use fold::{fold, folded_output, Profile, StageRow};
pub use report::{build_report, ProfileReport};
