//! # ute-pipeline — a name `benchmark/` still links
//!
//! There is no parallel merge apart from the merge any more:
//! [`ute_merge::merge_files_jobs`] / [`ute_merge::slogmerge_jobs`] run
//! their per-node stage through [`ute_core::pool::map_ordered`], the pool
//! convert uses too, and everything this crate was — a thread per node
//! file behind a semaphore, batches over bounded channels into one
//! consumer — is gone (DESIGN "One executor" has the measurements).
//!
//! The crate remains because `benchmark/` calls
//! `ute_pipeline::{merge_files_jobs, slogmerge_jobs}` and library PRs may
//! not edit `benchmark/`. Nothing in the workspace uses it.

pub use ute_core::pool::default_jobs;
pub use ute_merge::{merge_files_jobs, slogmerge_jobs, testhook};
