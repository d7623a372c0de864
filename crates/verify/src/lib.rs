//! # ute-verify — the conformance subsystem
//!
//! The paper's format guarantees (§2.3, §3.1, §3.3, §4) are easy to
//! state and easy to silently violate. This crate makes them checkable:
//!
//! * **Invariant engine** — named rule suites over serialized artifacts
//!   ([`ivl::check_interval_bytes`], [`slog::check_slog_bytes`],
//!   [`raw::check_raw_bytes`]): frame-directory link integrity, end-time
//!   sort order, bebit laminarity per thread, thread-table bounds,
//!   send/recv arrow matching, preview time conservation, profile field
//!   resolution. Violations come back as structured [`Finding`]s in a
//!   [`Report`] — never as panics ([`finding::run_rule`] backstops every
//!   rule).
//! * **Differential oracles** ([`oracle`]) — pairs of pipelines the
//!   design guarantees are equivalent (serial vs `--jobs N`, salvage ⊆
//!   strict under loss-only faults, clock-adjusted order, zero-copy
//!   decode vs the reference decoders), run and compared.
//! * **Structure-aware fuzzer** ([`fuzz`]) — seeded mutations over valid
//!   corpora, driving every decoder; decoders must reject damage with
//!   typed errors, never panic, never allocate unboundedly.
//!
//! `ute check` and `ute fuzz` expose all three from the CLI.

pub mod finding;
pub mod fuzz;
pub mod ivl;
pub mod oracle;
pub mod raw;
pub mod slog;

pub use finding::{ArtifactKind, Finding, Report, Severity};
pub use fuzz::{run_fuzz, FuzzOptions, FuzzStats};
pub use ivl::{check_interval_bytes, IvlCheckOptions};
pub use oracle::{loss_only_plan, oracle_fast_vs_reference, run_all_oracles};
pub use raw::{check_raw_bytes, check_salvage_agrees};
pub use slog::check_slog_bytes;
