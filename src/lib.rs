//! # UTE — Unified Trace Environment
//!
//! A Rust reproduction of the SC 2000 performance framework *"From Trace
//! Generation to Visualization: A Performance Framework for Distributed
//! Parallel Systems"* (Wu, Bolmarcich, Snir, Wootton, Parpia, Chan, Lusk,
//! Gropp).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`core`] — shared ids, time, event codes, bebits, errors, byte codec,
//!   and the one worker pool (`core::pool::map_ordered`) behind `--jobs`.
//! * [`clock`] — drifting local clocks, the switch-adapter global clock,
//!   and the clock-synchronization estimators of §2.2.
//! * [`faults`] — deterministic, seedable fault injection (truncation,
//!   bit flips, dropped flushes, missing nodes, clock jumps) feeding the
//!   salvage-mode robustness tests and `ute corrupt`.
//! * [`rawtrace`] — the AIX-trace-facility substitute: hookwords, trace
//!   buffers, per-node raw trace files.
//! * [`cluster`] — a discrete-event simulator of an SMP cluster running
//!   multi-threaded MPI programs, standing in for the IBM SP.
//! * [`format`] — the self-defining interval file format and its API
//!   (§2.3–§2.4).
//! * [`convert`] — the event→interval conversion utility (§3.1), one
//!   node file per pool item.
//! * [`merge`] — the merge / `slogmerge` utility with clock adjustment
//!   (§2.2, §3.1, §3.3): per-node clock fit and adjust as pool items,
//!   then one k-way merge; byte-identical output at every `jobs`.
//! * [`slog`] — the SLOG scalable log format with frames, pseudo-intervals
//!   and preview data (§4).
//! * [`stats`] — the declarative statistics generator and viewer (§3.2).
//! * [`view`] — headless time-space diagram rendering (Jumpshot
//!   substitute, §4).
//! * [`workloads`] — synthetic sPPM-like / FLASH-like programs and the
//!   scaling workloads used by the paper's Table 1.
//! * [`scenario`] — the seeded random workload generator behind
//!   `ute scenario`: topology / communication-pattern / phase /
//!   imbalance knobs expanded deterministically into cluster programs,
//!   so the conformance and diagnostics layers are exercised on traces
//!   nobody hand-crafted.
//! * [`store`] — crash safety: the write-ahead run journal and atomic
//!   artifact store behind `ute pipeline` / `ute resume`, plus the
//!   numbered abort points the chaos harness kills at.
//! * [`obs`] — the self-observability layer: global metrics registry,
//!   RAII span timers, and the one span capture (wall, thread CPU,
//!   hierarchy) behind `--self-trace`, `--profiler`, `ute profile` and
//!   the span rows of `--metrics` and `ute report`.
//! * [`profile`] — the profile as a fold over that capture: exact self
//!   time per stage, flamegraph stacks, and the ranked bottleneck
//!   report behind `ute profile`.
//! * [`analyze`] — the programmable diagnostics layer over interval
//!   files: columnar trace table and the late-sender / imbalance /
//!   comm-pattern / critical-path diagnostics
//!   behind `ute analyze`.
//! * [`cli`] — the `ute` command-line tool as a library: one command
//!   table (`cli::COMMANDS`) from which parsing, dispatch and `ute help`
//!   are derived, the commands by family, the self-trace sink and the
//!   `ute report` metrics report.
//! * [`verify`] — the conformance subsystem: invariant rule suites over
//!   raw/interval/SLOG artifacts, differential oracles, and the
//!   structure-aware decoder fuzzer behind `ute check` / `ute fuzz`.
//!
//! See `examples/quickstart.rs` for the end-to-end pipeline of Figure 2.

pub use ute_analyze as analyze;
pub use ute_cli as cli;
pub use ute_clock as clock;
pub use ute_cluster as cluster;
pub use ute_convert as convert;
pub use ute_core as core;
pub use ute_faults as faults;
pub use ute_format as format;
pub use ute_merge as merge;
pub use ute_obs as obs;
pub use ute_profile as profile;
pub use ute_rawtrace as rawtrace;
pub use ute_scenario as scenario;
pub use ute_slog as slog;
pub use ute_stats as stats;
pub use ute_store as store;
pub use ute_verify as verify;
pub use ute_view as view;
pub use ute_workloads as workloads;
