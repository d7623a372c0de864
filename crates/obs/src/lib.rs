//! # ute-obs — the framework observes itself
//!
//! The paper's thesis is that you cannot tune what you cannot observe.
//! This crate turns that lens back on the reproduction: every stage of
//! the Figure-2 pipeline (simulate → trace → convert → merge → SLOG →
//! stats → view) reports counters and gauges into one process-global
//! [`MetricsRegistry`], and opens wall-clock spans whose one record of
//! time is the span log.
//!
//! Design rules:
//!
//! * **Lock-free on the hot path.** Every metric handle is a leaked
//!   `&'static` atomic cell; updating one is a single relaxed atomic op.
//!   A mutex is taken only when a metric name is first registered.
//! * **No dependencies on the pipeline.** The crates being measured
//!   (`ute-format`, `ute-merge`, ...) depend on this crate, so this
//!   crate cannot depend on them. The self-trace *sink* — which
//!   re-emits captured spans as UTE interval records through the
//!   `ute-format` writer, so the framework's own run is viewable with
//!   `ute preview`/`ute view` — therefore lives one layer up, in
//!   `ute-cli` (`selftrace` module), consuming [`span::drain_spans`].
//! * **No thread of its own.** Everything here runs on the thread that
//!   calls it: a metric moves when a stage bumps it, a span is recorded
//!   when it closes. When each stage did its work is in the span log
//!   exactly; there is no sampler to race the workers.
//! * **Always on, nearly free.** Counters are maintained
//!   unconditionally (an uncontended atomic add is ~1 ns). A span with
//!   capture off reads no clock, allocates nothing and takes no lock.
//!   *Capture* reads the wall and thread CPU clocks and logs each span,
//!   so it is gated behind [`span::set_capture`] — the one switch: the
//!   self-trace sinks, `--profiler`, `ute profile`, and the
//!   `<stage>/span_ns` rows of `--metrics` and `ute report`
//!   ([`MetricsSnapshot::with_spans`]) all render the same captured log
//!   (the profile is a fold over it, in `ute-profile`).
//!
//! ```
//! use ute_obs as obs;
//! obs::counter("demo/widgets").add(3);
//! {
//!     let _span = obs::Span::enter("demo", "frobnicate");
//!     // ... work ...
//! }
//! let snap = obs::snapshot();
//! assert_eq!(snap.counter("demo/widgets"), Some(3));
//! ```

pub mod metrics;
pub mod prof;
pub mod report;
pub mod span;

pub use metrics::{counter, gauge, reset, Counter, Gauge, MetricsRegistry};
pub use prof::{
    cpu_clock_supported, current_stage_slot, stage_slot_name, stage_slot_of, thread_cpu_ns,
    MAX_STAGE_SLOTS,
};
pub use report::{json_escape, snapshot, MetricsSnapshot};
pub use span::{
    capture_enabled, captured_spans, current_span, drain_flows, drain_spans, flow_begin, flow_end,
    new_link, set_capture, set_capture_limit, thread_index, FinishedSpan, FlowPoint, Span,
};
