//! RAII wall-clock span timers, the causal span hierarchy, and the
//! bounded capture buffer every time-observer renders: the self-trace
//! sinks and `ute-profile`'s fold.
//!
//! A [`Span`] measures one stage of the pipeline or one unit of work
//! inside a stage (one node file converted, one clock fitted, one
//! frame flushed). Spans are **hierarchical**: every span has a stable
//! process-unique id, a parent id (the innermost span open on the same
//! thread when it was entered, or an explicit parent handed across a
//! thread boundary with [`Span::enter_under`]), and the dense index of
//! the thread it ran on. Cross-thread handoffs that are *data* flows
//! rather than call nesting — a merge worker's staged node taken by the
//! fold on the calling thread — are recorded as paired
//! [`FlowPoint`]s sharing a link id (see [`new_link`], [`flow_begin`],
//! [`flow_end`]), which the Chrome-trace exporter turns into flow
//! arrows.
//!
//! A span opened with capture off costs an id and a push on its
//! thread's span stack: it reads no clock, allocates nothing and takes
//! no lock. When capture was on at its open, dropping it appends a
//! [`FinishedSpan`] (wall time, thread CPU time, hierarchy) to a
//! process-global log that `ute-cli` drains once per run — the one
//! record of how long anything took. The log is bounded
//! ([`set_capture_limit`]): once full, further spans are dropped and
//! counted in `obs/spans_dropped` instead of growing without bound on
//! huge runs. A span closed while its thread is panicking (a pipeline
//! worker caught by `catch_unwind`) is still recorded, marked
//! [`FinishedSpan::aborted`] — self-trace output therefore never
//! contains a dangling open interval, even across worker crashes.

use parking_lot::Mutex;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::metrics;

/// The process epoch all span timestamps are relative to (first use).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

static CAPTURE: AtomicBool = AtomicBool::new(false);

/// Default capture-log bound: generous for any real run (a span is
/// ~100 bytes, so the cap is ~100 MB), small enough to keep a runaway
/// per-record span from exhausting memory.
pub const DEFAULT_CAPTURE_LIMIT: usize = 1 << 20;

static CAPTURE_LIMIT: AtomicUsize = AtomicUsize::new(DEFAULT_CAPTURE_LIMIT);

/// Process-unique span ids, from 1 (0 means "no span").
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Process-unique flow link ids, from 1 (0 means "no link").
static NEXT_LINK_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Ids of the spans currently open on this thread, outermost first.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// This thread's dense observability index (assigned on first span).
    static THREAD_IDX: Cell<u64> = const { Cell::new(u64::MAX) };
}

/// The dense index of the calling thread, assigned on first use in
/// order of first span activity (the main thread is almost always 0).
pub fn thread_index() -> u64 {
    THREAD_IDX.with(|t| {
        if t.get() == u64::MAX {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            t.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// The id of the innermost span open on the calling thread, or 0.
/// Capture this on a spawning thread and hand it to workers via
/// [`Span::enter_under`] so their spans nest under the pipeline span
/// instead of floating as roots.
pub fn current_span() -> u64 {
    SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

fn span_log() -> &'static Mutex<Vec<FinishedSpan>> {
    static LOG: OnceLock<Mutex<Vec<FinishedSpan>>> = OnceLock::new();
    LOG.get_or_init(|| Mutex::new(Vec::new()))
}

fn flow_log() -> &'static Mutex<Vec<FlowPoint>> {
    static LOG: OnceLock<Mutex<Vec<FlowPoint>>> = OnceLock::new();
    LOG.get_or_init(|| Mutex::new(Vec::new()))
}

/// Turns span capture on or off — the one switch every time-observer
/// (`--self-trace`, `--profiler`, `ute profile`) shares. A captured span
/// allocates, reads the thread CPU clock at open and close, and owns the
/// allocator's stage slot while open, so capture is off unless one of
/// them asked for it.
pub fn set_capture(on: bool) {
    // Pin the epoch before the first captured span so start offsets
    // are meaningful.
    epoch();
    CAPTURE.store(on, Ordering::Relaxed);
}

/// Whether spans are currently being captured.
pub fn capture_enabled() -> bool {
    CAPTURE.load(Ordering::Relaxed)
}

/// Caps the capture log at `limit` spans (and the flow log at the same
/// bound). Once full, further spans are dropped and counted in
/// `obs/spans_dropped` (`obs/flows_dropped` for flow points).
pub fn set_capture_limit(limit: usize) {
    CAPTURE_LIMIT.store(limit.max(1), Ordering::Relaxed);
}

fn capture_limit() -> usize {
    CAPTURE_LIMIT.load(Ordering::Relaxed)
}

/// Takes every captured span out of the log.
pub fn drain_spans() -> Vec<FinishedSpan> {
    std::mem::take(&mut *span_log().lock())
}

/// A copy of the log as it stands, for a consumer that reports mid-run
/// (`ute profile`'s own stage, `ute report`) and must leave the spans
/// for the end-of-run drain.
pub fn captured_spans() -> Vec<FinishedSpan> {
    span_log().lock().clone()
}

/// Takes every captured flow point out of the log.
pub fn drain_flows() -> Vec<FlowPoint> {
    std::mem::take(&mut *flow_log().lock())
}

/// Allocates a fresh cross-thread link id (see [`flow_begin`]).
pub fn new_link() -> u64 {
    NEXT_LINK_ID.fetch_add(1, Ordering::Relaxed)
}

/// Records the producing end of a cross-thread handoff (the worker,
/// once its result is ready). No-op unless capture is enabled or `link`
/// is 0.
pub fn flow_begin(link: u64) {
    record_flow(link, true);
}

/// Records the consuming end of a cross-thread handoff (the thread that
/// takes the result). No-op unless capture is enabled or `link` is 0.
pub fn flow_end(link: u64) {
    record_flow(link, false);
}

fn record_flow(link: u64, begin: bool) {
    if link == 0 || !capture_enabled() {
        return;
    }
    let point = FlowPoint {
        link,
        at_ns: now_ns(),
        tid: thread_index(),
        begin,
    };
    let mut log = flow_log().lock();
    if log.len() >= capture_limit() {
        drop(log);
        metrics::counter("obs/flows_dropped").inc();
    } else {
        log.push(point);
    }
}

/// A completed span, as captured for the self-trace sinks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinishedSpan {
    /// Pipeline stage ("trace", "convert", "merge", ...). Becomes the
    /// self-trace timeline the interval lands on (the Chrome-trace
    /// category).
    pub stage: &'static str,
    /// What this span covered ("convert" for the whole stage,
    /// "convert node 3" for one unit of work). Becomes the marker name.
    pub label: String,
    /// Start, in nanoseconds since the process epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Stable process-unique span id (from 1).
    pub id: u64,
    /// Id of the enclosing span, or 0 for a root.
    pub parent: u64,
    /// Dense index of the thread the span ran on.
    pub tid: u64,
    /// CPU time the owning thread consumed while the span was open
    /// (`CLOCK_THREAD_CPUTIME_ID` delta), or 0 where the platform
    /// clock is unavailable. Compare against `dur_ns`
    /// for the wall-vs-CPU utilization ratio: a low ratio means the
    /// span spent its life blocked, not computing.
    pub cpu_ns: u64,
    /// True when the span was closed by a panic unwinding through it
    /// (a pipeline worker caught by `catch_unwind`): the recorded
    /// duration covers work up to the abort, not a clean completion.
    pub aborted: bool,
}

/// One end of a cross-thread handoff; paired by `link`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowPoint {
    /// Link id shared by the begin/end pair (see [`new_link`]).
    pub link: u64,
    /// When the handoff end was recorded, ns since the process epoch.
    pub at_ns: u64,
    /// Dense index of the thread it was recorded on.
    pub tid: u64,
    /// True for the producing end, false for the consuming end.
    pub begin: bool,
}

/// RAII wall-clock timer for one stage or unit of work.
#[must_use = "a span measures the scope it is alive in"]
pub struct Span {
    stage: &'static str,
    id: u64,
    parent: u64,
    /// What open measured, when capture was on at open (capture may
    /// toggle mid-span; the close side must match what open did).
    capture: Option<Capture>,
}

/// What a captured span read at open, and gives back at close.
struct Capture {
    /// `None` when the label equals the stage name (saves the
    /// allocation on the common whole-stage spans).
    label: Option<String>,
    start: Instant,
    /// Thread CPU clock at open.
    cpu_start: u64,
    /// Stage slot to restore on close.
    prev_slot: usize,
}

impl Span {
    fn open(stage: &'static str, label: Option<impl Into<String>>, parent: u64) -> Span {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        SPAN_STACK.with(|s| s.borrow_mut().push(id));
        let capture = capture_enabled().then(|| Capture {
            label: label.map(Into::into),
            cpu_start: crate::prof::thread_cpu_ns(),
            prev_slot: crate::prof::slot_enter(stage),
            start: Instant::now(),
        });
        Span {
            stage,
            id,
            parent,
            capture,
        }
    }

    /// Opens a span for a unit of work within a stage. Its parent is
    /// the innermost span open on the calling thread.
    pub fn enter(stage: &'static str, label: impl Into<String>) -> Span {
        Span::open(stage, Some(label), current_span())
    }

    /// Opens a whole-stage span (label = stage name), parented like
    /// [`Span::enter`].
    pub fn stage(stage: &'static str) -> Span {
        Span::open(stage, None::<String>, current_span())
    }

    /// Opens a span under an explicit parent id — the cross-thread
    /// form: a spawning thread captures [`current_span`] and hands it
    /// to its workers so their spans nest under the pipeline span.
    pub fn enter_under(stage: &'static str, label: impl Into<String>, parent: u64) -> Span {
        Span::open(stage, Some(label), parent)
    }

    /// This span's stable id (pass to [`Span::enter_under`] on another
    /// thread to nest work under it).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// What this span would log if it closed now, on the calling thread
    /// (which must be the one that opened it), or `None` when it is not
    /// captured. How a mid-run consumer accounts for the root span it is
    /// still running inside.
    pub fn so_far(&self) -> Option<FinishedSpan> {
        let c = self.capture.as_ref()?;
        Some(self.finished(c, c.label.clone()))
    }

    fn finished(&self, c: &Capture, label: Option<String>) -> FinishedSpan {
        FinishedSpan {
            stage: self.stage,
            label: label.unwrap_or_else(|| self.stage.to_string()),
            start_ns: c.start.saturating_duration_since(epoch()).as_nanos() as u64,
            dur_ns: c.start.elapsed().as_nanos() as u64,
            id: self.id,
            parent: self.parent,
            tid: thread_index(),
            cpu_ns: crate::prof::thread_cpu_ns().saturating_sub(c.cpu_start),
            aborted: std::thread::panicking(),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        // Pop this span from the thread stack. Spans are scoped, so it
        // is almost always on top; searching from the top keeps the
        // stack consistent even under unusual drop orders.
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&id| id == self.id) {
                stack.remove(pos);
            }
        });
        if let Some(mut c) = self.capture.take() {
            let label = c.label.take();
            let finished = self.finished(&c, label);
            crate::prof::slot_restore(c.prev_slot);
            let mut log = span_log().lock();
            if log.len() >= capture_limit() {
                drop(log);
                metrics::counter("obs/spans_dropped").inc();
            } else {
                log.push(finished);
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Capture and its log are process-global; every test that toggles
    /// or drains them (here and in `prof`) holds this.
    pub(crate) fn capture_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
    }

    #[test]
    fn spans_are_captured_with_their_hierarchy() {
        let _guard = capture_lock();
        set_capture(true);
        {
            let _a = Span::stage("test-span-stage");
            let _b = Span::enter("test-span-stage", "unit 1");
        }
        set_capture(false);
        let spans: Vec<_> = drain_spans()
            .into_iter()
            .filter(|s| s.stage == "test-span-stage")
            .collect();
        assert_eq!(spans.len(), 2);
        // Inner span ends first.
        assert_eq!(spans[0].label, "unit 1");
        assert_eq!(spans[1].label, "test-span-stage");
        // And the hierarchy is recorded: the unit nests under the stage.
        assert_eq!(spans[0].parent, spans[1].id);
        assert_eq!(spans[0].tid, spans[1].tid);
        assert!(!spans[0].aborted && !spans[1].aborted);
    }

    #[test]
    fn capture_off_discards() {
        let _guard = capture_lock();
        set_capture(false);
        drain_spans();
        {
            let _s = Span::stage("test-span-nocapture");
        }
        assert!(drain_spans()
            .iter()
            .all(|s| s.stage != "test-span-nocapture"));
    }

    #[test]
    fn cross_thread_parent_and_distinct_tids() {
        let _guard = capture_lock();
        set_capture(true);
        let (outer_id, outer_tid) = {
            let outer = Span::enter("test-span-xthread", "pipeline");
            let id = outer.id();
            let tid = thread_index();
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _w = Span::enter_under("test-span-xthread", "worker", id);
                })
                .join()
                .unwrap();
            });
            (id, tid)
        };
        set_capture(false);
        let spans: Vec<_> = drain_spans()
            .into_iter()
            .filter(|s| s.stage == "test-span-xthread")
            .collect();
        assert_eq!(spans.len(), 2);
        let worker = spans.iter().find(|s| s.label == "worker").unwrap();
        assert_eq!(worker.parent, outer_id);
        assert_ne!(worker.tid, outer_tid, "worker thread got its own index");
    }

    #[test]
    fn capture_log_is_bounded_and_counts_drops() {
        let _guard = capture_lock();
        // The limit and the log are process-global; run the whole check
        // under a fresh drain so concurrent span tests only ever add
        // spans (which this test tolerates by counting its own stage).
        set_capture(true);
        drain_spans();
        set_capture_limit(8);
        let dropped_before = metrics::counter("obs/spans_dropped").get();
        for i in 0..32 {
            let _s = Span::enter("test-span-bounded", format!("unit {i}"));
        }
        set_capture_limit(DEFAULT_CAPTURE_LIMIT);
        set_capture(false);
        let kept = drain_spans();
        assert!(kept.len() <= 8, "log grew past the cap: {}", kept.len());
        assert!(
            metrics::counter("obs/spans_dropped").get() >= dropped_before + 24,
            "drops were not counted"
        );
    }

    #[test]
    fn flow_points_pair_by_link() {
        let _guard = capture_lock();
        set_capture(true);
        drain_flows();
        let link = new_link();
        flow_begin(link);
        std::thread::scope(|s| {
            s.spawn(|| flow_end(link)).join().unwrap();
        });
        set_capture(false);
        let flows: Vec<_> = drain_flows()
            .into_iter()
            .filter(|f| f.link == link)
            .collect();
        assert_eq!(flows.len(), 2);
        let begin = flows.iter().find(|f| f.begin).unwrap();
        let end = flows.iter().find(|f| !f.begin).unwrap();
        assert!(begin.at_ns <= end.at_ns);
        assert_ne!(begin.tid, end.tid);
        // Link 0 and capture-off points are never recorded.
        flow_begin(0);
        assert!(drain_flows().is_empty());
    }

    #[test]
    fn panicking_spans_are_marked_aborted() {
        let _guard = capture_lock();
        set_capture(true);
        let caught = std::panic::catch_unwind(|| {
            let _s = Span::enter("test-span-abort", "doomed");
            panic!("injected");
        });
        set_capture(false);
        assert!(caught.is_err());
        let spans: Vec<_> = drain_spans()
            .into_iter()
            .filter(|s| s.stage == "test-span-abort")
            .collect();
        assert_eq!(spans.len(), 1, "panicking span must still be recorded");
        assert!(spans[0].aborted);
        // The thread stack healed: new spans are not parented under the
        // aborted one.
        assert_eq!(current_span(), 0);
    }
}
