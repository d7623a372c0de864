//! The profile as a fold over the span log.
//!
//! `ute-obs` already matches every open with its close: a
//! [`FinishedSpan`] is an exact interval with a parent, a thread and a
//! thread-CPU delta. Everything a profiler estimates by sampling is
//! plain arithmetic on those:
//!
//! * a span's **self time** is its duration minus its children *on the
//!   same thread* (a worker opened with `enter_under` runs beside its
//!   parent, not inside it, so it is not subtracted). On each thread the
//!   self times therefore add up, to the nanosecond, to the durations of
//!   the spans that have no same-thread parent;
//! * its **stack** is the label chain through `parent` ids, across
//!   threads, so a worker hangs under the span that spawned it;
//! * a **stage's** wall and CPU are the sums over its spans, counting a
//!   span nested inside another of the same stage on the same thread
//!   once (CPU is per thread, so the same rule holds for it).
//!
//! The fold is pure: the same span list gives the same [`Profile`].

use std::collections::{BTreeMap, HashMap};
use ute_obs::FinishedSpan;

/// One row of the profile: everything the spans say about one stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRow {
    /// Stage name ("convert", "merge", "store", ...).
    pub stage: String,
    /// Time spent in this stage's spans and in no child of theirs,
    /// summed over threads.
    pub self_ns: u64,
    /// `self_ns` as a share of the run's wall time, in percent. With
    /// parallel workers the rows sum past 100: that is thread time
    /// against wall time, not an error.
    pub self_pct: f64,
    /// Wall time inside this stage's spans, summed over threads.
    pub wall_ns: u64,
    /// Thread CPU time inside this stage's spans.
    pub cpu_ns: u64,
    /// `cpu_ns / wall_ns`: ~1.0 means compute-bound, ~0 means the
    /// stage spent its life blocked (or the CPU clock is unsupported).
    pub utilization: f64,
}

/// What [`fold`] makes of one capture.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Profile {
    /// Wall time of the run: the root span's duration.
    pub wall_ns: u64,
    /// Share of the root's wall that lies inside some other span on its
    /// thread, 0..=1. What is left is the root's own self time: work no
    /// stage has been named for.
    pub coverage: f64,
    /// Spans folded (the open root included).
    pub spans: usize,
    /// Spans whose parent is not in the capture — dropped at the capture
    /// limit (`obs/spans_dropped`). Each is kept, as the root of its own
    /// stack.
    pub orphans: usize,
    /// Stack ("outer;inner;leaf") → self time, ns.
    pub folded: BTreeMap<String, u64>,
    /// Ranked rows, highest self time first.
    pub stages: Vec<StageRow>,
}

/// Folds one capture into a [`Profile`]. `open_root` is the root span
/// as far as it has run ([`ute_obs::Span::so_far`]) when the caller is
/// still inside it: it is charged whatever time on its thread no closed
/// span covers. The run's root is the longest span without a parent.
pub fn fold(spans: &[FinishedSpan], open_root: Option<FinishedSpan>) -> Profile {
    let spans: Vec<&FinishedSpan> = spans.iter().chain(open_root.as_ref()).collect();
    let by_id: HashMap<u64, &FinishedSpan> = spans.iter().map(|s| (s.id, *s)).collect();
    // The parent when it ran on the same thread: the one whose time
    // includes this span's.
    let enclosing = |s: &FinishedSpan| by_id.get(&s.parent).copied().filter(|p| p.tid == s.tid);
    let mut children_ns: HashMap<u64, u64> = HashMap::new();
    for s in &spans {
        if let Some(p) = enclosing(s) {
            *children_ns.entry(p.id).or_default() += s.dur_ns;
        }
    }
    let self_ns = |s: &FinishedSpan| {
        s.dur_ns
            .saturating_sub(children_ns.get(&s.id).copied().unwrap_or(0))
    };

    let mut profile = Profile {
        spans: spans.len(),
        ..Profile::default()
    };
    // stage → (self, wall, cpu)
    let mut stages: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for s in &spans {
        let mut stack: Vec<&str> =
            std::iter::successors(Some(*s), |at| by_id.get(&at.parent).copied())
                .map(|at| at.label.as_str())
                .collect();
        stack.reverse();
        *profile.folded.entry(stack.join(";")).or_default() += self_ns(s);
        profile.orphans += usize::from(s.parent != 0 && !by_id.contains_key(&s.parent));

        let row = stages.entry(s.stage).or_default();
        row.0 += self_ns(s);
        let in_own_stage =
            std::iter::successors(enclosing(s), |p| enclosing(p)).any(|p| p.stage == s.stage);
        if !in_own_stage {
            row.1 += s.dur_ns;
            row.2 += s.cpu_ns;
        }
    }

    let root = spans
        .iter()
        .filter(|s| s.parent == 0)
        .max_by_key(|s| (s.dur_ns, std::cmp::Reverse(s.id)));
    if let Some(root) = root {
        profile.wall_ns = root.dur_ns;
        profile.coverage = ratio(root.dur_ns - self_ns(root), root.dur_ns);
    }
    profile.stages = stages
        .into_iter()
        .map(|(stage, (self_ns, wall_ns, cpu_ns))| StageRow {
            stage: stage.to_string(),
            self_ns,
            self_pct: ratio(self_ns, profile.wall_ns) * 100.0,
            wall_ns,
            cpu_ns,
            utilization: ratio(cpu_ns, wall_ns),
        })
        .collect();
    // Stable: rows of equal self time stay in stage-name order.
    profile.stages.sort_by_key(|r| std::cmp::Reverse(r.self_ns));
    profile
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The folded-stack file: one `stack weight` line per distinct stack,
/// sorted, the weight in µs of self time — the format
/// `inferno-flamegraph` / `flamegraph.pl` consume.
pub fn folded_output(profile: &Profile) -> String {
    let mut out = String::new();
    for (stack, ns) in &profile.folded {
        out.push_str(&format!("{stack} {}\n", ns / 1_000));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        stage: &'static str,
        label: &str,
        id: u64,
        parent: u64,
        tid: u64,
        start_us: u64,
        dur_us: u64,
    ) -> FinishedSpan {
        let dur_ns = dur_us * 1_000;
        FinishedSpan {
            stage,
            label: label.to_string(),
            start_ns: start_us * 1_000,
            dur_ns,
            id,
            parent,
            tid,
            cpu_ns: dur_ns / 2,
            aborted: false,
        }
    }

    fn row<'a>(p: &'a Profile, stage: &str) -> &'a StageRow {
        p.stages.iter().find(|r| r.stage == stage).unwrap()
    }

    /// cli root (open) → convert stage → { store write on the root's
    /// thread, a worker on thread 1 → convert node 0 (aborted) }.
    fn capture() -> (Vec<FinishedSpan>, FinishedSpan) {
        let mut node = span("convert", "convert node 0", 5, 4, 1, 120, 500);
        node.aborted = true;
        let closed = vec![
            node,
            span("pipeline", "convert worker node 0", 4, 2, 1, 110, 600),
            span("store", "write trace.0.ivl", 3, 2, 0, 750, 100),
            span("convert", "convert", 2, 1, 0, 100, 800),
        ];
        (closed, span("cli", "pipeline", 1, 0, 0, 0, 1_000))
    }

    #[test]
    fn self_time_subtracts_same_thread_children_only() {
        let (closed, root) = capture();
        let p = fold(&closed, Some(root));
        assert_eq!((p.spans, p.orphans, p.wall_ns), (5, 0, 1_000_000));
        // The open root is charged what no closed span on its thread
        // covers: 1000 − 800; coverage is the rest.
        assert_eq!(row(&p, "cli").self_ns, 200_000);
        assert!((p.coverage - 0.8).abs() < 1e-9);
        // The worker ran beside the convert span, not inside it: only
        // the store write comes off (800 − 100), and the aborted node
        // span still counts (600 − 500 is the worker's own).
        assert_eq!(row(&p, "convert").self_ns, 700_000 + 500_000);
        assert_eq!(row(&p, "pipeline").self_ns, 100_000);
        // ... yet its stack hangs under the span that spawned it.
        assert!(folded_output(&p)
            .contains("pipeline;convert;convert worker node 0;convert node 0 500\n"));
        // Wall is per thread, nested same-stage spans once: 800 + 500.
        assert_eq!(row(&p, "convert").wall_ns, 1_300_000);
        for r in &p.stages {
            assert!(r.self_ns <= r.wall_ns, "{r:?}");
        }
        // Per thread, self times sum to the root durations exactly.
        let total: u64 = p.stages.iter().map(|r| r.self_ns).sum();
        assert_eq!(total, 1_000_000 + 600_000);
        assert_eq!(p.stages[0].stage, "convert", "ranked by self time");
        assert_eq!(fold(&closed, Some(capture().1)), p, "the fold is pure");
    }

    #[test]
    fn orphans_are_kept_and_counted() {
        // Span 7's parent fell to the capture limit.
        let closed = vec![
            span("merge", "merge node 3", 8, 7, 2, 10, 40),
            span("pipeline", "adjust worker node 3", 7, 99, 2, 5, 50),
            span("cli", "merge", 1, 0, 0, 0, 100),
        ];
        let p = fold(&closed, None);
        assert_eq!((p.orphans, p.wall_ns), (1, 100_000));
        assert_eq!(p.folded["adjust worker node 3;merge node 3"], 40_000);
        assert_eq!(row(&p, "pipeline").self_ns, 10_000);
        assert_eq!(p.coverage, 0.0, "nothing ran on the root's thread");
    }
}
