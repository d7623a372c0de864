//! Snapshots of the global registry plus the span rows of one command,
//! rendered as a per-stage TSV table (for `--metrics` on stderr) or
//! machine-readable JSON (for `ute report`). A `<stage>/span_ns` row is
//! computed from the spans the command captured — exact durations, so
//! its percentiles are durations that were measured. JSON is
//! hand-rolled: the report shape is flat and this crate stays
//! dependency-free.

use std::collections::HashMap;

use crate::metrics;
use crate::span::FinishedSpan;

/// The durations of one stage's spans, sorted ascending: the stage's
/// `<stage>/span_ns` row.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTimes {
    sorted: Vec<u64>,
}

impl SpanTimes {
    /// Number of spans.
    pub fn count(&self) -> u64 {
        self.sorted.len() as u64
    }

    /// Total duration.
    pub fn sum(&self) -> u64 {
        self.sorted.iter().sum()
    }

    /// Shortest duration, or 0 when empty.
    pub fn min(&self) -> u64 {
        self.sorted.first().copied().unwrap_or(0)
    }

    /// Longest duration, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.sorted.last().copied().unwrap_or(0)
    }

    /// Mean duration, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sum() as f64 / self.sorted.len() as f64
        }
    }

    /// The nearest-rank `q`-quantile (`0.0 ..= 1.0`): the
    /// `⌈q·count⌉`-th shortest duration, or 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        let n = self.sorted.len();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
        self.sorted[rank - 1]
    }

    /// The non-empty log₂ buckets, ascending, as `(lo, hi, count)` with
    /// `[lo, hi)` the bucket's range: `[0, 1)` holds zeros, then
    /// `[2^(i-1), 2^i)` for `i` in 1..64, then `[2^63, u64::MAX)`.
    pub fn buckets(&self) -> Vec<(u64, u64, u64)> {
        let mut out: Vec<(u64, u64, u64)> = Vec::new();
        for &v in &self.sorted {
            let (lo, hi) = match 64 - v.leading_zeros() {
                0 => (0, 1),
                64 => (1 << 63, u64::MAX),
                i => (1 << (i - 1), 1 << i),
            };
            match out.last_mut() {
                Some(b) if b.0 == lo => b.2 += 1,
                _ => out.push((lo, hi, 1)),
            }
        }
        out
    }
}

/// Every metric in the registry, frozen at one instant, and the span
/// rows of one command, each sorted by name.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    /// `<stage>/span_ns` rows (see [`MetricsSnapshot::with_spans`]).
    pub spans: Vec<(String, SpanTimes)>,
}

/// Takes a snapshot of the global registry (no span rows).
pub fn snapshot() -> MetricsSnapshot {
    let reg = metrics::global();
    let mut snap = MetricsSnapshot::default();
    reg.visit_counters(|name, v| snap.counters.push((name.to_string(), v)));
    reg.visit_gauges(|name, v| snap.gauges.push((name.to_string(), v)));
    snap.counters.sort();
    snap.gauges.sort_by(|a, b| a.0.cmp(&b.0));
    snap
}

impl MetricsSnapshot {
    /// A copy with every scheduling- and wall-clock-dependent metric
    /// removed: names ending in `_ns` (span timings, fitted residuals)
    /// and the `pipeline/` execution-layer metrics (worker counts, queue
    /// depths — functions of `--jobs`, not of the trace). Deterministic
    /// `salvage/*` and `obs/*` totals are *kept*, so fault-matrix CI can
    /// assert on degraded-node and drop counts byte-comparably. What
    /// remains is a pure function of the input, so `ute report --stable`
    /// output is byte-comparable across runs and across `--jobs` values
    /// — the form the CI determinism gate diffs.
    pub fn stable(&self) -> MetricsSnapshot {
        fn kept<T: Clone>(rows: &[(String, T)]) -> Vec<(String, T)> {
            let keep = |name: &str| !name.ends_with("_ns") && !name.starts_with("pipeline/");
            rows.iter().filter(|(n, _)| keep(n)).cloned().collect()
        }
        MetricsSnapshot {
            counters: kept(&self.counters),
            gauges: kept(&self.gauges),
            spans: kept(&self.spans),
        }
    }

    /// This snapshot with one `<stage>/span_ns` row per stage of
    /// `spans`, replacing any it had.
    pub fn with_spans(mut self, spans: &[FinishedSpan]) -> MetricsSnapshot {
        let mut by_stage: HashMap<&str, Vec<u64>> = HashMap::new();
        for s in spans {
            by_stage.entry(s.stage).or_default().push(s.dur_ns);
        }
        self.spans = (by_stage.into_iter())
            .map(|(stage, mut sorted)| {
                sorted.sort_unstable();
                (format!("{stage}/span_ns"), SpanTimes { sorted })
            })
            .collect();
        self.spans.sort_by(|a, b| a.0.cmp(&b.0));
        self
    }

    /// Value of a counter, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Value of a gauge, if registered.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The `--metrics` table: one `kind<TAB>name<TAB>value...` row per
    /// metric, grouped by pipeline stage (the `stage/` name prefix).
    /// A span row (kind `histogram`) renders as count, then
    /// mean/min/max/sum/percentiles in nanoseconds. Zero-valued metrics
    /// are kept: "this never happened" is information.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("kind\tname\tvalue\tdetail\n");
        for (name, v) in &self.counters {
            out.push_str(&format!("counter\t{name}\t{v}\t\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("gauge\t{name}\t{}\t\n", fmt_f64(*v)));
        }
        for (name, t) in &self.spans {
            out.push_str(&format!(
                "histogram\t{name}\t{}\tmean={} min={} max={} sum={} p50={} p95={} p99={}\n",
                t.count(),
                fmt_f64(t.mean()),
                t.min(),
                t.max(),
                t.sum(),
                t.percentile(0.50),
                t.percentile(0.95),
                t.percentile(0.99),
            ));
        }
        out
    }

    /// The `ute report` JSON object: `{"counters": {...}, "gauges":
    /// {...}, "histograms": {...}}`, a span row carrying its
    /// percentiles and its log₂ buckets as sparse `[lo, hi, count]`
    /// triples, then the `extra` `(key, raw JSON value)` blocks, in
    /// order, as further top-level keys.
    pub fn to_json(&self, extra: &[(&str, String)]) -> String {
        let mut s = String::from("{\n  \"counters\": {");
        push_entries(&mut s, self.counters.iter(), |s, v| {
            s.push_str(&v.to_string())
        });
        s.push_str("},\n  \"gauges\": {");
        push_entries(&mut s, self.gauges.iter(), |s, v| s.push_str(&fmt_f64(*v)));
        s.push_str("},\n  \"histograms\": {");
        push_entries(&mut s, self.spans.iter(), |s, t| {
            s.push_str(&format!(
                "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"mean\": {}, \
                 \"p50\": {}, \"p95\": {}, \"p99\": {}, \"buckets\": [",
                t.count(),
                t.sum(),
                t.min(),
                t.max(),
                fmt_f64(t.mean()),
                t.percentile(0.50),
                t.percentile(0.95),
                t.percentile(0.99),
            ));
            let buckets: Vec<String> = (t.buckets().iter())
                .map(|(lo, hi, c)| format!("[{lo}, {hi}, {c}]"))
                .collect();
            s.push_str(&buckets.join(", "));
            s.push_str("]}");
        });
        s.push('}');
        for (key, json) in extra {
            s.push_str(&format!(",\n  \"{}\": {json}", json_escape(key)));
        }
        s.push_str("\n}\n");
        s
    }
}

/// Writes `"name": <value>` entries joined by commas.
fn push_entries<'a, T: 'a>(
    s: &mut String,
    entries: impl Iterator<Item = &'a (String, T)>,
    mut value: impl FnMut(&mut String, &T),
) {
    let mut first = true;
    for (name, v) in entries {
        if !first {
            s.push(',');
        }
        first = false;
        s.push_str("\n    \"");
        s.push_str(&json_escape(name));
        s.push_str("\": ");
        value(s, v);
    }
    s.push_str("\n  ");
}

/// JSON string escaping, for every hand-rolled JSON sink in the tree.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` so JSON stays valid (no NaN/inf) and integers stay
/// integral-looking.
fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{counter, gauge};

    fn span(stage: &'static str, dur_ns: u64) -> FinishedSpan {
        FinishedSpan {
            stage,
            label: stage.to_string(),
            start_ns: 0,
            dur_ns,
            id: 1,
            parent: 0,
            tid: 0,
            cpu_ns: 0,
            aborted: false,
        }
    }

    #[test]
    fn snapshot_finds_metrics_and_renders() {
        counter("test/report/c").add(7);
        gauge("test/report/g").set(2.5);
        let snap = snapshot().with_spans(&[span("test-report", 100)]);
        assert_eq!(snap.counter("test/report/c"), Some(7));
        assert_eq!(snap.gauge("test/report/g"), Some(2.5));
        assert_eq!(snap.spans.len(), 1);

        let tsv = snap.to_tsv();
        assert!(tsv.contains("counter\ttest/report/c\t7"));
        assert!(tsv.starts_with("kind\tname\tvalue"));
        assert!(tsv.ends_with(
            "histogram\ttest-report/span_ns\t1\tmean=100 min=100 max=100 sum=100 \
             p50=100 p95=100 p99=100\n"
        ));

        let json = snap.to_json(&[]);
        assert!(json.contains("\"test/report/c\": 7"));
        assert!(json.contains("\"gauges\""));
        // Buckets are sparse [lo, hi, count] triples.
        assert!(json.contains("[64, 128, 1]"), "{json}");
    }

    #[test]
    fn json_escapes_names() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
    }

    #[test]
    fn stable_drops_wall_clock_and_pipeline_metrics() {
        counter("test/stable/kept").add(1);
        counter("pipeline/test_stable_batches").add(3);
        counter("salvage/test_stable_kept").add(2);
        counter("obs/test_stable_kept").add(4);
        gauge("test/stable/span_ns").set(123.0);
        let snap = snapshot().with_spans(&[span("teststage", 55)]).stable();
        assert_eq!(snap.counter("test/stable/kept"), Some(1));
        assert_eq!(snap.counter("pipeline/test_stable_batches"), None);
        assert_eq!(snap.gauge("test/stable/span_ns"), None);
        assert!(snap.spans.is_empty());
        // Deterministic salvage/obs totals survive the filter.
        assert_eq!(snap.counter("salvage/test_stable_kept"), Some(2));
        assert_eq!(snap.counter("obs/test_stable_kept"), Some(4));
    }

    #[test]
    fn span_rows_are_exact_per_stage() {
        let spans: Vec<FinishedSpan> = (1..=100)
            .map(|i| span("b", i * 10))
            .chain([span("a", 0), span("a", 1 << 63)])
            .collect();
        let snap = MetricsSnapshot::default().with_spans(&spans);
        let names: Vec<&str> = snap.spans.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a/span_ns", "b/span_ns"]);
        let (a, b) = (&snap.spans[0].1, &snap.spans[1].1);
        assert_eq!(
            (b.count(), b.sum(), b.min(), b.max()),
            (100, 50_500, 10, 1000)
        );
        // Nearest rank: each percentile is one of the durations.
        assert_eq!(b.percentile(0.50), 500);
        assert_eq!(b.percentile(0.95), 950);
        assert_eq!(b.percentile(0.99), 990);
        assert_eq!(b.percentile(0.0), 10);
        assert_eq!(SpanTimes::default().percentile(0.5), 0);
        // Buckets are counted from the exact durations.
        assert_eq!(a.buckets(), [(0, 1, 1), (1 << 63, u64::MAX, 1)]);
        let total: u64 = b.buckets().iter().map(|b| b.2).sum();
        assert_eq!(total, 100);
        assert_eq!(b.buckets()[0], (8, 16, 1));
        assert!(b.buckets().iter().all(|&(lo, hi, _)| hi == 2 * lo));
    }

    #[test]
    fn extra_blocks_close_the_object() {
        let full =
            MetricsSnapshot::default().to_json(&[("diagnostics", "{\"findings\": 0}".into())]);
        assert!(
            full.ends_with("\"histograms\": {\n  },\n  \"diagnostics\": {\"findings\": 0}\n}\n")
        );
    }
}
