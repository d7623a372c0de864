//! Snapshots of the global registry, rendered as a per-stage TSV
//! table (for `--metrics` on stderr) or machine-readable JSON (for
//! `ute report`). JSON is hand-rolled: the report shape is flat and
//! this crate stays dependency-free.

use crate::metrics::{self, Histogram, HIST_BUCKETS};

/// One histogram, frozen.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    /// Per-bucket counts (see [`Histogram::bucket_bounds`]).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`) from the log₂ buckets:
    /// find the bucket holding the rank-`⌈q·count⌉` observation and
    /// interpolate linearly inside it, clamped to the observed
    /// `[min, max]` so the tails never overshoot the true extremes.
    /// Returns 0 when empty. Log₂ buckets bound the relative error at
    /// 2× within a bucket; in practice the min/max clamp and the
    /// interpolation keep p50/p95/p99 well inside that.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let (lo, hi) = Histogram::bucket_bounds(i);
                // Position of the rank within this bucket, in (0, 1].
                let frac = (rank - seen) as f64 / c as f64;
                let est = lo as f64 + frac * (hi - lo) as f64;
                return (est as u64).clamp(self.min, self.max);
            }
            seen += c;
        }
        self.max
    }

    /// p50 shorthand.
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// p95 shorthand.
    pub fn p95(&self) -> u64 {
        self.percentile(0.95)
    }

    /// p99 shorthand.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }
}

/// Every metric in the registry, frozen at one instant, sorted by name.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Takes a snapshot of the global registry.
pub fn snapshot() -> MetricsSnapshot {
    let reg = metrics::global();
    let mut snap = MetricsSnapshot::default();
    reg.visit_counters(|name, v| snap.counters.push((name.to_string(), v)));
    reg.visit_gauges(|name, v| snap.gauges.push((name.to_string(), v)));
    reg.visit_histograms(|name, h| {
        snap.histograms.push((
            name.to_string(),
            HistogramSnapshot {
                count: h.count(),
                sum: h.sum(),
                min: h.min(),
                max: h.max(),
                buckets: h.bucket_counts(),
            },
        ))
    });
    snap.counters.sort();
    snap.gauges.sort_by(|a, b| a.0.cmp(&b.0));
    snap.histograms.sort_by(|a, b| a.0.cmp(&b.0));
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
        let keep = |name: &str| !name.ends_with("_ns") && !name.starts_with("pipeline/");
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .filter(|(n, _)| keep(n))
                .cloned()
                .collect(),
            gauges: self
                .gauges
                .iter()
                .filter(|(n, _)| keep(n))
                .cloned()
                .collect(),
            histograms: self
                .histograms
                .iter()
                .filter(|(n, _)| keep(n))
                .cloned()
                .collect(),
        }
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

    /// A histogram, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// The `--metrics` table: one `kind<TAB>name<TAB>value...` row per
    /// metric, grouped by pipeline stage (the `stage/` name prefix).
    /// Histograms render as count/mean/min/max/percentiles in
    /// nanosecond-friendly units. Zero-valued metrics are kept: "this
    /// never happened" is information.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("kind\tname\tvalue\tdetail\n");
        for (name, v) in &self.counters {
            out.push_str(&format!("counter\t{name}\t{v}\t\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("gauge\t{name}\t{}\t\n", fmt_f64(*v)));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "histogram\t{name}\t{}\tmean={} min={} max={} sum={} p50={} p95={} p99={}\n",
                h.count,
                fmt_f64(h.mean()),
                h.min,
                h.max,
                h.sum,
                h.p50(),
                h.p95(),
                h.p99(),
            ));
        }
        out
    }

    /// The `ute report` JSON object (`{"counters": {...}, "gauges":
    /// {...}, "histograms": {...}}`) with percentile fields; see
    /// [`MetricsSnapshot::render_json`].
    pub fn to_json(&self) -> String {
        self.render_json(&ReportOptions::default())
    }

    /// Renders the report JSON. Histogram buckets serialize sparsely
    /// as `[lo, hi, count]` triples; `opts.percentiles` adds
    /// p50/p95/p99 fields (off under `--stable`: the estimates are
    /// interpolated floats of wall-clock data and would defeat
    /// byte-comparability); `opts.extra` blocks close the object, in
    /// order, as further top-level keys.
    pub fn render_json(&self, opts: &ReportOptions<'_>) -> String {
        let mut s = String::from("{\n  \"counters\": {");
        push_entries(&mut s, self.counters.iter(), |s, v| {
            s.push_str(&v.to_string())
        });
        s.push_str("},\n  \"gauges\": {");
        push_entries(&mut s, self.gauges.iter(), |s, v| s.push_str(&fmt_f64(*v)));
        s.push_str("},\n  \"histograms\": {");
        push_entries(&mut s, self.histograms.iter(), |s, h| {
            s.push_str(&format!(
                "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"mean\": {}, ",
                h.count,
                h.sum,
                h.min,
                h.max,
                fmt_f64(h.mean()),
            ));
            if opts.percentiles {
                s.push_str(&format!(
                    "\"p50\": {}, \"p95\": {}, \"p99\": {}, ",
                    h.p50(),
                    h.p95(),
                    h.p99(),
                ));
            }
            s.push_str("\"buckets\": [");
            let mut first = true;
            for (i, &c) in h.buckets.iter().enumerate().take(HIST_BUCKETS) {
                if c == 0 {
                    continue;
                }
                if !first {
                    s.push_str(", ");
                }
                first = false;
                let (lo, hi) = Histogram::bucket_bounds(i);
                s.push_str(&format!("[{lo}, {hi}, {c}]"));
            }
            s.push_str("]}");
        });
        s.push('}');
        for (key, json) in opts.extra {
            s.push_str(&format!(",\n  \"{}\": {json}", json_escape(key)));
        }
        s.push_str("\n}\n");
        s
    }
}

/// Options for [`MetricsSnapshot::render_json`].
#[derive(Debug, Default)]
pub struct ReportOptions<'a> {
    /// Include p50/p95/p99 estimates on histograms.
    pub percentiles: bool,
    /// Further top-level `(key, raw JSON value)` blocks, rendered last
    /// in this order (`ute report`'s diagnostics and profile).
    pub extra: &'a [(&'a str, String)],
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
    use crate::metrics::{counter, gauge, histogram};

    #[test]
    fn snapshot_finds_metrics_and_renders() {
        counter("test/report/c").add(7);
        gauge("test/report/g").set(2.5);
        histogram("test/report/h").record(100);
        let snap = snapshot();
        assert_eq!(snap.counter("test/report/c"), Some(7));
        assert_eq!(snap.gauge("test/report/g"), Some(2.5));
        assert_eq!(snap.histogram("test/report/h").unwrap().count, 1);

        let tsv = snap.to_tsv();
        assert!(tsv.contains("counter\ttest/report/c\t7"));
        assert!(tsv.starts_with("kind\tname\tvalue"));

        let json = snap.to_json();
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
        histogram("teststage/span_ns").record(55);
        let snap = snapshot().stable();
        assert_eq!(snap.counter("test/stable/kept"), Some(1));
        assert_eq!(snap.counter("pipeline/test_stable_batches"), None);
        assert_eq!(snap.gauge("test/stable/span_ns"), None);
        assert!(snap.histogram("teststage/span_ns").is_none());
        // Deterministic salvage/obs totals survive the filter.
        assert_eq!(snap.counter("salvage/test_stable_kept"), Some(2));
        assert_eq!(snap.counter("obs/test_stable_kept"), Some(4));
    }

    #[test]
    fn percentiles_from_log2_buckets() {
        let empty = HistogramSnapshot {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: vec![0; HIST_BUCKETS],
        };
        assert_eq!(empty.p50(), 0);

        // A point mass: every percentile is the value itself (the
        // min/max clamp collapses the bucket interpolation).
        let h = histogram("test/report/pct_point");
        for _ in 0..100 {
            h.record(1000);
        }
        let snap = snapshot();
        let hs = snap.histogram("test/report/pct_point").unwrap();
        assert_eq!(hs.p50(), 1000);
        assert_eq!(hs.p99(), 1000);

        // A two-mode distribution: p50 sits in the low mode, p99 in
        // the high one, and everything stays within [min, max].
        let h = histogram("test/report/pct_bimodal");
        for _ in 0..95 {
            h.record(100);
        }
        for _ in 0..5 {
            h.record(100_000);
        }
        let snap = snapshot();
        let hs = snap.histogram("test/report/pct_bimodal").unwrap();
        assert!(hs.p50() >= 64 && hs.p50() < 128, "p50 = {}", hs.p50());
        assert!(hs.p99() >= 65_536, "p99 = {}", hs.p99());
        assert!(hs.p99() <= 100_000);
        // Monotone in q.
        assert!(hs.p50() <= hs.p95() && hs.p95() <= hs.p99());
    }

    #[test]
    fn render_json_options_add_percentiles_and_extra_blocks() {
        histogram("test/report/opts_h").record(512);
        let snap = snapshot();
        let plain = snap.to_json();
        assert!(!plain.contains("\"p95\""), "percentiles off by default");
        let full = snap.render_json(&ReportOptions {
            percentiles: true,
            extra: &[("diagnostics", "{\"findings\": 0}".to_string())],
        });
        assert!(full.ends_with("]}\n  },\n  \"diagnostics\": {\"findings\": 0}\n}\n"));
        assert!(full.contains("\"p50\""), "{full}");
    }
}
