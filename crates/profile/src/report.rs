//! The ranked bottleneck report: fuses sampler self-time, per-stage
//! CPU utilization, and allocator attribution
//! into one structure with text and JSON renderings.

use crate::alloc::{stage_alloc_stats, tracking_enabled};
use crate::sampler::ProfileData;
use ute_obs::MetricsSnapshot;

/// One ranked row of the bottleneck report (one pipeline stage).
#[derive(Debug, Clone)]
pub struct StageRow {
    /// Stage name ("convert", "merge", "pipeline", ...).
    pub stage: String,
    /// Sampler ticks whose leaf frame was in this stage.
    pub self_samples: u64,
    /// Estimated self time: `self_samples × mean tick interval`.
    pub self_ns: u64,
    /// Self time as a share of profiled wall time, in percent. Sums
    /// can exceed 100 when several threads run concurrently — that is
    /// CPU-weighted attribution, not an error.
    pub self_pct: f64,
    /// Total wall time of this stage's spans (`{stage}/span_ns` sum).
    pub wall_ns: u64,
    /// Total thread CPU time of this stage's spans (`{stage}/cpu_ns`).
    pub cpu_ns: u64,
    /// `cpu_ns / wall_ns`: ~1.0 means compute-bound, ~0 means the
    /// stage spent its life blocked (or the CPU clock is unsupported).
    pub utilization: f64,
    /// Allocation calls attributed to the stage (needs `count-allocs`).
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub alloc_bytes: u64,
}

/// The full `ute profile` report.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Workload label the run profiled.
    pub workload: String,
    /// Profiled wall time (sampler start → stop), ns.
    pub wall_ns: u64,
    /// Configured sampling interval, µs.
    pub interval_us: u64,
    /// Sampler wakeups over the run.
    pub ticks: u64,
    /// Total leaf-frame samples across all threads.
    pub leaf_samples: u64,
    /// Share of ticks that saw at least one open span, 0..=1. Low
    /// coverage means the profiled region missed most of the run.
    pub coverage: f64,
    /// Whether the per-thread CPU clock is real on this platform.
    pub cpu_clock: bool,
    /// Whether the counting allocator is compiled in.
    pub alloc_tracking: bool,
    /// Distinct folded stacks captured.
    pub folded_stacks: usize,
    /// Ranked rows, highest self time first.
    pub stages: Vec<StageRow>,
}

/// Builds the report from the sampler's data and a metrics snapshot
/// taken after the run (for the span and CPU histograms).
pub fn build_report(workload: &str, data: &ProfileData, snap: &MetricsSnapshot) -> ProfileReport {
    let wall_ns = data.stopped_ns.saturating_sub(data.started_ns);
    let tick_ns = data.tick_ns();
    let mut stages: Vec<StageRow> = data
        .leaf_by_stage
        .iter()
        .map(|(stage, &self_samples)| {
            let self_ns = self_samples * tick_ns;
            let self_pct = if wall_ns > 0 {
                self_ns as f64 / wall_ns as f64 * 100.0
            } else {
                0.0
            };
            let span_wall = snap
                .histogram(&format!("{stage}/span_ns"))
                .map(|h| h.sum)
                .unwrap_or(0);
            let span_cpu = snap
                .histogram(&format!("{stage}/cpu_ns"))
                .map(|h| h.sum)
                .unwrap_or(0);
            let utilization = if span_wall > 0 {
                span_cpu as f64 / span_wall as f64
            } else {
                0.0
            };
            let alloc = stage_alloc_stats(stage);
            StageRow {
                stage: stage.clone(),
                self_samples,
                self_ns,
                self_pct,
                wall_ns: span_wall,
                cpu_ns: span_cpu,
                utilization,
                allocs: alloc.allocs,
                alloc_bytes: alloc.bytes,
            }
        })
        .collect();
    stages.sort_by(|a, b| {
        b.self_samples
            .cmp(&a.self_samples)
            .then(a.stage.cmp(&b.stage))
    });

    ProfileReport {
        workload: workload.to_string(),
        wall_ns,
        interval_us: data.interval_us,
        ticks: data.ticks,
        leaf_samples: data.leaf_samples,
        coverage: if data.ticks > 0 {
            (data.ticks - data.idle_ticks) as f64 / data.ticks as f64
        } else {
            0.0
        },
        cpu_clock: ute_obs::cpu_clock_supported(),
        alloc_tracking: tracking_enabled(),
        folded_stacks: data.folded.len(),
        stages,
    }
}

impl ProfileReport {
    /// Sum of stage self times, ns (the acceptance check compares this
    /// against `wall_ns`).
    pub fn total_self_ns(&self) -> u64 {
        self.stages.iter().map(|s| s.self_ns).sum()
    }

    /// The report as JSON (hand-rolled like every sink in this tree —
    /// stable key order, no trailing spaces).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        // `enabled` leads so `ute report`'s profile block has the same
        // shape whether profiling ran (full report) or not
        // (`{"enabled": false}`).
        out.push_str("  \"enabled\": true,\n");
        out.push_str(&format!("  \"workload\": \"{}\",\n", esc(&self.workload)));
        out.push_str(&format!("  \"wall_ns\": {},\n", self.wall_ns));
        out.push_str(&format!("  \"interval_us\": {},\n", self.interval_us));
        out.push_str(&format!("  \"ticks\": {},\n", self.ticks));
        out.push_str(&format!("  \"leaf_samples\": {},\n", self.leaf_samples));
        out.push_str(&format!("  \"coverage\": {:.4},\n", self.coverage));
        out.push_str(&format!("  \"cpu_clock\": {},\n", self.cpu_clock));
        out.push_str(&format!("  \"alloc_tracking\": {},\n", self.alloc_tracking));
        out.push_str(&format!("  \"folded_stacks\": {},\n", self.folded_stacks));
        out.push_str("  \"stages\": [\n");
        for (i, s) in self.stages.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"stage\": \"{}\", \"self_samples\": {}, \"self_ns\": {}, \
                 \"self_pct\": {:.2}, \"wall_ns\": {}, \"cpu_ns\": {}, \
                 \"utilization\": {:.4}, \"allocs\": {}, \"alloc_bytes\": {}}}{}\n",
                esc(&s.stage),
                s.self_samples,
                s.self_ns,
                s.self_pct,
                s.wall_ns,
                s.cpu_ns,
                s.utilization,
                s.allocs,
                s.alloc_bytes,
                if i + 1 < self.stages.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }

    /// The human-facing ranked table `ute profile` prints.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "profile: {} — wall {}, {} ticks @ {} µs, coverage {:.1}% (cpu clock: {}, alloc tracking: {})\n",
            self.workload,
            fmt_ns(self.wall_ns),
            self.ticks,
            self.interval_us,
            self.coverage * 100.0,
            if self.cpu_clock { "yes" } else { "no" },
            if self.alloc_tracking { "on" } else { "off" },
        ));
        out.push_str(&format!(
            "{:>4}  {:<12} {:>7} {:>10} {:>10} {:>10} {:>6} {:>9} {:>11}\n",
            "rank", "stage", "self%", "self", "wall", "cpu", "util%", "allocs", "bytes"
        ));
        for (i, s) in self.stages.iter().enumerate() {
            let (allocs, bytes) = if self.alloc_tracking {
                (s.allocs.to_string(), s.alloc_bytes.to_string())
            } else {
                ("-".to_string(), "-".to_string())
            };
            out.push_str(&format!(
                "{:>4}  {:<12} {:>6.1}% {:>10} {:>10} {:>10} {:>6.1} {:>9} {:>11}\n",
                i + 1,
                s.stage,
                s.self_pct,
                fmt_ns(s.self_ns),
                fmt_ns(s.wall_ns),
                fmt_ns(s.cpu_ns),
                s.utilization * 100.0,
                allocs,
                bytes,
            ));
        }
        out.push_str(&format!(
            "flamegraph: {} unique stacks in profile.folded\n",
            self.folded_stacks
        ));
        out
    }
}

/// Human-friendly nanoseconds: ns under 10 µs, µs under 10 ms, else ms.
fn fmt_ns(ns: u64) -> String {
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{:.1} ms", ns as f64 / 1e6)
    }
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data() -> ProfileData {
        let mut d = ProfileData {
            interval_us: 500,
            started_ns: 1_000,
            stopped_ns: 101_000,
            ticks: 100,
            idle_ticks: 5,
            leaf_samples: 110,
            ..ProfileData::default()
        };
        d.folded
            .insert("cli profile;pipeline;convert node 0".into(), 60);
        d.folded.insert("cli profile;pipeline".into(), 50);
        d.leaf_by_stage.insert("convert".into(), 60);
        d.leaf_by_stage.insert("pipeline".into(), 50);
        d
    }

    #[test]
    fn report_ranks_by_self_samples_and_sums_self_time() {
        let data = sample_data();
        let snap = ute_obs::snapshot();
        let report = build_report("stencil", &data, &snap);
        assert_eq!(report.stages.len(), 2);
        assert_eq!(report.stages[0].stage, "convert");
        assert!(report.stages[0].self_pct > report.stages[1].self_pct);
        // 110 leaf samples × 1 µs tick = 110 µs self over 100 µs wall.
        assert_eq!(report.total_self_ns(), 110_000);
        assert!(report.total_self_ns() as f64 >= 0.9 * report.wall_ns as f64);
        assert!((report.coverage - 0.95).abs() < 1e-9);
    }

    #[test]
    fn json_and_text_render_every_section() {
        let data = sample_data();
        let snap = ute_obs::snapshot();
        let report = build_report("stencil", &data, &snap);
        let json = report.to_json();
        for key in [
            "\"workload\"",
            "\"wall_ns\"",
            "\"coverage\"",
            "\"stages\"",
            "\"utilization\"",
            "\"folded_stacks\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let text = report.render_text();
        assert!(text.contains("rank"));
        assert!(text.contains("flamegraph:"));
    }
}
