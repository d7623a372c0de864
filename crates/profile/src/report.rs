//! The ranked bottleneck report: the fold's rows beside allocator
//! attribution and what the platform could measure, with text and JSON
//! renderings.

use crate::alloc::{stage_alloc_stats, tracking_enabled, AllocStats};
use crate::fold::Profile;
use ute_obs::json_escape;

/// The full `ute profile` report.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Workload label the run profiled.
    pub workload: String,
    /// The fold of the run's spans.
    pub profile: Profile,
    /// Allocations attributed to each of `profile.stages`, in the same
    /// order (zeros without `count-allocs`).
    pub allocs: Vec<AllocStats>,
    /// `obs/spans_dropped` when the report was built: spans the capture
    /// limit kept out of the fold.
    pub spans_dropped: u64,
    /// Whether the per-thread CPU clock is real on this platform.
    pub cpu_clock: bool,
    /// Whether the counting allocator is compiled in.
    pub alloc_tracking: bool,
}

/// Puts a fold beside what only the running process knows: allocator
/// totals per stage, the capture's drop count, platform support.
pub fn build_report(workload: &str, profile: Profile) -> ProfileReport {
    ProfileReport {
        workload: workload.to_string(),
        allocs: profile
            .stages
            .iter()
            .map(|s| stage_alloc_stats(&s.stage))
            .collect(),
        profile,
        spans_dropped: ute_obs::counter("obs/spans_dropped").get(),
        cpu_clock: ute_obs::cpu_clock_supported(),
        alloc_tracking: tracking_enabled(),
    }
}

impl ProfileReport {
    /// The report as JSON (hand-rolled like every sink in this tree —
    /// stable key order, no trailing spaces).
    pub fn to_json(&self) -> String {
        let p = &self.profile;
        let mut out = String::from("{\n");
        // `enabled` leads so `ute report`'s profile block has the same
        // shape whether profiling ran (full report) or not
        // (`{"enabled": false}`).
        out.push_str("  \"enabled\": true,\n");
        out.push_str(&format!(
            "  \"workload\": \"{}\",\n",
            json_escape(&self.workload)
        ));
        out.push_str(&format!("  \"wall_ns\": {},\n", p.wall_ns));
        out.push_str(&format!("  \"coverage\": {:.4},\n", p.coverage));
        out.push_str(&format!("  \"spans\": {},\n", p.spans));
        out.push_str(&format!("  \"orphans\": {},\n", p.orphans));
        out.push_str(&format!("  \"spans_dropped\": {},\n", self.spans_dropped));
        out.push_str(&format!("  \"cpu_clock\": {},\n", self.cpu_clock));
        out.push_str(&format!("  \"alloc_tracking\": {},\n", self.alloc_tracking));
        out.push_str(&format!("  \"folded_stacks\": {},\n", p.folded.len()));
        out.push_str("  \"stages\": [\n");
        for (i, (s, a)) in p.stages.iter().zip(&self.allocs).enumerate() {
            out.push_str(&format!(
                "    {{\"stage\": \"{}\", \"self_ns\": {}, \
                 \"self_pct\": {:.2}, \"wall_ns\": {}, \"cpu_ns\": {}, \
                 \"utilization\": {:.4}, \"allocs\": {}, \"alloc_bytes\": {}}}{}\n",
                json_escape(&s.stage),
                s.self_ns,
                s.self_pct,
                s.wall_ns,
                s.cpu_ns,
                s.utilization,
                a.allocs,
                a.bytes,
                if i + 1 < p.stages.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }

    /// The human-facing ranked table `ute profile` prints.
    pub fn render_text(&self) -> String {
        let p = &self.profile;
        let mut out = String::new();
        out.push_str(&format!(
            "profile: {} — wall {}, {} spans, coverage {:.1}% (cpu clock: {}, alloc tracking: {})\n",
            self.workload,
            fmt_ns(p.wall_ns),
            p.spans,
            p.coverage * 100.0,
            if self.cpu_clock { "yes" } else { "no" },
            if self.alloc_tracking { "on" } else { "off" },
        ));
        if self.spans_dropped > 0 {
            out.push_str(&format!(
                "capture limit dropped {} span(s) (obs/spans_dropped); {} kept span(s) lost their parent\n",
                self.spans_dropped, p.orphans
            ));
        }
        out.push_str(&format!(
            "{:>4}  {:<12} {:>7} {:>10} {:>10} {:>10} {:>6} {:>9} {:>11}\n",
            "rank", "stage", "self%", "self", "wall", "cpu", "util%", "allocs", "bytes"
        ));
        for (i, (s, a)) in p.stages.iter().zip(&self.allocs).enumerate() {
            let (allocs, bytes) = if self.alloc_tracking {
                (a.allocs.to_string(), a.bytes.to_string())
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
            p.folded.len()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fold::StageRow;

    #[test]
    fn json_and_text_render_every_section() {
        let profile = Profile {
            wall_ns: 100_000,
            coverage: 0.95,
            spans: 3,
            stages: vec![StageRow {
                stage: "convert".into(),
                self_ns: 60_000,
                self_pct: 60.0,
                wall_ns: 80_000,
                cpu_ns: 40_000,
                utilization: 0.5,
            }],
            ..Profile::default()
        };
        let report = build_report("sten\"cil", profile);
        let json = report.to_json();
        for key in [
            "\"workload\": \"sten\\\"cil\"",
            "\"wall_ns\": 100000",
            "\"coverage\": 0.9500",
            "\"spans\": 3",
            "\"stages\"",
            "\"self_ns\": 60000",
            "\"utilization\": 0.5000",
            "\"folded_stacks\": 0",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let text = report.render_text();
        assert!(text.contains("3 spans, coverage 95.0%"), "{text}");
        assert!(text.contains("   1  convert"), "{text}");
        assert!(text.contains("flamegraph:"));
    }
}
