//! The run explaining itself: `report` (every metric as JSON) and
//! `profile` (the ranked fold of the span log), both over the journaled
//! pipeline of [`crate::stages`].

use std::path::PathBuf;

use ute_core::error::Result;
use ute_format::profile::Profile;

use crate::{stages, Args};

/// Counters that exist on every run, registered up front so a *clean*
/// run's report still carries them (as zeros). Without this, the keys
/// only appear once the first salvage/drop event bumps them — and a
/// `--stable` report could not be byte-compared between a fault-matrix
/// job and its clean baseline, or asserted on ("this never happened"
/// would be indistinguishable from "this was never measured").
pub(crate) const BASELINE_COUNTERS: &[&str] = &[
    "salvage/nodes_degraded",
    "salvage/records_skipped",
    "salvage/bytes_skipped",
    "salvage/resyncs",
    "salvage/intervals_truncated",
    "obs/spans_dropped",
    "obs/flows_dropped",
    "analyze/rows",
    "analyze/frames_read",
    "analyze/frames_skipped",
    "analyze/findings",
    "analyze/msgs_matched",
    "store/journal_records",
    "store/journal_replayed",
    "store/stages_run",
    "store/stages_skipped",
    "store/artifacts_published",
    "store/artifacts_verified",
    "store/temps_gc",
    "chaos/kills",
    "chaos/resumes",
];

/// `ute report`: run the full pipeline with metrics from zero and emit
/// every counter and gauge, and a `<stage>/span_ns` row per stage from
/// the spans captured so far (exact count, sum, min, max, mean,
/// nearest-rank p50/p95/p99, log₂ buckets), as machine-readable JSON.
/// `--stable` drops wall-clock and `--jobs`-dependent metrics (every
/// span row among them) so the output is byte-comparable across runs
/// and thread counts (the form the CI determinism job diffs);
/// deterministic `salvage/*` and `obs/*` totals are kept and always
/// present.
pub(crate) fn cmd_report(args: &Args, root: &ute_obs::Span) -> Result<String> {
    ute_obs::reset();
    for name in BASELINE_COUNTERS {
        ute_obs::counter(name);
    }
    stages::cmd_pipeline(args)?;
    // Run the diagnostics over the pipeline's merged output before the
    // snapshot, so the analyze stage's own counters land in the report
    // and the JSON always carries a diagnostics summary block. Findings
    // are a pure function of merged.ivl, so this stays byte-stable
    // across `--jobs` (the determinism CI job diffs it).
    let diag_summary = {
        let dir = PathBuf::from(args.require("out")?);
        let profile = Profile::read_from(&dir.join("profile.ute"))?;
        let table = ute_analyze::load_table(
            &dir.join("merged.ivl"),
            &profile,
            &ute_analyze::LoadOptions::default(),
        )?;
        let findings = ute_analyze::run_all(&table, &ute_analyze::DiagOptions::default());
        ute_analyze::summary_json(ute_analyze::DIAGNOSTICS, &findings)
    };
    let stable = args.has("stable");
    let snap = ute_obs::snapshot().with_spans(&ute_obs::captured_spans());
    let snap = if stable { snap.stable() } else { snap };
    // The diagnostics and, outside --stable, the profile of the run so
    // far (under `--profiler`; the root span is still open) close the
    // object.
    let mut extra = vec![("diagnostics", diag_summary)];
    if !stable {
        extra.push((
            "profile",
            if args.has("profiler") {
                let pj = profile_so_far(args.require("workload")?, root).to_json();
                pj.trim_end().replace('\n', "\n  ")
            } else {
                "{\"enabled\": false}".to_string()
            },
        ));
    }
    let mut json = snap.to_json(&extra);
    json.push('\n');
    Ok(json)
}

/// The profile of a run still in progress: the fold of the spans closed
/// so far, with the caller's still-open root span charged the time on
/// its thread that none of them covers.
fn profile_so_far(workload: &str, root: &ute_obs::Span) -> ute_profile::ProfileReport {
    let spans = ute_obs::captured_spans();
    ute_profile::build_report(workload, ute_profile::fold(&spans, root.so_far()))
}

/// `ute profile`: run the journaled pipeline with span capture on (the
/// dispatcher turns it on before the root span opens, so every stage
/// is covered) and emit the ranked bottleneck report. A sixth journaled
/// `profile` stage folds the spans captured so far and publishes
/// `profile.folded` (flamegraph-ready folded stacks) and `profile.json`
/// (the full report) through the same atomic store protocol as the
/// pipeline artifacts. `--json` prints the report JSON instead of the
/// text rendering.
pub(crate) fn cmd_profile(args: &Args, root: &ute_obs::Span) -> Result<String> {
    ute_obs::reset();
    for name in BASELINE_COUNTERS {
        ute_obs::counter(name);
    }
    let workload = args.require("workload")?.to_string();
    let json_out = std::cell::RefCell::new(String::new());
    let msg = stages::cmd_profile_run(args, || {
        let report = profile_so_far(&workload, root);
        let json = report.to_json();
        json_out.replace(json.clone());
        Ok(stages::StageOutput {
            artifacts: vec![
                (
                    "profile.folded".to_string(),
                    ute_profile::folded_output(&report.profile).into_bytes(),
                ),
                ("profile.json".to_string(), json.into_bytes()),
            ],
            removes: Vec::new(),
            msg: report.render_text(),
        })
    })?;
    if args.has("json") {
        let j = json_out.into_inner();
        if !j.is_empty() {
            return Ok(j);
        }
    }
    Ok(msg)
}
