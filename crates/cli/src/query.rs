//! The read side: `preview`, `view` and `analyze` over published
//! artifacts.

use std::path::{Path, PathBuf};

use ute_core::error::{Result, UteError};
use ute_core::mmap::map_file;
use ute_format::file::IntervalFileReader;
use ute_format::profile::Profile;
use ute_obs::Span;
use ute_slog::builder::BuildOptions;
use ute_slog::file::SlogFile;
use ute_view::model::{build_view, ViewConfig, ViewKind};

use crate::Args;

/// `ute preview`: render the whole-run preview of a SLOG file, or of a
/// standard-profile interval file (`--ivl`, e.g. a `--self-trace`
/// output) by building an in-memory SLOG from it first.
pub(crate) fn cmd_preview(args: &Args) -> Result<String> {
    let _stage = Span::stage("view");
    let slog = {
        let _s = Span::enter("slog", "read slog frames");
        match args.get("ivl") {
            Some(ivl) => {
                let bytes = map_file(Path::new(ivl))?;
                // A zero-length file is a trace that never got written;
                // say so instead of failing on a header short-read.
                if bytes.is_empty() {
                    return Ok(format!("empty trace: {ivl} has no data\n"));
                }
                let profile = Profile::standard();
                let reader = IntervalFileReader::open(&bytes, &profile)?;
                let intervals: Result<Vec<_>> = reader.intervals().collect();
                let intervals = intervals?;
                // Header-only: structurally valid but nothing to preview.
                if intervals.is_empty() {
                    return Ok(format!("empty trace: {ivl} contains no intervals\n"));
                }
                ute_slog::builder::SlogBuilder::new(&profile, BuildOptions::default()).build(
                    &intervals,
                    &reader.threads,
                    &reader.markers,
                )?
            }
            // Only the preview is drawn: no frame is decoded.
            None => SlogFile::read_from_in(Path::new(args.require("slog")?), Some((0, 0)))?,
        }
    };
    let mut msg = {
        let _s = Span::enter("ascii", "render ascii");
        let mut msg = ute_view::preview::render_ascii(&slog.preview, 8);
        let ranges = ute_view::preview::interesting_ranges(&slog.preview, 0.25);
        msg.push_str("interesting ranges:");
        for (a, b) in ranges {
            msg.push_str(&format!(" [{a:.3}s..{b:.3}s]"));
        }
        msg.push('\n');
        msg
    };
    if let Some(svg_path) = args.get("svg") {
        write_svg(svg_path, || {
            ute_view::preview::render_svg(&slog.preview, 600, 120)
        })?;
        msg.push_str(&format!("wrote {svg_path}\n"));
    }
    Ok(msg)
}

/// Renders an SVG and writes it to `path`, each under its own span.
fn write_svg(path: &str, render: impl FnOnce() -> String) -> Result<()> {
    let svg = {
        let _s = Span::enter("svg", "render svg");
        render()
    };
    let _s = Span::enter("io", "write svg");
    Ok(std::fs::write(path, svg)?)
}

/// A `--window`/`--frame-at` value in seconds, as ns: a finite,
/// non-negative number or an error naming the option.
fn secs_ns(v: &str, what: &str) -> Result<u64> {
    match v.parse::<f64>() {
        Ok(s) if s.is_finite() && s >= 0.0 => Ok((s * 1e9) as u64),
        _ => Err(UteError::Invalid(format!(
            "{what}: `{v}` is not a finite, non-negative number of seconds"
        ))),
    }
}

/// `ute view`: render a time-space diagram of a SLOG file.
pub(crate) fn cmd_view(args: &Args) -> Result<String> {
    let slog_path = Path::new(args.require("slog")?);
    let kind = match args.get("kind").unwrap_or("thread") {
        "thread" => ViewKind::ThreadActivity,
        "cpu" => ViewKind::ProcessorActivity,
        "threadcpu" => ViewKind::ThreadProcessor,
        "cputhread" => ViewKind::ProcessorThread,
        "type" => ViewKind::TypeActivity,
        other => {
            return Err(UteError::Invalid(format!(
                "unknown view kind `{other}` (thread|cpu|threadcpu|cputhread|type)"
            )))
        }
    };
    let window = match args.get("window") {
        None => None,
        Some(w) => {
            let (a, b) = w
                .split_once(',')
                .ok_or_else(|| UteError::Invalid("--window wants `start,end` seconds".into()))?;
            Some((secs_ns(a, "--window start")?, secs_ns(b, "--window end")?))
        }
    };
    let frame_at = (args.get("frame-at").map(|t| secs_ns(t, "--frame-at"))).transpose()?;
    let width = args.num("width", 100usize)?;
    let cfg = ViewConfig {
        kind,
        window,
        connected: args.has("connected"),
        hide_running: args.has("hide-running"),
        cpus_per_node: args.opt_num("cpus")?.filter(|&c| c > 0),
        ..ViewConfig::default()
    };
    let _stage = Span::stage("view");
    // Only the frames the view walks are decoded: the one holding
    // `--frame-at`, or those a `--window` overlaps.
    let slog = {
        let _s = Span::enter("slog", "read slog frames");
        let frame = frame_at.map(|t| (t, t.saturating_add(1)));
        SlogFile::read_from_in(slog_path, frame.or(window))?
    };
    let view = {
        let _s = Span::enter("model", "build view");
        match frame_at {
            Some(t) => ute_view::model::frame_view(&slog, t, &cfg)?,
            None => build_view(&slog, &cfg)?,
        }
    };
    ute_obs::counter("view/bars").add(view.bars.len() as u64);
    let mut msg = {
        let _s = Span::enter("ascii", "render ascii");
        ute_view::ascii::render(&view, width)
    };
    if let Some(svg_path) = args.get("svg") {
        write_svg(svg_path, || {
            ute_view::svg::render(&view, &ute_view::svg::SvgOptions::default())
        })?;
        msg.push_str(&format!("wrote {svg_path}\n"));
    }
    Ok(msg)
}

/// `ute analyze`: run the programmable diagnostics layer over a trace
/// directory's `merged.ivl` (or over an interval file given directly via
/// `--in FILE`). `--diag NAME` runs one diagnostic, `--all` (the
/// default) runs every one; `--window T0:T1` (seconds) and
/// `--nodes A..B` restrict what is even *loaded* — the loader walks the
/// frame directory and skips frames outside the window without decoding
/// them. `--json` emits the structured findings report instead of text.
pub(crate) fn cmd_analyze(args: &Args) -> Result<String> {
    // Every number and name is checked before a file is touched.
    let input = PathBuf::from(args.require("in")?);
    let window = match args.get("window") {
        None => None,
        Some(w) => {
            let (a, b) = w
                .split_once(':')
                .ok_or_else(|| UteError::Invalid("--window wants `T0:T1` seconds".into()))?;
            Some((secs_ns(a, "--window start")?, secs_ns(b, "--window end")?))
        }
    };
    let nodes = match args.get("nodes") {
        None => None,
        Some(n) => {
            let (a, b) = n
                .split_once("..")
                .ok_or_else(|| UteError::Invalid("--nodes wants `A..B` inclusive".into()))?;
            let a: u16 = a
                .parse()
                .map_err(|_| UteError::Invalid("bad node range start".into()))?;
            let b: u16 = b
                .parse()
                .map_err(|_| UteError::Invalid("bad node range end".into()))?;
            Some((a, b))
        }
    };
    let diags: Vec<&str> = match args.get("diag") {
        Some(d) if ute_analyze::DIAGNOSTICS.contains(&d) => vec![d],
        Some(d) => {
            return Err(UteError::Invalid(format!(
                "unknown diagnostic `{d}` (late_sender|imbalance|comm_pattern|critical_path)"
            )))
        }
        None => ute_analyze::DIAGNOSTICS.to_vec(),
    };
    let imbalance_threshold = args.num("imbalance-threshold", 1.25f64)?;
    if !imbalance_threshold.is_finite() {
        return Err(UteError::Invalid(format!(
            "--imbalance-threshold: `{}` is not a finite number",
            args.get("imbalance-threshold").unwrap_or_default()
        )));
    }
    let dopts = ute_analyze::DiagOptions {
        imbalance_threshold,
        ..ute_analyze::DiagOptions::default()
    };
    let (merged, default_profile) = if input.is_dir() {
        (input.join("merged.ivl"), input.join("profile.ute"))
    } else {
        let dir = input.parent().unwrap_or(Path::new(".")).to_path_buf();
        (input.clone(), dir.join("profile.ute"))
    };
    if !merged.exists() {
        return Err(UteError::NotFound(format!(
            "{} (run `ute pipeline` or `ute merge` first)",
            merged.display()
        )));
    }
    let profile = match args.get("profile") {
        Some(p) => Profile::read_from(Path::new(p))?,
        None if default_profile.exists() => Profile::read_from(&default_profile)?,
        None => Profile::standard(),
    };
    let load = ute_analyze::LoadOptions { window, nodes };
    let table = ute_analyze::load_table(&merged, &profile, &load)?;
    let mut findings = Vec::new();
    for d in &diags {
        findings.extend(ute_analyze::run_diagnostic(d, &table, &dopts)?);
    }
    if args.has("json") {
        return Ok(ute_analyze::render_report_json(
            &diags,
            table.len(),
            &findings,
        ));
    }
    let mut msg = format!(
        "analyzed {} rows ({} diagnostic(s)): {} finding(s)\n",
        table.len(),
        diags.len(),
        findings.len()
    );
    for f in &findings {
        msg.push_str(&f.to_text());
        msg.push('\n');
    }
    Ok(msg)
}
