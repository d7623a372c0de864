//! `check` and `fuzz`: the conformance suites of `ute-verify` from the
//! command line.

use std::path::{Path, PathBuf};

use ute_core::error::{Result, UteError};
use ute_core::ids::NodeId;
use ute_core::mmap::map_file;
use ute_format::profile::Profile;
use ute_rawtrace::file::RawTraceFile;

use crate::ingest::scan_node_files;
use crate::Args;

/// `ute check`: run the conformance rule suites (crate `ute-verify`)
/// over trace artifacts. `--in DIR` checks every artifact the pipeline
/// left there (raw files, per-node interval files, `merged.ivl`,
/// `run.slog`); `--ivl/--slog/--raw FILE` checks one file; `--oracles`
/// runs the differential oracles instead (serial vs `--jobs`, salvage ⊆
/// strict, clock-adjusted order, fast vs reference decode). Violations
/// are structured findings, never panics; any error-severity finding
/// makes the command fail with the full report in the error text.
pub(crate) fn cmd_check(args: &Args) -> Result<String> {
    let ivl_opts = ute_verify::IvlCheckOptions {
        lenient_tail: args.has("lenient-tail"),
    };
    let mut reports: Vec<ute_verify::Report> = Vec::new();
    if args.has("oracles") {
        let _span = ute_obs::Span::enter("check", "oracles".to_string());
        reports.extend(ute_verify::run_all_oracles(args.num("seed", 7u64)?));
    } else if let Some(path) = args.get("ivl") {
        let bytes = map_file(Path::new(path))?;
        let profile = match args.get("profile") {
            Some(p) => Profile::read_from(Path::new(p))?,
            None => Profile::standard(),
        };
        reports.push(ute_verify::check_interval_bytes(
            path, &bytes, &profile, ivl_opts,
        ));
    } else if let Some(path) = args.get("slog") {
        let bytes = map_file(Path::new(path))?;
        reports.push(ute_verify::check_slog_bytes(path, &bytes));
    } else if let Some(path) = args.get("raw") {
        let bytes = map_file(Path::new(path))?;
        reports.push(ute_verify::check_raw_bytes(path, &bytes));
        reports.push(ute_verify::check_salvage_agrees(path, &bytes));
    } else {
        let dir = PathBuf::from(args.require("in")?);
        let profile = Profile::read_from(&dir.join("profile.ute"))?;
        for node in scan_node_files(&dir, "trace", "raw")? {
            let p = dir.join(RawTraceFile::file_name("trace", NodeId(node)));
            let bytes = map_file(&p)?;
            let label = p.display().to_string();
            reports.push(ute_verify::check_raw_bytes(&label, &bytes));
            reports.push(ute_verify::check_salvage_agrees(&label, &bytes));
        }
        for node in scan_node_files(&dir, "trace", "ivl")? {
            let p = dir.join(format!("trace.{node}.ivl"));
            let bytes = map_file(&p)?;
            reports.push(ute_verify::check_interval_bytes(
                &p.display().to_string(),
                &bytes,
                &profile,
                ivl_opts,
            ));
        }
        for name in ["merged.ivl", "run.slog"] {
            let p = dir.join(name);
            if !p.exists() {
                continue;
            }
            let bytes = map_file(&p)?;
            let label = p.display().to_string();
            if name.ends_with(".slog") {
                reports.push(ute_verify::check_slog_bytes(&label, &bytes));
            } else {
                reports.push(ute_verify::check_interval_bytes(
                    &label, &bytes, &profile, ivl_opts,
                ));
            }
        }
        if reports.is_empty() {
            return Err(UteError::NotFound(format!(
                "no checkable artifacts in {}",
                dir.display()
            )));
        }
    }
    let mut msg = String::new();
    for r in &reports {
        msg.push_str(&r.render());
    }
    let errors: usize = reports.iter().map(|r| r.errors()).sum();
    let warnings: usize = reports.iter().map(|r| r.warnings()).sum();
    msg.push_str(&format!(
        "checked {} artifact(s): {errors} error(s), {warnings} warning(s)\n",
        reports.len()
    ));
    if errors > 0 {
        Err(UteError::Invalid(msg))
    } else {
        Ok(msg)
    }
}

/// `ute fuzz`: run the structure-aware decoder fuzzer — seeded
/// mutations of valid raw/interval/SLOG corpora, every decoder driven
/// over each mutant. Deterministic in `--seed`; fails if any decoder
/// panics (mutants must be *rejected*, not crashed on).
pub(crate) fn cmd_fuzz(args: &Args) -> Result<String> {
    let opts = ute_verify::FuzzOptions {
        seed: args.num("seed", 1u64)?,
        iters: args.num("iters", 256u64)?,
        quiet: true,
    };
    let stats = ute_verify::run_fuzz(&opts);
    let msg = format!("fuzz seed {}: {}\n", opts.seed, stats.render());
    if stats.passed() {
        Ok(msg)
    } else {
        Err(UteError::Invalid(msg))
    }
}
