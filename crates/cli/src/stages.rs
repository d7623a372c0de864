//! The journaled stage runner behind `ute pipeline` / `resume` / `chaos`.
//!
//! `ute pipeline` runs five stages — trace, convert, merge, slogmerge,
//! stats — and this module makes the sequence crash-safe: every stage's
//! outputs are computed in memory, written to fsync'd `NAME.tmp.<pid>`
//! temps, *committed* to the run journal (content hashes and all), and
//! only then renamed into place. A `kill -9` anywhere leaves the
//! directory in one of three journal-recorded states per stage, and
//! [`cmd_resume`] replays the journal, verifies published artifacts by
//! content hash, completes any half-published stage from its temps, and
//! re-runs only what never committed — converging on byte-identical
//! output at any `--jobs`.
//!
//! Every store operation happens here, on the driving thread, in stage
//! order — pipeline workers never touch the journal — so the chaos
//! harness's abort-point numbering is deterministic for a given run
//! configuration regardless of worker count.

use std::path::{Path, PathBuf};

use ute_core::error::{PathContext, Result, UteError};
use ute_merge::MergeOptions;
use ute_slog::builder::BuildOptions;
use ute_store::{
    chaos, ArtifactStore, JournalRecord, ReplayState, RunJournal, StageStatus, StoreError,
};

use crate::ingest::{self, Ingest, StatsPaths};
use crate::Args;

/// One stage's computed outputs: artifacts to publish atomically, stale
/// files to remove at publish time, and the user-facing message.
pub(crate) struct StageOutput {
    /// `(final name, content)` pairs, in deterministic order.
    pub artifacts: Vec<(String, Vec<u8>)>,
    /// File names to delete on publish (missing-node suppression).
    pub removes: Vec<String>,
    /// The stage's textual output.
    pub msg: String,
}

impl StageOutput {
    /// A stage that publishes nothing (e.g. stats without `--out`).
    pub fn message(msg: String) -> StageOutput {
        StageOutput {
            artifacts: Vec::new(),
            removes: Vec::new(),
            msg,
        }
    }
}

/// Publishes stage outputs without a journal — the standalone-command
/// path (`ute trace` / `convert` / `scenario`): each artifact still goes
/// through an atomic temp-write + rename, so a crash mid-command never
/// leaves a torn file, but there is no commit record to resume from.
pub(crate) fn publish_plain(dir: &Path, so: &StageOutput) -> Result<()> {
    for (name, bytes) in &so.artifacts {
        ute_store::atomic_write(&dir.join(name), bytes)?;
    }
    for r in &so.removes {
        std::fs::remove_file(dir.join(r)).ok();
    }
    Ok(())
}

/// Parses `--disk-budget BYTES` (optional `k`/`m`/`g` suffix).
pub(crate) fn parse_budget(args: &Args) -> Result<Option<u64>> {
    let Some(v) = args.get("disk-budget") else {
        return Ok(None);
    };
    let (num, mult) = match v.trim_end_matches(['k', 'K', 'm', 'M', 'g', 'G']) {
        n if n.len() == v.len() => (n, 1u64),
        n => (
            n,
            match v.as_bytes()[v.len() - 1].to_ascii_lowercase() {
                b'k' => 1 << 10,
                b'm' => 1 << 20,
                _ => 1 << 30,
            },
        ),
    };
    let n: u64 = num
        .parse()
        .map_err(|_| UteError::Invalid(format!("--disk-budget: bad value `{v}`")))?;
    Ok(Some(n.saturating_mul(mult)))
}

/// Everything a pipeline run is a function of. The journal's `run-start`
/// record serializes the *deterministic* subset ([`RunPlan::config_pairs`]);
/// `jobs` and `disk_budget` are deliberately excluded — output bytes are
/// identical for every `--jobs`, so a resume may change both.
#[derive(Debug, Clone)]
pub struct RunPlan {
    workload: String,
    iterations: u32,
    strict: bool,
    jobs: usize,
    fault_plan: Option<String>,
    fault_seed: Option<u64>,
    out: PathBuf,
    disk_budget: Option<u64>,
}

impl RunPlan {
    pub fn from_args(args: &Args) -> Result<RunPlan> {
        Ok(RunPlan {
            workload: args.require("workload")?.to_string(),
            iterations: args.num("iterations", 256u32)?,
            strict: args.has("strict"),
            jobs: args.jobs()?,
            fault_plan: args.get("fault-plan").map(str::to_string),
            fault_seed: args.opt_num("fault-seed")?,
            out: PathBuf::from(args.require("out")?),
            disk_budget: parse_budget(args)?,
        })
    }

    /// The run config the journal records — everything `ute resume`
    /// needs to re-derive any stage, nothing that may legally change
    /// across a resume.
    pub fn config_pairs(&self) -> Vec<(String, String)> {
        let mut c = vec![
            ("workload".to_string(), self.workload.clone()),
            ("iterations".to_string(), self.iterations.to_string()),
            (
                "strict".to_string(),
                if self.strict { "1" } else { "0" }.to_string(),
            ),
        ];
        if let Some(p) = &self.fault_plan {
            c.push(("fault-plan".to_string(), p.clone()));
        }
        if let Some(s) = self.fault_seed {
            c.push(("fault-seed".to_string(), s.to_string()));
        }
        c
    }

    /// Reconstructs the plan from a replayed journal's `run-start`.
    fn from_config(
        config: &[(String, String)],
        out: &Path,
        jobs: usize,
        disk_budget: Option<u64>,
    ) -> Result<RunPlan> {
        let get = |k: &str| config.iter().find(|(ck, _)| ck == k).map(|(_, v)| v);
        let workload = get("workload").cloned().ok_or_else(|| {
            UteError::Invalid(format!(
                "{}: journal run-start has no workload — not a pipeline journal",
                RunJournal::path_in(out).display()
            ))
        })?;
        Ok(RunPlan {
            workload,
            iterations: get("iterations")
                .and_then(|v| v.parse().ok())
                .unwrap_or(256),
            strict: get("strict").map(String::as_str) == Some("1"),
            jobs,
            fault_plan: get("fault-plan").cloned(),
            fault_seed: get("fault-seed").and_then(|v| v.parse().ok()),
            out: out.to_path_buf(),
            disk_budget,
        })
    }

    /// The argv of the `ute pipeline` invocation this plan describes —
    /// what a chaos child runs. The options are [`Self::config_pairs`]
    /// (the one list of what a run is a function of) plus where and how
    /// wide to run it.
    pub fn pipeline_argv(&self) -> Vec<String> {
        let mut v = vec![
            "pipeline".to_string(),
            "--out".to_string(),
            self.out.display().to_string(),
            "--jobs".to_string(),
            self.jobs.to_string(),
        ];
        for (key, value) in self.config_pairs() {
            if key != "strict" {
                v.extend([format!("--{key}"), value]);
            } else if self.strict {
                v.push("--strict".to_string());
            }
        }
        v
    }
}

/// Why a pipeline run stopped.
pub(crate) enum Halt {
    /// Every stage published; `run-end` is in the journal.
    Done,
    /// A disk guardrail fired (budget or `ENOSPC`): partial results are
    /// journaled and the run is resumable.
    Resource(String),
    /// A soft chaos abort fired (tests/harness only): the directory is
    /// in exactly the state a kill would leave.
    Chaos(String),
}

/// A store-layer failure vs. everything else — kept apart so the driver
/// can turn guardrails and chaos aborts into graceful halts while other
/// errors propagate untouched.
enum StageFailure {
    Store(StoreError),
    Other(UteError),
}

impl From<StoreError> for StageFailure {
    fn from(e: StoreError) -> StageFailure {
        StageFailure::Store(e)
    }
}

impl From<UteError> for StageFailure {
    fn from(e: UteError) -> StageFailure {
        StageFailure::Other(e)
    }
}

/// Drives stages through the journal + artifact store protocol.
pub(crate) struct StageRunner {
    journal: RunJournal,
    store: ArtifactStore,
    replay: Option<ReplayState>,
}

impl StageRunner {
    /// Runs one stage under the publish protocol, or skips it when the
    /// journal already proves (by content hash) it published. `f` is
    /// only called when the stage really runs, and no file it describes
    /// is visible under its final name until after the commit record is
    /// durable.
    fn run_stage(
        &mut self,
        stage: &'static str,
        f: impl FnOnce() -> Result<StageOutput>,
    ) -> std::result::Result<String, StageFailure> {
        // The stage is its computation and its publication: the store's
        // spans nest under it, so hashing and journal I/O are charged
        // to `store` but found under the stage that caused them.
        let _span = ute_obs::Span::stage(stage);
        match self.replay.as_ref().and_then(|r| r.status(stage)).cloned() {
            Some(StageStatus::Published { artifacts }) => {
                if artifacts.iter().all(|m| self.store.verify_final(m)) {
                    ute_obs::counter("store/stages_skipped").inc();
                    return Ok(format!(
                        "resume: {stage}: already published, {} artifact(s) verified\n",
                        artifacts.len()
                    ));
                }
                eprintln!(
                    "ute: resume: {stage}: published artifact failed hash verification; \
                     re-running stage"
                );
            }
            Some(StageStatus::Committed {
                pid,
                artifacts,
                removes,
            }) => {
                // Complete publication from durable temps/finals if every
                // committed artifact still has its exact bytes somewhere.
                let complete = artifacts
                    .iter()
                    .all(|m| self.store.verify_final(m) || self.store.verify_temp(m, pid));
                if complete {
                    for m in &artifacts {
                        if !self.store.verify_final(m) {
                            self.store.promote(stage, m, pid)?;
                        }
                    }
                    for r in &removes {
                        std::fs::remove_file(self.store.dir().join(r)).ok();
                    }
                    self.journal.append(&JournalRecord::StagePublish {
                        stage: stage.to_string(),
                    })?;
                    ute_obs::counter("store/stages_skipped").inc();
                    return Ok(format!(
                        "resume: {stage}: publication completed from journal \
                         ({} artifact(s))\n",
                        artifacts.len()
                    ));
                }
                eprintln!(
                    "ute: resume: {stage}: committed temps lost or damaged; re-running stage"
                );
            }
            Some(StageStatus::Started) | None => {}
        }
        self.journal.append(&JournalRecord::StageStart {
            stage: stage.to_string(),
        })?;
        let out = f()?;
        let pid = std::process::id();
        let mut metas = Vec::with_capacity(out.artifacts.len());
        for (name, bytes) in &out.artifacts {
            metas.push(self.store.write_temp(stage, name, bytes)?);
        }
        // The durability pivot: after this record is fsync'd the stage
        // can always be completed from its temps, never before.
        self.journal.append(&JournalRecord::StageCommit {
            stage: stage.to_string(),
            pid,
            artifacts: metas.clone(),
            removes: out.removes.clone(),
        })?;
        for m in &metas {
            self.store.promote(stage, m, pid)?;
        }
        for r in &out.removes {
            std::fs::remove_file(self.store.dir().join(r)).ok();
        }
        self.journal.append(&JournalRecord::StagePublish {
            stage: stage.to_string(),
        })?;
        ute_obs::counter("store/stages_run").inc();
        Ok(out.msg)
    }

    fn finish(&mut self) -> std::result::Result<(), StageFailure> {
        if self.replay.as_ref().is_some_and(|r| r.run_ended) {
            return Ok(());
        }
        self.journal.append(&JournalRecord::RunEnd)?;
        Ok(())
    }
}

/// An optional extra stage appended after `stats` — how `ute profile`
/// journals its report artifacts through the same publish protocol as
/// the five core stages.
pub(crate) type ExtraStage<'a> =
    Option<(&'static str, Box<dyn FnOnce() -> Result<StageOutput> + 'a>)>;

/// The five pipeline stages, in order, against an open runner, plus the
/// caller's optional extra stage.
fn drive(
    plan: &RunPlan,
    runner: &mut StageRunner,
    msg: &mut String,
    extra: ExtraStage<'_>,
) -> std::result::Result<(), StageFailure> {
    msg.push_str(&runner.run_stage("trace", || {
        let w = ingest::workload_by_name(&plan.workload, plan.iterations)?;
        let faults =
            ingest::fault_plan(plan.fault_plan.as_deref(), plan.fault_seed, w.config.nodes)?;
        ingest::trace_outputs(&plan.workload, w, faults)
    })?);
    let ing = Ingest {
        dir: plan.out.clone(),
        jobs: plan.jobs,
        salvage: !plan.strict,
    };
    let one = |name: &str, (bytes, msg)| StageOutput {
        artifacts: vec![(name.to_string(), bytes)],
        removes: Vec::new(),
        msg,
    };
    msg.push_str(&runner.run_stage("convert", || ingest::convert_outputs(&ing))?);
    msg.push_str(&runner.run_stage("merge", || {
        ingest::merge_outputs(&ing, MergeOptions::default()).map(|o| one("merged.ivl", o))
    })?);
    msg.push_str(&runner.run_stage("slogmerge", || {
        ingest::slog_of_merged_outputs(&ing.dir, MergeOptions::default(), BuildOptions::default())
            .map(|o| one("run.slog", o))
    })?);
    let paths = StatsPaths {
        merged: plan.out.join("merged.ivl"),
        ..StatsPaths::default()
    };
    msg.push_str(&runner.run_stage("stats", || {
        ingest::stats_output(&paths).map(StageOutput::message)
    })?);
    if let Some((name, f)) = extra {
        msg.push_str(&runner.run_stage(name, f)?);
    }
    runner.finish()
}

/// Pre-registers the store's counters so they appear (as zeros) in any
/// journaled run's metrics — "this never happened" stays distinguishable
/// from "this was never measured" even outside `ute report`.
fn register_store_counters() {
    for n in crate::observe::BASELINE_COUNTERS {
        if n.starts_with("store/") {
            ute_obs::counter(n);
        }
    }
}

/// Runs the journaled pipeline — fresh, or resumed from a replayed
/// journal — and classifies how it stopped.
fn execute(
    plan: &RunPlan,
    resume_from: Option<(RunJournal, ReplayState)>,
    extra: ExtraStage<'_>,
) -> Result<(String, Halt)> {
    register_store_counters();
    let mut msg = String::new();
    let r = (|| -> std::result::Result<(), StageFailure> {
        let mut runner = match resume_from {
            None => {
                std::fs::create_dir_all(&plan.out).in_file(&plan.out)?;
                let store = ArtifactStore::new(&plan.out).with_budget(plan.disk_budget);
                // Startup GC: a fresh run owns the directory — every
                // leftover temp is a dead run's residue.
                let swept = store.gc_stale_temps(&[])?;
                if swept > 0 {
                    eprintln!(
                        "ute: store: swept {swept} stale temp file(s) from {}",
                        plan.out.display()
                    );
                }
                let journal = RunJournal::create(&plan.out, &plan.config_pairs())?;
                StageRunner {
                    journal,
                    store,
                    replay: None,
                }
            }
            Some((journal, state)) => {
                msg.push_str(&format!(
                    "resume: {}: replayed {} journal record(s){}\n",
                    plan.out.display(),
                    state.records,
                    if state.torn_tail {
                        ", torn tail discarded"
                    } else {
                        ""
                    }
                ));
                let store = ArtifactStore::new(&plan.out).with_budget(plan.disk_budget);
                // Keep only temps a committed-but-unpublished stage can
                // still publish from; everything else is stale.
                let mut keep = Vec::new();
                for (_, st) in &state.stages {
                    if let StageStatus::Committed { pid, artifacts, .. } = st {
                        for a in artifacts {
                            keep.push(ArtifactStore::temp_name(&a.name, *pid));
                        }
                    }
                }
                store.gc_stale_temps(&keep)?;
                StageRunner {
                    journal,
                    store,
                    replay: Some(state),
                }
            }
        };
        drive(plan, &mut runner, &mut msg, extra)
    })();
    match r {
        Ok(()) => Ok((msg, Halt::Done)),
        Err(StageFailure::Store(e)) if e.is_resource_exhausted() => {
            Ok((msg, Halt::Resource(e.to_string())))
        }
        Err(StageFailure::Store(e)) if e.is_chaos_abort() => Ok((msg, Halt::Chaos(e.to_string()))),
        Err(StageFailure::Store(e)) => Err(e.into()),
        Err(StageFailure::Other(e)) => Err(e),
    }
}

/// Maps a halt to the command result: guardrails are a *graceful*
/// partial-results exit (completed stages stay published and journaled),
/// chaos aborts surface as errors for the harness to catch.
fn finish_outcome(msg: String, halt: Halt) -> Result<String> {
    match halt {
        Halt::Done => Ok(msg),
        Halt::Resource(why) => Ok(format!(
            "{msg}ute: pipeline stopped early: {why}\n\
             ute: completed stages are published and journaled\n"
        )),
        Halt::Chaos(why) => Err(UteError::Invalid(why)),
    }
}

/// `ute pipeline` — the journaled five-stage run.
pub(crate) fn cmd_pipeline(args: &Args) -> Result<String> {
    let plan = RunPlan::from_args(args)?;
    let (msg, halt) = execute(&plan, None, None)?;
    finish_outcome(msg, halt)
}

/// `ute profile` — the journaled pipeline with a sixth, `profile` stage
/// appended: `finish` folds the spans so far into the report and returns
/// its artifacts (`profile.folded`, `profile.json`), which go through
/// the same temp-write → commit → promote protocol as every other
/// stage — a crash mid-profile leaves a resumable directory.
pub(crate) fn cmd_profile_run(
    args: &Args,
    finish: impl FnOnce() -> Result<StageOutput>,
) -> Result<String> {
    let plan = RunPlan::from_args(args)?;
    let (msg, halt) = execute(&plan, None, Some(("profile", Box::new(finish))))?;
    finish_outcome(msg, halt)
}

/// `ute resume` — replay the journal of an interrupted `ute pipeline`
/// run and finish it: verified-published stages are skipped, committed
/// stages complete publication from their temps, everything else
/// re-runs. Output is byte-identical to an uninterrupted run, at any
/// `--jobs`.
pub(crate) fn cmd_resume(args: &Args) -> Result<String> {
    let out = PathBuf::from(args.require("in")?);
    let (journal, state) = RunJournal::open_for_resume(&out)?;
    let jobs = args.jobs()?;
    let plan = RunPlan::from_config(&state.config, &out, jobs, parse_budget(args)?)?;
    let (msg, halt) = execute(&plan, Some((journal, state)), None)?;
    finish_outcome(msg, halt)
}

/// `ute chaos` — the process-kill chaos harness: run a clean reference
/// pipeline, then for each seeded kill run a victim pipeline that dies
/// at a chosen abort point (`--mode point`: child armed via env hard
/// abort; `timed`: SIGKILL on a timer; `soft`: in-process error-return
/// abort), resume it, and prove the resumed directory is byte-identical
/// to the clean run with no stale temps.
pub(crate) fn cmd_chaos(args: &Args) -> Result<String> {
    let seed: u64 = args.num("seed", 1u64)?;
    let kills: u64 = args.num("kills", 1u64)?;
    let mode = args.get("mode").unwrap_or("point");
    if !["point", "timed", "soft"].contains(&mode) {
        return Err(UteError::Invalid(format!(
            "--mode: unknown `{mode}` (point|timed|soft)"
        )));
    }
    let base = PathBuf::from(args.require("out")?);
    let mut plan = RunPlan::from_args(args)?;
    plan.out = base.join("clean");

    // Clean reference run, counting the abort points one pipeline
    // crosses — the seed space for kill placement.
    let before = chaos::points_crossed();
    let (_cmsg, halt) = execute(&plan, None, None)?;
    if !matches!(halt, Halt::Done) {
        return Err(UteError::Invalid(
            "chaos: clean run did not complete".into(),
        ));
    }
    let points = chaos::points_crossed() - before;
    let mut msg = format!("chaos: seed {seed}: clean run crossed {points} abort point(s)\n");

    for k in 0..kills {
        let idx = ute_faults::chaos::pick_point(seed, k, points);
        let victim = base.join(format!("kill{k}"));
        let mut vplan = plan.clone();
        vplan.out = victim.clone();
        ute_obs::counter("chaos/kills").inc();
        match mode {
            "soft" => {
                chaos::arm_soft(chaos::points_crossed() + idx);
                let r = execute(&vplan, None, None);
                chaos::disarm_soft();
                match r? {
                    (_, Halt::Chaos(why)) => {
                        msg.push_str(&format!("chaos: kill {k}: {why}\n"));
                    }
                    _ => {
                        return Err(UteError::Invalid(format!(
                            "chaos: kill {k}: soft abort armed at point {idx} never fired"
                        )))
                    }
                }
            }
            _ => {
                let exe = std::env::current_exe()?;
                let argv = vplan.pipeline_argv();
                if mode == "point" {
                    let status = ute_faults::chaos::spawn_hard_kill(&exe, &argv, idx)?;
                    if status.success() {
                        return Err(UteError::Invalid(format!(
                            "chaos: kill {k}: child survived hard abort armed at point {idx}"
                        )));
                    }
                    msg.push_str(&format!(
                        "chaos: kill {k}: child died at armed point {idx} ({status})\n"
                    ));
                } else {
                    // 1..=80ms: long enough to get into the run, short
                    // enough to land before a small pipeline finishes.
                    let delay = ute_faults::chaos::pick_point(seed ^ 0xD1E5, k, 80) + 1;
                    let status = ute_faults::chaos::spawn_timed_kill(&exe, &argv, delay)?;
                    msg.push_str(&format!(
                        "chaos: kill {k}: child killed after {delay}ms ({status})\n"
                    ));
                }
            }
        }
        // Resume the victim. A timed kill can land before the journal's
        // run-start is durable — then there is nothing to replay and the
        // run restarts from scratch, which must converge all the same.
        ute_obs::counter("chaos/resumes").inc();
        let (rmsg, rhalt) = match RunJournal::open_for_resume(&victim) {
            Ok((journal, state)) => {
                let rplan = RunPlan::from_config(&state.config, &victim, plan.jobs, None)?;
                execute(&rplan, Some((journal, state)), None)?
            }
            Err(_) => execute(&vplan, None, None)?,
        };
        if !matches!(rhalt, Halt::Done) {
            return Err(UteError::Invalid(format!(
                "chaos: kill {k}: resume did not complete:\n{rmsg}"
            )));
        }
        // Byte-compare against the clean run: everything but the journal
        // (whose record sequence legitimately differs) must be identical,
        // and no in-flight temp may survive the resume.
        let diffs = ute_faults::chaos::diff_dirs(&plan.out, &victim, |n| {
            n == ute_store::journal::JOURNAL_NAME || n.contains(".tmp.")
        })?;
        if !diffs.is_empty() {
            return Err(UteError::Invalid(format!(
                "chaos: kill {k}: resumed artifacts differ from clean run: {diffs:?}"
            )));
        }
        let temps = ute_faults::chaos::list_temps(&victim)?;
        if !temps.is_empty() {
            return Err(UteError::Invalid(format!(
                "chaos: kill {k}: stale temps after resume: {temps:?}"
            )));
        }
        msg.push_str(&format!(
            "chaos: kill {k}: resume verified byte-identical, no stale temps\n"
        ));
    }
    msg.push_str(&format!("chaos: seed {seed}: {kills} kill(s) verified\n"));
    Ok(msg)
}
