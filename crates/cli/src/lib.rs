//! # ute-cli — the `ute` command-line tool
//!
//! Drives the whole Figure 2 pipeline from a shell:
//!
//! ```text
//! ute trace     --workload sppm --out trace_dir        # run the simulator
//! ute convert   --in trace_dir                         # raw → interval files
//! ute merge     --in trace_dir --out merged.ivl        # adjust clocks + merge
//! ute slogmerge --in trace_dir --out run.slog          # merge into SLOG
//! ute stats     --merged merged.ivl [--program p.uts]  # tables (TSV)
//! ute preview   --slog run.slog                        # whole-run preview
//! ute view      --slog run.slog --kind thread          # time-space diagrams
//! ute clockfit  --in trace_dir                         # per-node clock fits
//! ute pipeline  --workload flash --out dir             # everything at once
//! ```
//!
//! Which commands exist and what each accepts is declared once, in
//! [`COMMANDS`]: [`Args::parse`], the dispatch in [`run`] and `ute help`
//! are all read off that table. Every command is a library function
//! returning its textual output, so the test suite drives them end to
//! end through [`run`]; they live by family in `ingest`, `query`,
//! `observe` and `conformance`, over the journaled runner in `stages`.
//!
//! The [`SHARED`] observability options apply to every command:
//! `--metrics` prints the per-stage metrics table (TSV) to stderr after
//! the command finishes, and `--self-trace FILE` captures the run's own
//! pipeline spans and writes them as a UTE interval file — the framework
//! traced with its own format (view it with `ute preview --ivl FILE`);
//! `--profiler` folds the same spans into a ranked per-stage table. The
//! `report` subcommand runs the whole pipeline and emits every metric
//! as machine-readable JSON.

mod conformance;
mod ingest;
mod observe;
mod query;
pub mod selftrace;
mod stages;

pub use stages::RunPlan;

use std::collections::HashMap;
use std::path::PathBuf;

use ute_core::error::{Result, UteError};

/// Parsed `--flag value` arguments, checked against one [`Command`] row.
#[derive(Debug)]
pub struct Args {
    map: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses `--key value` and bare `--switch` arguments against the
    /// row of the command they were given to.
    ///
    /// The row (with [`SHARED`]) says which names are switches and which
    /// take a value: a valued `--key` followed by another `--token` (or
    /// the end of the argument list) is an error, and a name in neither
    /// list is an unknown option — reported before anything runs, with
    /// the known name it is a prefix of (or that is a prefix of it), if
    /// any. A leading bare token is the value of the row's positional
    /// key (`ute analyze DIR`, `ute resume DIR`).
    pub fn parse(cmd: &Command, argv: &[String]) -> Result<Args> {
        let mut a = Args {
            map: HashMap::new(),
            flags: Vec::new(),
        };
        let mut unknown = Vec::new();
        let mut rest = argv.iter().peekable();
        if let Some(key) = cmd.positional {
            if let Some(v) = rest.next_if(|t| !t.starts_with("--")) {
                a.map.insert(key.to_string(), v.clone());
            }
        }
        while let Some(k) = rest.next() {
            if !k.starts_with("--") {
                return Err(UteError::Invalid(format!("unexpected argument `{k}`")));
            }
            let key = k.trim_start_matches("--");
            let among = |own: &str, shared: &str| {
                own.split_whitespace()
                    .chain(shared.split_whitespace())
                    .any(|n| n == key)
            };
            if among(cmd.switches, SHARED.switches) {
                a.flags.push(key.to_string());
            } else if among(cmd.keys, SHARED.keys) {
                let v = rest
                    .next_if(|v| !v.starts_with("--"))
                    .ok_or_else(|| UteError::Invalid(format!("missing value for --{key}")))?;
                a.map.insert(key.to_string(), v.clone());
            } else {
                unknown.push(key);
                rest.next_if(|v| !v.starts_with("--"));
            }
        }
        match unknown.into_iter().min() {
            Some(key) => Err(cmd.unknown_option(key)),
            None => Ok(a),
        }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(|s| s.as_str())
    }

    fn require(&self, key: &str) -> Result<&str> {
        self.get(key)
            .ok_or_else(|| UteError::Invalid(format!("missing required --{key}")))
    }

    fn has(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    fn opt_num<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>> {
        self.get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| UteError::Invalid(format!("--{key}: bad value `{v}`")))
            })
            .transpose()
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T> {
        Ok(self.opt_num(key)?.unwrap_or(default))
    }

    /// The `--jobs N` worker count; defaults to the machine's available
    /// parallelism. `--jobs 1` runs every stage on the calling thread.
    fn jobs(&self) -> Result<usize> {
        let jobs = self.num("jobs", ute_core::pool::default_jobs())?;
        if jobs == 0 {
            return Err(UteError::Invalid("--jobs: must be at least 1".into()));
        }
        Ok(jobs)
    }

    /// Whether salvage-mode ingestion is active. The CLI salvages by
    /// default — truncated, corrupt, or missing inputs degrade with
    /// warnings instead of aborting; `--strict` restores fail-fast.
    /// (Library APIs are the opposite: strict unless opted in.)
    fn salvage(&self) -> bool {
        !self.has("strict")
    }
}

/// How a command is entered.
pub enum Run {
    /// Reads its [`Args`] only; under `--profiler` the dispatcher prints
    /// the ranked stage table to stderr once it returns.
    Plain(fn(&Args) -> Result<String>),
    /// Runs with span capture on whether or not an option asks for it,
    /// and renders what it captured itself, from the still-open root
    /// span (`report`, `profile`).
    Captured(fn(&Args, &ute_obs::Span) -> Result<String>),
}

/// One command of [`run`], declared once: [`Args::parse`] accepts
/// exactly `keys` (valued) and `switches` (bare) plus [`SHARED`], `run`
/// dispatches by `name`, and `ute help` prints `usage` — whose synopsis
/// names exactly `keys ∪ switches` (`tests/cli.rs` holds that).
pub struct Command {
    pub name: &'static str,
    /// The `--key VALUE` options the command reads, space separated.
    pub keys: &'static str,
    /// The bare `--switch`es the command reads, space separated.
    pub switches: &'static str,
    /// The key a leading bare token is the value of (`ute analyze DIR`).
    pub positional: Option<&'static str>,
    /// The command's block of `ute help`: synopsis lines, then an
    /// optional parenthesised note.
    pub usage: &'static str,
    run: Run,
}

impl Command {
    /// The error for an option the command does not read, naming the
    /// known option `key` is a prefix of (or that is a prefix of it).
    fn unknown_option(&self, key: &str) -> UteError {
        let near = [self.keys, SHARED.keys, self.switches, SHARED.switches]
            .into_iter()
            .flat_map(str::split_whitespace)
            .find(|n| n.starts_with(key) || key.starts_with(n));
        let hint = near.map_or(String::new(), |n| format!(" (did you mean --{n}?)"));
        UteError::Invalid(format!("{}: unknown option --{key}{hint}", self.name))
    }
}

/// The options every command takes, and the section of `ute help` that
/// documents them (one option per line that starts `  --`).
pub struct Shared {
    pub keys: &'static str,
    pub switches: &'static str,
    pub usage: &'static str,
}

pub const SHARED: Shared = Shared {
    keys: "self-trace self-trace-format self-trace-limit",
    switches: "metrics profiler",
    usage: "\
observability (any command):
  --metrics            print the per-stage metrics table (TSV) to stderr
  --self-trace FILE    write this run's own spans (hierarchical: parent
                       ids, per-thread lanes, cross-thread flow links,
                       thread CPU time per span)
  --self-trace-format ivl|chrome
                       self-trace sink format (default ivl). `ivl` is a
                       UTE interval file (view with `ute preview --ivl`);
                       `chrome` is Chrome trace JSON for ui.perfetto.dev
  --self-trace-limit N capture at most N spans (default 1048576); spans
                       beyond the cap are dropped and counted in
                       obs/spans_dropped
  --profiler           fold the same spans into `ute profile`'s ranked
                       stage table: printed to stderr on any command,
                       embedded as the \"profile\" block by `ute report`.
                       Build with `--features profile-alloc` to also
                       attribute allocations to the active stage
",
};

/// Every command, in `ute help` order.
pub const COMMANDS: &[Command] = &[
    Command {
        name: "trace",
        keys: "workload out iterations fault-seed fault-plan",
        switches: "",
        positional: None,
        usage: "  trace     --workload NAME --out DIR [--iterations N]
            [--fault-seed N | --fault-plan SPEC]
",
        run: Run::Plain(ingest::cmd_trace),
    },
    Command {
        name: "convert",
        keys: "in jobs",
        switches: "strict",
        positional: None,
        usage: "  convert   --in DIR [--jobs N] [--strict]
",
        run: Run::Plain(ingest::cmd_convert),
    },
    Command {
        name: "merge",
        keys: "in out estimator jobs",
        switches: "strict no-filter",
        positional: None,
        usage:
            "  merge     --in DIR --out FILE [--estimator rms|rmsall|last|piecewise] [--no-filter]
            [--jobs N] [--strict]
",
        run: Run::Plain(ingest::cmd_merge),
    },
    Command {
        name: "slogmerge",
        keys: "in out estimator frames bins jobs",
        switches: "strict no-filter no-arrows",
        positional: None,
        usage: "  slogmerge --in DIR --out FILE [--estimator ...] [--no-filter] [--frames N]
            [--bins N] [--no-arrows] [--jobs N] [--strict]
",
        run: Run::Plain(ingest::cmd_slogmerge),
    },
    Command {
        name: "stats",
        keys: "merged profile program out",
        switches: "",
        positional: None,
        usage: "  stats     --merged FILE [--profile FILE] [--program FILE] [--out DIR]
",
        run: Run::Plain(ingest::cmd_stats),
    },
    Command {
        name: "preview",
        keys: "slog ivl svg",
        switches: "",
        positional: None,
        usage: "  preview   --slog FILE | --ivl FILE [--svg FILE]
",
        run: Run::Plain(query::cmd_preview),
    },
    Command {
        name: "view",
        keys: "slog kind window frame-at cpus width svg",
        switches: "connected hide-running",
        positional: None,
        usage: "  view      --slog FILE [--kind thread|cpu|threadcpu|cputhread|type]
            [--window a,b] [--frame-at t] [--connected] [--hide-running]
            [--cpus N] [--width N] [--svg FILE]
",
        run: Run::Plain(query::cmd_view),
    },
    Command {
        name: "clockfit",
        keys: "in estimator",
        switches: "strict no-filter",
        positional: None,
        usage: "  clockfit  --in DIR [--estimator ...] [--no-filter] [--strict]
",
        run: Run::Plain(ingest::cmd_clockfit),
    },
    Command {
        name: "corrupt",
        keys: "in seed plan",
        switches: "",
        positional: None,
        usage: "  corrupt   --in DIR [--seed N | --plan SPEC]
            (deterministically corrupt trace.N.raw/.ivl for regression
             corpora; profile.ute and threads.utt are never touched)
",
        run: Run::Plain(ingest::cmd_corrupt),
    },
    Command {
        name: "pipeline",
        keys: "workload out iterations jobs fault-seed fault-plan disk-budget",
        switches: "strict",
        positional: None,
        usage: "  pipeline  --workload NAME --out DIR [--iterations N] [--jobs N] [--strict]
            [--fault-seed N | --fault-plan SPEC] [--disk-budget BYTES[k|m|g]]
",
        run: Run::Plain(stages::cmd_pipeline),
    },
    Command {
        name: "resume",
        keys: "in jobs disk-budget",
        switches: "",
        positional: Some("in"),
        usage: "  resume    DIR | --in DIR [--jobs N] [--disk-budget BYTES]
            (replay DIR/journal.utj from an interrupted `ute pipeline`
             run, verify published artifacts by content hash, complete
             any half-published stage from its committed temps, and
             re-run only the incomplete stages; the finished directory
             is byte-identical to an uninterrupted run at any --jobs)
",
        run: Run::Plain(stages::cmd_resume),
    },
    Command {
        name: "chaos",
        keys: "workload out iterations jobs fault-seed fault-plan disk-budget seed kills mode",
        switches: "strict",
        positional: None,
        usage: "  chaos     --workload NAME --out DIR [--seed N] [--kills K] [--jobs N]
            [--mode point|timed|soft] [--iterations N] [--strict]
            [--fault-seed N | --fault-plan SPEC] [--disk-budget BYTES]
            (process-kill chaos harness: run a clean reference pipeline
             under OUT/clean, then for each kill run a victim pipeline
             that dies at a seeded abort point — `point` SIGKILL-aborts
             a child process at an exact protocol state, `timed` kills
             it on a seeded timer, `soft` aborts in-process — resume
             it, and verify the result is byte-identical to the clean
             run with no stale temp files)
",
        run: Run::Plain(stages::cmd_chaos),
    },
    Command {
        name: "scenario",
        keys: "seed out jobs fault-seed fault-plan nodes cpus tasks-per-node threads pattern rounds straggler skew burst depth width fanout",
        switches: "strict describe",
        positional: None,
        usage: "  scenario  --seed N (--out DIR | --describe) [--jobs N] [--strict]
            [--fault-seed N | --fault-plan SPEC]
            [--nodes K] [--cpus C] [--tasks-per-node T] [--threads W]
            [--pattern nn|ring|tree|hub|alltoall|service] [--rounds N]
            [--straggler RANK:FACTOR] [--skew X] [--burst N]
            [--depth D] [--width W] [--fanout F]
            (expand a seeded random workload — topology, phase structure,
             communication patterns, injected imbalance — and run it
             through the full pipeline; the seed fully determines the
             trace bytes. --describe prints the expanded spec as JSON;
             a run writes it to OUT/scenario.json. Seeded specs are also
             usable anywhere a workload name is: --workload scenario:N)
",
        run: Run::Plain(ingest::cmd_scenario),
    },
    Command {
        name: "report",
        keys: "workload out iterations jobs fault-seed fault-plan disk-budget",
        switches: "strict stable",
        positional: None,
        usage: "  report    --workload NAME --out DIR [--iterations N] [--jobs N] [--stable]
            [--strict] [--fault-seed N | --fault-plan SPEC] [--disk-budget BYTES]
            (metrics as JSON with p50/p95/p99 per histogram; --stable
             drops wall-clock and worker-count metrics — and the
             percentiles — so output is byte-comparable across runs and
             --jobs; salvage/* and obs/* totals are kept)
",
        run: Run::Captured(observe::cmd_report),
    },
    Command {
        name: "profile",
        keys: "workload out iterations jobs fault-seed fault-plan disk-budget",
        switches: "strict json",
        positional: None,
        usage: "  profile   --workload NAME --out DIR [--json] [--jobs N]
            [--iterations N] [--strict] [--fault-seed N | --fault-plan SPEC]
            [--disk-budget BYTES]
            (run the journaled pipeline with span capture on and fold
             the spans into a ranked bottleneck report — exact self
             time per stage, wall-vs-CPU utilization, coverage (the
             share of the run inside a named stage) — and publish
             OUT/profile.folded (flamegraph-ready folded stacks, weight
             = µs of self time) and OUT/profile.json as a sixth
             journaled stage. --json prints the report JSON instead of
             the text table)
",
        run: Run::Captured(observe::cmd_profile),
    },
    Command {
        name: "analyze",
        keys: "in diag window nodes imbalance-threshold profile",
        switches: "all json",
        positional: Some("in"),
        usage: "  analyze   DIR | --in DIR|FILE [--diag late_sender|imbalance|comm_pattern
            |critical_path | --all] [--window T0:T1] [--nodes A..B] [--json]
            [--imbalance-threshold X] [--profile FILE]
            (programmable diagnostics over DIR/merged.ivl: late-sender
             wait attribution, per-phase load imbalance, communication-
             pattern classification, critical-path extraction; --window/
             --nodes load only the matching frames through the frame
             directory; --json emits structured findings)
",
        run: Run::Plain(query::cmd_analyze),
    },
    Command {
        name: "check",
        keys: "in ivl profile slog raw seed",
        switches: "oracles lenient-tail",
        positional: None,
        usage: "  check     --in DIR | --ivl FILE [--profile FILE] | --slog FILE
            | --raw FILE | --oracles [--seed N]   [--lenient-tail]
            (conformance rule suites over trace artifacts, or the
             differential oracles; violations are structured findings
             and any error-severity finding fails the command)
",
        run: Run::Plain(conformance::cmd_check),
    },
    Command {
        name: "fuzz",
        keys: "seed iters",
        switches: "",
        positional: None,
        usage: "  fuzz      [--seed N] [--iters M]
            (structure-aware decoder fuzzing: seeded mutations of valid
             corpora; fails if any decoder panics instead of rejecting)
",
        run: Run::Plain(conformance::cmd_fuzz),
    },
    Command {
        name: "help",
        keys: "",
        switches: "",
        positional: None,
        usage: "",
        run: Run::Plain(|_| Ok(help())),
    },
];

/// The row for `name` (`ute --help` is `ute help`).
pub fn command(name: &str) -> Option<&'static Command> {
    let name = if name == "--help" { "help" } else { name };
    COMMANDS.iter().find(|c| c.name == name)
}

/// The text of `ute help`: the rows' usage blocks in table order between
/// a fixed header and the cross-command notes, [`SHARED`]'s last.
pub fn help() -> String {
    let mut s = String::from(HELP_HEADER);
    for c in COMMANDS {
        s.push_str(c.usage);
    }
    s.push_str(HELP_NOTES);
    s.push_str(SHARED.usage);
    s
}

/// Dispatches one invocation through its [`COMMANDS`] row. The
/// [`SHARED`] options work on every command: `--metrics` prints the
/// metrics table (TSV) to stderr when the command finishes,
/// `--self-trace FILE` writes the run's own spans as a UTE interval file
/// (or Chrome trace JSON with `--self-trace-format chrome`), and
/// `--profiler` prints their fold — the ranked stage table — to stderr.
/// All three (and `ute report`, `ute profile`) render the same capture,
/// drained once here: the `<stage>/span_ns` rows of `--metrics` are the
/// spans of this command.
pub fn run(argv: &[String]) -> Result<String> {
    let (name, rest) = argv
        .split_first()
        .ok_or_else(|| UteError::Invalid(help().trim().to_string()))?;
    let cmd = command(name)
        .ok_or_else(|| UteError::Invalid(format!("unknown command `{name}`\n{}", help())))?;
    let args = Args::parse(cmd, rest)?;
    let self_trace = args.get("self-trace").map(PathBuf::from);
    let self_trace_format = match args.get("self-trace-format") {
        None => selftrace::SelfTraceFormat::default(),
        Some(s) => selftrace::SelfTraceFormat::parse(s).ok_or_else(|| {
            UteError::Invalid(format!(
                "--self-trace-format must be `ivl` or `chrome`, got `{s}`"
            ))
        })?,
    };
    if let Some(limit) = args.get("self-trace-limit") {
        let limit: usize = limit
            .parse()
            .map_err(|_| UteError::Invalid(format!("bad --self-trace-limit `{limit}`")))?;
        ute_obs::set_capture_limit(limit);
    }
    let capture = self_trace.is_some()
        || args.has("profiler")
        || args.has("metrics")
        || matches!(cmd.run, Run::Captured(_));
    if capture {
        ute_obs::set_capture(true);
        ute_obs::drain_spans();
        ute_obs::drain_flows();
    }
    let result = {
        // Root of the run's span tree: every stage span opened on this
        // thread (and every worker adopting it across a spawn) nests
        // under one `cli/<command>` interval.
        let root = ute_obs::Span::enter("cli", cmd.name);
        match cmd.run {
            Run::Plain(f) => f(&args),
            Run::Captured(f) => f(&args, &root),
        }
    };
    let (spans, flows) = if capture {
        ute_obs::set_capture(false);
        (ute_obs::drain_spans(), ute_obs::drain_flows())
    } else {
        Default::default()
    };
    if args.has("profiler") && matches!(cmd.run, Run::Plain(_)) {
        let label = args.get("workload").unwrap_or(cmd.name);
        let report = ute_profile::build_report(label, ute_profile::fold(&spans, None));
        eprint!("{}", report.render_text());
    }
    let mut msg = result?;
    if let Some(path) = self_trace {
        selftrace::write_self_trace(&spans, &flows, &path, self_trace_format)?;
        msg.push_str(&format!(
            "wrote self-trace {} ({} spans)\n",
            path.display(),
            spans.len()
        ));
    }
    if args.has("metrics") {
        eprint!("{}", ute_obs::snapshot().with_spans(&spans).to_tsv());
    }
    Ok(msg)
}

const HELP_HEADER: &str = "\
ute — Unified Trace Environment (SC 2000 reproduction)

commands:
";

const HELP_NOTES: &str = "
fault tolerance:
  Ingestion commands salvage by default: corrupt records are skipped
  (the decoder resynchronizes on the next valid hookword), truncated
  streams close their open states as synthetic intervals, and missing
  or unreadable nodes degrade with a warning and a Gap pseudo-record
  instead of aborting. Salvage events are counted in the salvage/*
  metrics (see --metrics / `ute report`).
  --strict             restore fail-fast: any corrupt, truncated, or
                       missing input is a hard error
  --fault-seed N       (trace/pipeline) inject a deterministic seeded
                       fault plan while writing raw traces
  --fault-plan SPEC    explicit plan, comma-separated NODE:KIND — e.g.
                       0:truncate@500,1:bitflip@123.5,2:missing,
                       3:overrun@64+40,4:dropflush@1,5:clockjump@100+9999

crash safety:
  `ute pipeline` writes through a write-ahead run journal
  (OUT/journal.utj) and an atomic artifact store: every stage's outputs
  are written to fsync'd NAME.tmp.<pid> temps, committed to the journal
  with content hashes, and only then renamed into place. Kill the
  process anywhere and `ute resume OUT` finishes the run — published
  stages are verified and skipped, committed stages complete from their
  temps, stale temps are swept. `--disk-budget` stops a run gracefully
  (journaled, resumable) before a stage would exceed the budget, as
  does a full disk. `ute chaos` proves all of this under seeded kills.

parallelism:
  --jobs N             worker count for convert and merge (default: all
                       cores; 1 = serial). Output is byte-identical for
                       every value — CI enforces it.

";

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(cmd: &str, tokens: &[&str]) -> Result<Args> {
        let argv: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        Args::parse(command(cmd).unwrap(), &argv)
    }

    #[test]
    fn args_parse() {
        let a = parse("slogmerge", &["--in", "x", "--no-filter", "--frames", "8"]).unwrap();
        assert_eq!(a.get("in"), Some("x"));
        assert!(a.has("no-filter"));
        assert!(!a.has("no-arrows"));
        assert_eq!(a.num("frames", 0usize).unwrap(), 8);
        assert_eq!(a.num("bins", 99u32).unwrap(), 99);
        assert_eq!(a.opt_num::<u32>("bins").unwrap(), None);
        assert!(a.require("out").is_err());
        let e = parse("slogmerge", &["--frames", "x"])
            .unwrap()
            .num("frames", 0usize);
        assert_eq!(
            e.unwrap_err().to_string(),
            "invalid request: --frames: bad value `x`"
        );
    }

    #[test]
    fn a_later_value_wins_and_the_positional_is_only_the_first_token() {
        let a = parse("resume", &["d", "--in", "e"]).unwrap();
        assert_eq!(a.get("in"), Some("e"));
        let e = parse("resume", &["--jobs", "2", "d"]).unwrap_err();
        assert!(e.to_string().contains("unexpected argument `d`"), "{e}");
    }

    #[test]
    fn the_first_unknown_name_in_sort_order_is_reported_whatever_follows_it() {
        let e = parse("merge", &["--zeta", "--in", "d", "--alpha", "1"]).unwrap_err();
        assert!(
            e.to_string().ends_with("merge: unknown option --alpha"),
            "{e}"
        );
        // A value missing from a key the row does read is reported first.
        let e = parse("merge", &["--zeta", "--in"]).unwrap_err();
        assert!(e.to_string().contains("missing value for --in"), "{e}");
    }
}
