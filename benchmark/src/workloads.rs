//! The four workloads: what each one generates from the seed, and the
//! `ute` commands one rep of it runs.
//!
//! Every path in a command is relative — the harness runs with its work
//! directory as the current directory — so the text the commands return
//! does not change length with where the benchmark was checked out.

use std::path::Path;

use ute_clock::drift::ClockParams;
use ute_cluster::{SimResult, Simulator};
use ute_core::error::{Result, UteError};
use ute_format::codecio::thread_table_to_bytes;
use ute_format::file::IntervalFileReader;
use ute_format::profile::Profile;
use ute_rawtrace::file::RawTraceFile;
use ute_scenario::{PatternKind, ScenarioSpec};
use ute_workloads::scaling::scaled_job;

/// `--jobs` of every measured command. Fixed, not taken from the machine:
/// two runs on different core counts execute the same program.
pub const JOBS: usize = 2;

/// `--smoke` divides every input size by this.
const SMOKE_DIVISOR: u32 = 20;

/// Loop iterations of the Table 1 program. Sized so one rep takes most
/// of a second on the 2-vCPU reference guest and no buffer of it passes
/// 32 MB, where glibc stops recycling freed blocks and maps each one
/// afresh (see README, "Sizing").
const DEEP4_ITERATIONS: u32 = 14000;
const PIPE4_ITERATIONS: u32 = 11000;
const QUERY4_ITERATIONS: u32 = 10000;
/// Rounds of every phase of the 256-node torture scenario.
const WIDE256_ROUNDS: u32 = 16;

/// Directory (relative to the work directory) of the ingest input and,
/// for `deep4`/`wide256`/`query4`, of what ingest publishes beside it.
pub const IN_DIR: &str = "d";
/// `pipe4`'s `--out`: created by the command, removed before every rep.
const PIPE_DIR: &str = "p";
/// Where `query4` writes its SVGs.
const QUERY_DIR: &str = "q";

/// The custom statistics program of `query4` (three tables, fixed).
const TABLES_FILE: &str = "tables.uts";
const TABLES_PROGRAM: &str = r#"
table name=mpi_time_by_node
      condition=(state >= 256)
      x=("node", node)
      y=("calls", dura, count)
      y=("time", dura, sum)

table name=busy_by_node_bin
      condition=(interesting)
      x=("node", node)
      x=("bin", bin(start, 20))
      y=("time", dura, sum)
      y=("longest", dura, max)

table name=sent_by_thread
      condition=(state >= 256 && msgSizeSent > 0)
      x=("node", node)
      x=("thread", thread)
      y=("bytes", msgSizeSent, sum)
      y=("avg", msgSizeSent, avg)
"#;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Deep4,
    Wide256,
    Pipe4,
    Query4,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Deep4,
        Workload::Wide256,
        Workload::Pipe4,
        Workload::Query4,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Deep4 => "deep4",
            Workload::Wide256 => "wide256",
            Workload::Pipe4 => "pipe4",
            Workload::Query4 => "query4",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether a rep ingests raw traces (as opposed to querying an
    /// already ingested directory).
    pub fn ingests(self) -> bool {
        self != Workload::Query4
    }

    /// Where the workload's interval files, `merged.ivl` and `run.slog`
    /// are once a rep (`query4`: the set-up) has run.
    pub fn ingest_dir(self) -> &'static str {
        match self {
            Workload::Pipe4 => PIPE_DIR,
            _ => IN_DIR,
        }
    }

    /// The directory a rep publishes into. It is emptied of everything
    /// but the inputs before each rep, so every rep starts from the same
    /// state and what it leaves there is what it published.
    pub fn publish_dir(self) -> &'static str {
        match self {
            Workload::Deep4 | Workload::Wide256 => IN_DIR,
            Workload::Pipe4 => PIPE_DIR,
            Workload::Query4 => QUERY_DIR,
        }
    }
}

fn div(n: u32, smoke: bool) -> u32 {
    if smoke {
        (n / SMOKE_DIVISOR).max(1)
    } else {
        n
    }
}

/// `pipe4`'s `--iterations`. `ute pipeline` takes no simulator seed, so
/// the seed enters through the problem size — by at most 63 iterations in
/// 11000, which keeps runs on different seeds comparable.
fn pipe4_iterations(seed: u64, smoke: bool) -> u32 {
    div(PIPE4_ITERATIONS, smoke) + (seed % 64) as u32
}

/// The simulated machine and program of a workload: all of the input
/// that depends on the seed.
pub fn model(w: Workload, seed: u64, smoke: bool) -> Result<ute_workloads::Workload> {
    let seeded_scaling = |iterations: u32| {
        let mut m = scaled_job(div(iterations, smoke));
        // The Table 1 program is fixed, so the seed goes into the machine:
        // every node's crystal gets its own offset, frequency error and
        // temperature walk. Event counts stay put; every local timestamp,
        // and with it every clock fit of the merge, moves.
        m.config.seed = seed;
        m.config.clock_params = (0..m.config.nodes as u64)
            .map(|node| {
                let r = xorshift(xorshift(seed.wrapping_add(1) ^ (node << 32) ^ 0x5eed_c10c));
                ClockParams {
                    offset_ticks: (r % 1_000_000) as i64,
                    freq_error_ppm: ((r >> 20) % 8001) as f64 / 100.0 - 40.0,
                    temp_walk_ppm: 0.5,
                    temp_bound_ppm: 4.0,
                    read_quantum_ticks: 1,
                    seed: r,
                }
            })
            .collect();
        m
    };
    Ok(match w {
        Workload::Deep4 => seeded_scaling(DEEP4_ITERATIONS),
        Workload::Query4 => seeded_scaling(QUERY4_ITERATIONS),
        // Exactly what `ute pipeline --workload scaling --iterations N`
        // simulates inside the rep.
        Workload::Pipe4 => scaled_job(pipe4_iterations(seed, smoke)),
        Workload::Wide256 => {
            let mut spec = ScenarioSpec::torture(seed);
            spec.topology.nodes = 256;
            // Left alone, the preset would move the record count, and
            // the bytes published per record, by up to tens of percent
            // from one seed to the next, and runs on different seeds could
            // not be compared. It draws 3–5 rounds per phase: pinned. It
            // deals three patterns over five busy phases starting from a
            // seeded one: a sixth busy phase is added and the order fixed,
            // so every pattern is played twice. The seed still picks
            // message sizes, the straggler and all jitter.
            let third = spec.phases[2].clone();
            spec.phases.insert(5, third);
            let busy = [
                PatternKind::NearestNeighbor,
                PatternKind::Ring,
                PatternKind::Tree,
            ];
            for (i, p) in spec.phases.iter_mut().enumerate() {
                p.rounds = div(WIDE256_ROUNDS, smoke);
                if i < 6 {
                    p.pattern = busy[i % 3];
                }
            }
            let spec = spec.with_straggler(1 + (seed % 255) as u32, 4);
            let sc = ute_scenario::generate(&spec)?;
            ute_workloads::Workload {
                name: "bench_wide256",
                config: sc.config,
                job: sc.job,
            }
        }
    })
}

/// Runs the simulator over a model.
pub fn simulate(m: ute_workloads::Workload) -> Result<SimResult> {
    Simulator::new(m.config, &m.job)?.run()
}

/// A trace directory's files as bytes — what `ute trace` would write.
pub fn encode(sim: &SimResult) -> Result<Vec<(String, Vec<u8>)>> {
    let mut files = Vec::with_capacity(sim.raw_files.len() + 2);
    for f in &sim.raw_files {
        files.push((RawTraceFile::file_name("trace", f.node), f.to_bytes()?));
    }
    files.push((
        "threads.utt".to_string(),
        thread_table_to_bytes(&sim.threads),
    ));
    files.push(("profile.ute".to_string(), Profile::standard().to_bytes()));
    Ok(files)
}

/// One `ute` invocation of a rep.
#[derive(Debug, Clone)]
pub struct Cmd {
    /// Which `cli.<kind>_s` metric the command's time is booked under.
    pub kind: &'static str,
    pub argv: Vec<String>,
}

fn cmd(kind: &'static str, argv: &[&str]) -> Cmd {
    Cmd {
        kind,
        argv: argv.iter().map(|s| s.to_string()).collect(),
    }
}

/// The `cli.*` kinds, in the order the metrics are listed.
pub const CMD_KINDS: [&str; 11] = [
    "convert",
    "merge",
    "slogmerge",
    "stats",
    "pipeline",
    "analyze_all",
    "analyze_window",
    "analyze_nodes",
    "stats_custom",
    "view",
    "preview",
];

/// The four standalone ingest commands over [`IN_DIR`].
pub fn ingest_script(jobs: usize) -> Vec<Cmd> {
    let j = jobs.to_string();
    vec![
        cmd("convert", &["convert", "--in", IN_DIR, "--jobs", &j]),
        cmd(
            "merge",
            &[
                "merge",
                "--in",
                IN_DIR,
                "--out",
                "d/merged.ivl",
                "--jobs",
                &j,
            ],
        ),
        cmd(
            "slogmerge",
            &[
                "slogmerge",
                "--in",
                IN_DIR,
                "--out",
                "d/run.slog",
                "--jobs",
                &j,
            ],
        ),
        cmd("stats", &["stats", "--merged", "d/merged.ivl"]),
    ]
}

/// A workload made ready in the work directory: its exact record count
/// and whatever its script needs to know about the input.
#[derive(Debug, Clone)]
pub struct Prepared {
    pub workload: Workload,
    pub seed: u64,
    pub smoke: bool,
    /// The count `records_per_s` and the `*_per_record` metrics divide
    /// by: raw events of the input, or rows of `merged.ivl` for `query4`.
    pub records: u64,
    /// Raw events the simulator cut (equals `records` on the ingest
    /// workloads); the convert stage must report reading as many.
    pub events_cut: u64,
    /// First start and last end time of `merged.ivl`, ns (`query4`).
    pub span: (u64, u64),
}

/// `ns` as the decimal seconds the CLI's `--window`/`--frame-at` parse.
fn secs(ns: u64) -> String {
    format!("{}.{:09}", ns / 1_000_000_000, ns % 1_000_000_000)
}

impl Prepared {
    /// The commands of one rep, at `--jobs jobs`.
    pub fn script(&self, jobs: usize) -> Vec<Cmd> {
        match self.workload {
            Workload::Deep4 | Workload::Wide256 => ingest_script(jobs),
            Workload::Pipe4 => vec![cmd(
                "pipeline",
                &[
                    "pipeline",
                    "--workload",
                    "scaling",
                    "--iterations",
                    &pipe4_iterations(self.seed, self.smoke).to_string(),
                    "--jobs",
                    &jobs.to_string(),
                    "--out",
                    PIPE_DIR,
                ],
            )],
            Workload::Query4 => self.query_script(),
        }
    }

    fn query_script(&self) -> Vec<Cmd> {
        let (t0, t1) = self.span;
        let tenth = (t1 - t0) / 10;
        let decile = |i: u64| (t0 + i * tenth, t0 + (i + 1) * tenth);
        // The seed orders the ten deciles of the run. The late-sender
        // windows are the first eight; the views keep to fixed deciles —
        // an SVG's size follows what its window holds, and the bytes a
        // rep publishes must not depend on the seed — visited in the
        // seed's order.
        let mut order: Vec<u64> = (0..10).collect();
        let mut x = self.seed ^ 0x9e37_79b9_7f4a_7c15;
        for i in (1..order.len()).rev() {
            x = xorshift(x);
            order.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let visit = |deciles: [u64; 2]| order.iter().copied().filter(move |d| deciles.contains(d));

        let mut s = vec![cmd("analyze_all", &["analyze", IN_DIR, "--all", "--json"])];
        for &i in &order[..8] {
            let (a, b) = decile(i);
            let window = format!("{}:{}", secs(a), secs(b));
            s.push(cmd(
                "analyze_window",
                &[
                    "analyze",
                    IN_DIR,
                    "--diag",
                    "late_sender",
                    "--window",
                    &window,
                    "--json",
                ],
            ));
        }
        s.push(cmd(
            "analyze_nodes",
            &[
                "analyze",
                IN_DIR,
                "--diag",
                "imbalance",
                "--nodes",
                "0..1",
                "--json",
            ],
        ));
        s.push(cmd("stats", &["stats", "--merged", "d/merged.ivl"]));
        s.push(cmd(
            "stats_custom",
            &[
                "stats",
                "--merged",
                "d/merged.ivl",
                "--program",
                "d/tables.uts",
            ],
        ));
        for (kind, deciles) in [("thread", [1, 6]), ("cpu", [3, 8])] {
            for i in visit(deciles) {
                let (a, b) = decile(i);
                let window = format!("{},{}", secs(a), secs(b));
                let svg = format!("{QUERY_DIR}/{kind}{i}.svg");
                s.push(cmd(
                    "view",
                    &[
                        "view",
                        "--slog",
                        "d/run.slog",
                        "--kind",
                        kind,
                        "--window",
                        &window,
                        "--svg",
                        &svg,
                    ],
                ));
            }
        }
        for i in visit([2, 7]) {
            let (a, b) = decile(i);
            s.push(cmd(
                "view",
                &[
                    "view",
                    "--slog",
                    "d/run.slog",
                    "--frame-at",
                    &secs(a + (b - a) / 2),
                ],
            ));
        }
        let svg = format!("{QUERY_DIR}/preview.svg");
        s.push(cmd(
            "preview",
            &["preview", "--slog", "d/run.slog", "--svg", &svg],
        ));
        s
    }
}

/// One step of Marsaglia's xorshift64.
pub fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Writes a workload's input into the current directory and returns what
/// the script needs. `files` is the encoded trace directory of
/// [`model`]`(w, seed, smoke)`; for `query4` the input is also ingested
/// here, once, because its reps only read.
pub fn prepare(
    w: Workload,
    seed: u64,
    smoke: bool,
    events_cut: u64,
    files: &[(String, Vec<u8>)],
) -> Result<Prepared> {
    let mut p = Prepared {
        workload: w,
        seed,
        smoke,
        records: events_cut,
        events_cut,
        span: (0, 0),
    };
    // `pipe4` simulates inside the rep and reads no input files.
    if w != Workload::Pipe4 {
        let dir = Path::new(IN_DIR);
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir)?;
        for (name, bytes) in files {
            std::fs::write(dir.join(name), bytes)?;
        }
    }
    if w == Workload::Query4 {
        for c in ingest_script(JOBS) {
            ute_cli::run(&c.argv)?;
        }
        std::fs::write(Path::new(IN_DIR).join(TABLES_FILE), TABLES_PROGRAM)?;
        std::fs::create_dir_all(QUERY_DIR)?;
        let merged = std::fs::read("d/merged.ivl")?;
        let profile = Profile::standard();
        let reader = IntervalFileReader::open(&merged, &profile)?;
        p.records = reader.total_records()?;
        p.span = reader
            .time_span()?
            .filter(|(a, b)| b - a >= 10)
            .ok_or_else(|| UteError::Invalid("query4: merged.ivl spans no time".into()))?;
    }
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("fanin256"), None);
    }

    #[test]
    fn seconds_are_exact_to_the_nanosecond() {
        assert_eq!(secs(0), "0.000000000");
        assert_eq!(secs(1_500_000_001), "1.500000001");
        // What the CLI does with the text: f64 seconds × 1e9, truncated.
        for ns in [8_055_406_123u64, 999_999_999, 12_345_678_901] {
            let back = (secs(ns).parse::<f64>().unwrap() * 1e9).round() as u64;
            assert_eq!(back, ns);
        }
    }

    #[test]
    fn query_windows_are_eight_distinct_deciles_chosen_by_the_seed() {
        let p = |seed| Prepared {
            workload: Workload::Query4,
            seed,
            smoke: true,
            records: 1,
            events_cut: 1,
            span: (1_000, 11_000),
        };
        let windows = |seed| -> Vec<String> {
            p(seed)
                .script(JOBS)
                .into_iter()
                .filter(|c| c.kind == "analyze_window")
                .map(|c| c.argv[5].clone())
                .collect()
        };
        let a = windows(1);
        assert_eq!(a.len(), 8);
        let mut uniq = a.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 8);
        assert_eq!(a, windows(1));
        assert_ne!(a, windows(2));
        assert_eq!(p(1).script(JOBS).len(), 19);
    }

    #[test]
    fn every_command_kind_is_listed() {
        let mut p = Prepared {
            workload: Workload::Deep4,
            seed: 3,
            smoke: true,
            records: 1,
            events_cut: 1,
            span: (0, 1_000),
        };
        for w in Workload::ALL {
            p.workload = w;
            for c in p.script(JOBS) {
                assert!(CMD_KINDS.contains(&c.kind), "{}", c.kind);
            }
        }
    }
}
