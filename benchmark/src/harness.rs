//! The run protocol shared by the untraced and the traced run: set-up,
//! timed reps, fresh-process children, the correctness gate, and the
//! report.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use crate::json::{self, Json};
use crate::metrics::{unit_of, END_TO_END};
use crate::procfs;
use crate::rep::{self, Rep, CALIB_NOMINAL_S};
use crate::summary::{median, Summary};
use crate::workloads::{self, Prepared, Workload, CMD_KINDS, JOBS};

/// Set-up rounds per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 3;
/// Fresh one-rep processes per run; `peak_rss_mb` is their median.
const RSS_CHILDREN: usize = 3;
/// Name of the untraced binary, which the traced one spawns for its
/// untraced reference reps.
pub const UNTRACED_BIN: &str = "ute-benchmark";

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// `--seconds`: one timed rep per second asked for. Reps are sized to
    /// take about a second each, so this is how long the run measures;
    /// counting reps instead of watching the clock keeps `n` the same on
    /// every machine and for every version of the measured code.
    pub seconds: u32,
    pub trace: bool,
    /// Inputs ÷ 20, two reps, one child: the CI path.
    pub smoke: bool,
    /// Where `work/<pid>/` and `trace-<workload>.json` go.
    pub out_dir: PathBuf,
}

/// The last line of a run.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// `errors` are the gate failures of the whole run. One that no rep
    /// owns (check, a fresh process, the event count) fails them all, and
    /// so does a metric that is not a number: a ratio over a zero would
    /// otherwise read as a plausible value.
    pub fn new(
        errors: &mut Vec<String>,
        attempted: u64,
        failed_in_reps: u64,
        metrics: Vec<(&'static str, f64)>,
    ) -> Report {
        for (name, v) in &metrics {
            if !v.is_finite() {
                errors.push(format!("metric {name} is {v}, not a finite number"));
            }
        }
        Report {
            correct: errors.is_empty(),
            attempted,
            failed: match (errors.is_empty(), failed_in_reps) {
                (true, _) => 0,
                (false, 0) => attempted,
                (false, n) => n,
            },
            metrics,
        }
    }

    /// Every metric by name with its unit, then the operation counts.
    pub fn print(&self, w: Workload, errors: &[String]) {
        for e in errors {
            println!("# error {}: {e}", w.name());
        }
        for (name, v) in &self.metrics {
            println!(
                "{}/{name} {} {}",
                w.name(),
                json::num(*v),
                unit_of(name).unwrap_or("")
            );
        }
        println!("{}/ops {}", w.name(), self.attempted);
        println!("{}/ops_failed {}", w.name(), self.failed);
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(name),
                    json::num(*v),
                    json::quote(unit_of(name).expect("every printed metric is listed"))
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

pub type Error = Box<dyn std::error::Error>;

/// A work directory that is the process's current directory while it
/// lives and is removed when it goes.
pub struct WorkDir {
    path: PathBuf,
    back: PathBuf,
}

impl WorkDir {
    pub fn enter(out_dir: &Path) -> std::io::Result<WorkDir> {
        std::fs::create_dir_all(out_dir)?;
        // `run.sh` mounts a tmpfs on `<out>/work`; see there.
        let path = out_dir
            .canonicalize()?
            .join("work")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        let back = std::env::current_dir()?;
        std::env::set_current_dir(&path)?;
        Ok(WorkDir { path, back })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The directory the work directory was made in.
    pub fn out_dir(&self) -> &Path {
        self.path
            .ancestors()
            .nth(2)
            .expect("made by joining two names onto the out directory")
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::env::set_current_dir(&self.back);
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// The machine's state around a run, printed with the results so that a
/// disagreeing pair of runs can be read against it.
pub struct Environment {
    steal_before: Option<u64>,
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

impl Environment {
    /// Prints the block's static half and remembers the steal counter.
    pub fn begin(work: &Path) -> Environment {
        let tool = |cmd: &str, args: &[&str]| -> String {
            Command::new(cmd)
                .args(args)
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".to_string())
        };
        let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
        println!("# env nproc {cores}");
        println!("# env kernel {}", read("/proc/sys/kernel/osrelease").trim());
        let fs = filesystem_of(work, &read("/proc/self/mountinfo"));
        println!("# env workdir {} on {fs}", work.display());
        if fs != "tmpfs" {
            println!(
                "# warning: the work directory is not in memory: every publish waits for \
                 the device, and wall_s and setup_s with it"
            );
        }
        println!("# env rustc {}", tool("rustc", &["-V"]));
        println!("# env commit {}", tool("git", &["rev-parse", "HEAD"]));
        println!("# env loadavg {}", read("/proc/loadavg").trim());
        Environment {
            steal_before: procfs::steal_jiffies(&read("/proc/stat")),
        }
    }

    /// Prints the dynamic half: load and stolen time across the run.
    pub fn end(&self) {
        println!("# env loadavg_end {}", read("/proc/loadavg").trim());
        match (
            self.steal_before,
            procfs::steal_jiffies(&read("/proc/stat")),
        ) {
            (Some(a), Some(b)) => println!("# env steal_jiffies {}", b.saturating_sub(a)),
            _ => println!("# env steal_jiffies unknown"),
        }
    }
}

/// The filesystem type of the mount `path` lives on, from the text of
/// `/proc/self/mountinfo`: the longest mount point that is a prefix.
pub fn filesystem_of(path: &Path, mountinfo: &str) -> String {
    let mut best: (usize, &str) = (0, "unknown");
    for line in mountinfo.lines() {
        // `… <root> <mount point> <options> [optional…] - <fstype> <source> …`
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (
            left.split_ascii_whitespace().nth(4),
            right.split_ascii_whitespace().next(),
        ) else {
            continue;
        };
        if path.starts_with(mount) && mount.len() >= best.0 {
            best = (mount.len(), fstype);
        }
    }
    best.1.to_string()
}

/// A workload set up in the current directory, with its reference rep.
pub struct Setup {
    pub prepared: Prepared,
    /// The last warm-up rep: what every later rep must reproduce.
    pub reference: Rep,
    /// Wall time of each set-up round, raw and in calibrated seconds.
    pub round_s: Vec<f64>,
    pub round_calibrated_s: Vec<f64>,
    /// Gate failures so far (empty when all is well).
    pub errors: Vec<String>,
}

/// Generates the input through the library, writes it, ingests it where
/// the workload asks for that, and runs one warm-up rep — `rounds`
/// times over, keeping the last copy.
pub fn set_up(opts: &Options, rounds: usize) -> Result<Setup, Error> {
    let mut round_s = Vec::with_capacity(rounds);
    let mut round_calibrated_s = Vec::with_capacity(rounds);
    let mut last = None;
    let mut errors = Vec::new();
    for _ in 0..rounds {
        let before = rep::calibrate();
        let t = Instant::now();
        let sim = workloads::simulate(workloads::model(opts.workload, opts.seed, opts.smoke)?)?;
        let files = workloads::encode(&sim)?;
        let decoded: u64 = sim.raw_files.iter().map(|f| f.events.len() as u64).sum();
        if decoded != sim.stats.events_cut {
            errors.push(format!(
                "the raw files hold {decoded} events, the simulator cut {}",
                sim.stats.events_cut
            ));
        }
        let prepared = workloads::prepare(
            opts.workload,
            opts.seed,
            opts.smoke,
            sim.stats.events_cut,
            &files,
        )?;
        drop((sim, files));
        let warm = rep::run(&prepared, JOBS, |_, _, _| {})?;
        let secs = t.elapsed().as_secs_f64();
        round_s.push(secs);
        round_calibrated_s.push(secs * 2.0 * CALIB_NOMINAL_S / (before + rep::calibrate()));
        last = Some((prepared, warm));
    }
    let (prepared, reference) = last.ok_or("no set-up round was run")?;
    if let Some(e) = &reference.error {
        errors.push(format!("warm-up rep: {e}"));
    }
    // The conformance suites over what the warm-up left behind, once,
    // outside any timed region.
    if opts.workload.ingests() {
        let dir = opts.workload.publish_dir().to_string();
        if let Err(e) = ute_cli::run(&["check".to_string(), "--in".to_string(), dir]) {
            errors.push(format!("ute check: {e}"));
        }
    }
    Ok(Setup {
        prepared,
        reference,
        round_s,
        round_calibrated_s,
        errors,
    })
}

/// Runs `reps` reps of an already set-up workload in a fresh process of
/// `exe` and returns them; the last one's `vm_hwm_kb` is the child's peak.
/// A child asked for its peak runs no calibration kernel, whose table
/// would be 16 MB of it.
pub fn spawn_child(
    exe: &Path,
    p: &Prepared,
    jobs: usize,
    reps: usize,
    calibrated: bool,
) -> Result<Vec<Rep>, Error> {
    let mut c = Command::new(exe);
    if calibrated {
        c.arg("--calibrated");
    }
    c.args(["--child-reps", &reps.to_string()])
        .args(["--jobs", &jobs.to_string()])
        .args(["--workload", p.workload.name()])
        .args(["--seed", &p.seed.to_string()])
        .args(["--records", &p.records.to_string()])
        .args(["--events", &p.events_cut.to_string()])
        .args(["--span", &format!("{},{}", p.span.0, p.span.1)]);
    if p.smoke {
        c.arg("--smoke");
    }
    // `output` waits for the child; it inherits the current directory,
    // which is the work directory.
    let out = c.output()?;
    if !out.status.success() {
        return Err(format!(
            "child {} failed ({}): {}",
            exe.display(),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )
        .into());
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().ok_or("child printed nothing")?;
    let j = Json::parse(line)?;
    j.as_arr()
        .ok_or("child did not print a list of reps")?
        .iter()
        .map(|r| Rep::from_json(r).map_err(Error::from))
        .collect()
}

/// The child side of [`spawn_child`]: the current directory already
/// holds the set-up workload.
pub fn child_main(p: &Prepared, jobs: usize, reps: usize, calibrated: bool) -> Result<(), Error> {
    let mut out = Vec::with_capacity(reps);
    for _ in 0..reps {
        let rep = if calibrated {
            rep::run_calibrated(p, jobs)?
        } else {
            rep::run(p, jobs, |_, _, _| {})?
        };
        out.push(rep.to_json());
    }
    println!("[{}]", out.join(","));
    Ok(())
}

/// Timed reps and what became of them.
pub struct Timed {
    pub reps: Vec<Rep>,
    pub attempted: u64,
    pub failed: u64,
}

/// Runs `n` reps, checking each against the reference.
pub fn timed_reps(setup: &mut Setup, n: usize) -> Result<Timed, Error> {
    let mut t = Timed {
        reps: Vec::with_capacity(n),
        attempted: 0,
        failed: 0,
    };
    for _ in 0..n {
        let rep = rep::run_calibrated(&setup.prepared, JOBS)?;
        t.attempted += rep.commands;
        if let Some(why) = rep::mismatch(&setup.reference, &rep) {
            t.failed += rep.commands;
            setup
                .errors
                .push(format!("rep {}: {why}", t.reps.len() + 1));
        }
        t.reps.push(rep);
    }
    Ok(t)
}

fn print_summary(workload: Workload, name: &str, unit: &str, values: &[f64]) {
    if let Some(s) = Summary::of(values) {
        println!(
            "# {} {name} min {:.6} {unit} median {:.6} q1 {:.6} q3 {:.6} max {:.6} n {}",
            workload.name(),
            s.min,
            s.median,
            s.q1,
            s.q3,
            s.max,
            s.n
        );
    }
}

/// The noise guard: warn, do not fail.
pub fn noise_guard(workload: Workload, reps: &[Rep]) -> (f64, f64) {
    let spread = |v: Vec<f64>| Summary::of(&v).map_or(0.0, |s| s.iqr_ratio());
    let calib_spread = spread(reps.iter().map(|r| r.calib_s).collect());
    let rep_iqr_ratio = spread(reps.iter().map(|r| r.wall_s).collect());
    if calib_spread > 0.15 {
        println!(
            "# warning {}: harness.calib_spread {calib_spread:.3} > 0.15 — the machine's \
             speed moved during the run",
            workload.name()
        );
    }
    if rep_iqr_ratio > 0.10 {
        println!(
            "# warning {}: harness.rep_iqr_ratio {rep_iqr_ratio:.3} > 0.10 — reps of \
             identical work disagreed",
            workload.name()
        );
    }
    (calib_spread, rep_iqr_ratio)
}

/// The untraced run: the six end-to-end metrics.
pub fn run_untraced(opts: &Options) -> Result<Report, Error> {
    let work = WorkDir::enter(&opts.out_dir)?;
    let env = Environment::begin(work.path());
    let w = opts.workload;
    // Smoke: one round, two reps, one child.
    let (rounds, reps, children) = if opts.smoke {
        (1, 2, 1)
    } else {
        (SETUP_ROUNDS, opts.seconds as usize, RSS_CHILDREN)
    };

    let mut setup = set_up(opts, rounds)?;
    let timed = timed_reps(&mut setup, reps)?;

    let exe = std::env::current_exe()?;
    let mut rss_mb = Vec::with_capacity(children);
    for i in 0..children {
        let rep = spawn_child(&exe, &setup.prepared, JOBS, 1, false)?
            .pop()
            .ok_or("child ran no rep")?;
        if let Some(why) = rep::mismatch(&setup.reference, &rep) {
            setup.errors.push(format!("fresh process {}: {why}", i + 1));
        }
        rss_mb.push(rep.proc.vm_hwm_kb as f64 / 1024.0);
    }

    let records = setup.prepared.records as f64;
    // The time metrics are in calibrated seconds (README, "Calibrated
    // seconds"); the raw ones are printed beside them.
    let wall_raw: Vec<f64> = timed.reps.iter().map(|r| r.wall_s).collect();
    let cpu_raw: Vec<f64> = timed
        .reps
        .iter()
        .map(|r| r.proc.user_s + r.proc.sys_s)
        .collect();
    let calibrated = |raw: &[f64]| -> Vec<f64> {
        std::iter::zip(&timed.reps, raw)
            .map(|(r, s)| r.calibrated(*s))
            .collect()
    };
    let (wall, cpu) = (calibrated(&wall_raw), calibrated(&cpu_raw));
    let wall_s = median(&wall);
    let values = [
        wall_s,
        records / wall_s,
        median(&cpu),
        median(&rss_mb),
        setup.reference.artifact_bytes as f64 / records,
        median(&setup.round_calibrated_s),
    ];

    println!(
        "# {} seed {} records {}",
        w.name(),
        opts.seed,
        setup.prepared.records
    );
    print_summary(w, "wall_s", "s", &wall);
    print_summary(w, "wall_raw_s", "s", &wall_raw);
    print_summary(w, "cpu_s", "s", &cpu);
    print_summary(w, "cpu_raw_s", "s", &cpu_raw);
    print_summary(w, "peak_rss_mb", "MB", &rss_mb);
    print_summary(w, "setup_s", "s", &setup.round_calibrated_s);
    print_summary(w, "setup_raw_s", "s", &setup.round_s);
    for (i, kind) in CMD_KINDS.iter().enumerate() {
        let v: Vec<f64> = timed.reps.iter().map(|r| r.cli_s[i]).collect();
        if v.iter().any(|x| *x > 0.0) {
            print_summary(w, &format!("cli.{kind}_s"), "s", &v);
        }
    }
    for (i, r) in timed.reps.iter().enumerate() {
        println!(
            "# {} rep {} wall_s {:.4} wall_raw_s {:.4} calib_s {:.4} user_s {:.2} sys_s {:.2} minor_faults {}",
            w.name(),
            i + 1,
            wall[i],
            r.wall_s,
            r.calib_s,
            r.proc.user_s,
            r.proc.sys_s,
            r.proc.minor_faults
        );
    }
    noise_guard(w, &timed.reps);
    env.end();
    let report = Report::new(
        &mut setup.errors,
        timed.attempted,
        timed.failed,
        END_TO_END.iter().map(|m| m.name).zip(values).collect(),
    );
    report.print(w, &setup.errors);
    Ok(report)
}

/// `--compare A B`: whether two untraced result lines agree within the
/// benchmark's own bounds on every end-to-end metric.
pub fn compare(a: &str, b: &str) -> Result<bool, Error> {
    let load = |path: &str| -> Result<Json, Error> {
        let text = std::fs::read_to_string(path)?;
        let line = text.lines().last().ok_or("empty result file")?;
        Ok(Json::parse(line)?)
    };
    let (ja, jb) = (load(a)?, load(b)?);
    let value = |j: &Json, name: &str| -> Result<f64, Error> {
        j.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("no metric `{name}`").into())
    };
    let mut ok = true;
    for m in &END_TO_END {
        let (va, vb) = (value(&ja, m.name)?, value(&jb, m.name)?);
        let diff = (vb - va).abs() / va.abs();
        let within = diff <= m.bound;
        ok &= within;
        println!(
            "{:<28} {:>16} {:>16} {:>8.4} (bound {}) {}",
            m.name,
            json::num(va),
            json::num(vb),
            diff,
            m.bound,
            if within { "ok" } else { "DIFFERS" }
        );
    }
    for j in [&ja, &jb] {
        if j.get("failed").and_then(Json::as_f64) != Some(0.0) {
            println!("ops_failed is not 0");
            ok = false;
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_longest_mount_point_wins() {
        let info = "22 1 254:0 / / rw,relatime - ext4 /dev/vda rw\n\
                    30 22 0:25 / /dev/shm rw,nosuid - tmpfs tmpfs rw\n\
                    31 22 0:26 / /dev rw - devtmpfs devtmpfs rw\n";
        assert_eq!(
            filesystem_of(Path::new("/dev/shm/ute-bench-1"), info),
            "tmpfs"
        );
        assert_eq!(
            filesystem_of(Path::new("/root/repo/benchmark/out"), info),
            "ext4"
        );
        assert_eq!(filesystem_of(Path::new("/x"), "garbage\n"), "unknown");
    }

    #[test]
    fn the_report_line_is_the_contracts_shape() {
        let r = Report::new(
            &mut Vec::new(),
            60,
            0,
            vec![("wall_s", 1.2034), ("setup_s", 0.8127)],
        );
        assert!(r.correct);
        let failed = |errors: &[&str], in_reps, metrics| {
            let mut errors = errors.iter().map(|e| e.to_string()).collect();
            Report::new(&mut errors, 60, in_reps, metrics).failed
        };
        assert_eq!(failed(&["check"], 0, Vec::new()), 60);
        assert_eq!(failed(&["rep 2"], 4, Vec::new()), 4);
        // A ratio over a zero is a gate failure, not a metric.
        assert_eq!(failed(&[], 0, vec![("wall_s", f64::NAN)]), 60);
        assert_eq!(failed(&[], 0, vec![("records_per_s", f64::INFINITY)]), 60);
        let j = Json::parse(&r.to_json()).unwrap();
        let keys: Vec<&str> = j
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let wall = j.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("value").unwrap().as_f64(), Some(1.2034));
        assert_eq!(wall.get("unit").unwrap().as_str(), Some("s"));
    }
}
