//! One rep: run the workload's commands through `ute_cli::run`, time the
//! boundaries, then — outside the timed region — account for everything
//! the rep published and check it.

use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

use crate::alloc;
use crate::json::{self, Json};
use crate::procfs::ProcSample;
use crate::workloads::{xorshift, Cmd, Prepared, Workload, CMD_KINDS};

/// What one rep measured and produced.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Wall time of the commands, first call to last return.
    pub wall_s: f64,
    /// Mean time of the calibration kernel just before and just after
    /// the commands; 0 for a rep run without it ([`run`]).
    pub calib_s: f64,
    /// `/proc` counters accumulated across the commands.
    pub proc: ProcSample,
    /// Seconds in commands of each [`CMD_KINDS`] entry, same order.
    pub cli_s: [f64; CMD_KINDS.len()],
    pub commands: u64,
    /// Bytes of every file published plus every string returned.
    pub artifact_bytes: u64,
    /// One hash over names, sizes and contents of all of the above.
    pub hash: u64,
    /// Raw events the convert stage said it read.
    pub events_in: u64,
    /// Findings per `--json` analyze command, in script order.
    pub findings: Vec<u64>,
    /// Why the rep's output is wrong, if it is.
    pub error: Option<String>,
    /// Allocator traffic of the commands — all zero unless the binary
    /// installed [`crate::alloc::CountingAlloc`]; not part of the JSON.
    pub allocs: Allocs,
}

/// Allocations of one rep's commands.
#[derive(Debug, Clone, Copy, Default)]
pub struct Allocs {
    pub count: u64,
    pub bytes: u64,
    /// Most bytes live at once, over what was live when the rep began.
    pub peak_live: u64,
}

impl Rep {
    /// One line of JSON: how a child process hands its reps to the
    /// harness that spawned it. The hash travels as hex — a JSON number
    /// cannot hold 64 bits.
    pub fn to_json(&self) -> String {
        let p = &self.proc;
        let list = |v: &[f64]| {
            v.iter()
                .map(|x| json::num(*x))
                .collect::<Vec<_>>()
                .join(",")
        };
        let findings: Vec<f64> = self.findings.iter().map(|f| *f as f64).collect();
        format!(
            "{{\"wall_s\":{},\"calib_s\":{},\"user_s\":{},\"sys_s\":{},\"minor_faults\":{},\
             \"read_bytes\":{},\"write_bytes\":{},\"rw_syscalls\":{},\"vol_ctx_switches\":{},\
             \"vm_hwm_kb\":{},\"cli_s\":[{}],\"commands\":{},\"artifact_bytes\":{},\
             \"hash\":\"{:016x}\",\"events_in\":{},\"findings\":[{}],\"error\":{}}}",
            json::num(self.wall_s),
            json::num(self.calib_s),
            json::num(p.user_s),
            json::num(p.sys_s),
            p.minor_faults,
            p.read_bytes,
            p.write_bytes,
            p.rw_syscalls,
            p.vol_ctx_switches,
            p.vm_hwm_kb,
            list(&self.cli_s),
            self.commands,
            self.artifact_bytes,
            self.hash,
            self.events_in,
            list(&findings),
            self.error
                .as_deref()
                .map_or("null".to_string(), json::quote),
        )
    }

    /// Reads back [`Rep::to_json`].
    pub fn from_json(j: &Json) -> Result<Rep, String> {
        let f = |k: &str| {
            j.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("child rep: no number `{k}`"))
        };
        let list = |k: &str| -> Result<Vec<f64>, String> {
            j.get(k)
                .and_then(Json::as_arr)
                .and_then(|a| a.iter().map(Json::as_f64).collect())
                .ok_or_else(|| format!("child rep: no list `{k}`"))
        };
        let cli_s: [f64; CMD_KINDS.len()] = list("cli_s")?
            .try_into()
            .map_err(|_| "child rep: `cli_s` has the wrong length".to_string())?;
        let hash = j
            .get("hash")
            .and_then(Json::as_str)
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or("child rep: no hex `hash`")?;
        Ok(Rep {
            wall_s: f("wall_s")?,
            calib_s: f("calib_s")?,
            proc: ProcSample {
                user_s: f("user_s")?,
                sys_s: f("sys_s")?,
                minor_faults: f("minor_faults")? as u64,
                read_bytes: f("read_bytes")? as u64,
                write_bytes: f("write_bytes")? as u64,
                rw_syscalls: f("rw_syscalls")? as u64,
                vol_ctx_switches: f("vol_ctx_switches")? as u64,
                vm_hwm_kb: f("vm_hwm_kb")? as u64,
            },
            cli_s,
            commands: f("commands")? as u64,
            artifact_bytes: f("artifact_bytes")? as u64,
            hash,
            events_in: f("events_in")? as u64,
            findings: list("findings")?.into_iter().map(|x| x as u64).collect(),
            error: j.get("error").and_then(Json::as_str).map(str::to_string),
            allocs: Allocs::default(),
        })
    }
}

/// What [`calibrate`] takes on the reference machine when nothing
/// disturbs it: the speed that calibrated seconds are seconds at.
pub const CALIB_NOMINAL_S: f64 = 0.1;

/// A fixed kernel of the kind of work `ute` does, ≈ 0.1 s: a dependent
/// walk through a 16 MB table, then four rounds of 20,000 small heap
/// blocks made, hashed byte by byte and freed. How fast the machine is
/// right now, whatever the program under test does — the host moves this
/// guest's speed by a fifth from one minute to the next, and a register
/// loop does not see most of it (README, "Calibrated seconds").
pub fn calibrate() -> f64 {
    static TABLE: OnceLock<Vec<u32>> = OnceLock::new();
    // One cycle through all 2²² slots, in an order no prefetcher follows.
    let next = TABLE.get_or_init(|| {
        let n = 1usize << 22;
        let mut next: Vec<u32> = (0..n as u32).collect();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in (1..n).rev() {
            x = xorshift(x);
            next.swap(i, (x % i as u64) as usize);
        }
        next
    });
    let t = Instant::now();
    let mut p = std::hint::black_box(0u32);
    for _ in 0..1u32 << 18 {
        p = next[p as usize];
    }
    let mut h = u64::from(p);
    for _ in 0..4 {
        let blocks: Vec<Vec<u8>> = (0..20_000usize)
            .map(|i| vec![i as u8; 200 + (i % 64) * 16])
            .collect();
        for b in &blocks {
            h = h.wrapping_mul(31).wrapping_add(ute_store::fnv64(b));
        }
    }
    std::hint::black_box(h);
    t.elapsed().as_secs_f64()
}

/// Journal files record the writing pid, and in-flight temps carry it in
/// their name: neither is a function of the input.
fn is_artifact(name: &str) -> bool {
    name != "journal.utj" && !name.contains(".tmp.")
}

/// The workload's inputs inside its publish directory, which a rep reads
/// and the clean-up before it keeps.
fn is_input(w: Workload, name: &str) -> bool {
    matches!(w, Workload::Deep4 | Workload::Wide256)
        && (name.ends_with(".raw") || name == "threads.utt" || name == "profile.ute")
}

fn files_in(dir: &Path) -> std::io::Result<Vec<String>> {
    let mut names = Vec::new();
    for e in std::fs::read_dir(dir)? {
        let e = e?;
        if e.file_type()?.is_file() {
            names.push(e.file_name().to_string_lossy().into_owned());
        }
    }
    names.sort();
    Ok(names)
}

/// Puts the publish directory back to its pre-rep state.
pub fn reset(w: Workload) -> std::io::Result<()> {
    let dir = Path::new(w.publish_dir());
    if w == Workload::Pipe4 {
        // `ute pipeline` creates its `--out`.
        return match std::fs::remove_dir_all(dir) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        };
    }
    for name in files_in(dir)? {
        if !is_input(w, &name) {
            std::fs::remove_file(dir.join(name))?;
        }
    }
    Ok(())
}

fn fnv_mix(h: &mut u64, bytes: &[u8]) {
    *h = (*h ^ ute_store::fnv64(bytes)).wrapping_mul(0x0000_0100_0000_01b3);
}

/// Sum of `E` over the converter's `node N: E events → …` lines.
fn events_in(output: &str) -> u64 {
    output
        .lines()
        .filter_map(|l| {
            let (_, rest) = l.strip_prefix("node ")?.split_once(": ")?;
            rest.split_once(" events ")?.0.parse::<u64>().ok()
        })
        .sum()
}

impl Rep {
    /// `secs` of this rep in calibrated seconds: what they would have
    /// been had the calibration kernel taken [`CALIB_NOMINAL_S`] then.
    pub fn calibrated(&self, secs: f64) -> f64 {
        secs * CALIB_NOMINAL_S / self.calib_s
    }
}

/// [`run`] with the calibration kernel timed before and after it.
pub fn run_calibrated(p: &Prepared, jobs: usize) -> std::io::Result<Rep> {
    // Cleared now, so that nothing sits between the kernel and the commands.
    reset(p.workload)?;
    let before = calibrate();
    let mut rep = run(p, jobs, |_, _, _| {})?;
    rep.calib_s = (before + calibrate()) / 2.0;
    Ok(rep)
}

/// Runs one rep of `p` at `--jobs jobs`. `on_command` sees each command
/// with its start and end instants — the traced run's span hook; the
/// timed run passes a no-op.
pub fn run(
    p: &Prepared,
    jobs: usize,
    mut on_command: impl FnMut(&Cmd, Instant, Instant),
) -> std::io::Result<Rep> {
    let w = p.workload;
    let script = p.script(jobs);
    reset(w)?;

    let mut outputs: Vec<Result<String, String>> = Vec::with_capacity(script.len());
    let mut cli_s = [0.0; CMD_KINDS.len()];
    let before = ProcSample::now()?;
    let allocs_before = alloc::sample();
    let start = Instant::now();
    let mut t0 = start;
    for c in &script {
        let out = ute_cli::run(&c.argv);
        let t1 = Instant::now();
        on_command(c, t0, t1);
        let kind = CMD_KINDS
            .iter()
            .position(|k| *k == c.kind)
            .expect("listed kind");
        cli_s[kind] += (t1 - t0).as_secs_f64();
        outputs.push(out.map_err(|e| e.to_string()));
        t0 = t1;
    }
    let wall_s = (t0 - start).as_secs_f64();
    let peak_live = alloc::peak_since_sample().saturating_sub(allocs_before.live);
    let allocs_after = alloc::sample();
    let proc = ProcSample::now()?.since(&before);

    // Everything below is the gate, outside the timed region.
    let mut rep = Rep {
        wall_s,
        calib_s: 0.0,
        proc,
        cli_s,
        commands: script.len() as u64,
        artifact_bytes: 0,
        hash: 0xcbf2_9ce4_8422_2325,
        events_in: 0,
        findings: Vec::new(),
        error: None,
        allocs: Allocs {
            count: allocs_after.count - allocs_before.count,
            bytes: allocs_after.bytes - allocs_before.bytes,
            peak_live,
        },
    };
    for (c, out) in script.iter().zip(&outputs) {
        let text = match out {
            Ok(t) => t,
            Err(e) => {
                rep.error
                    .get_or_insert(format!("`ute {}` failed: {e}", c.argv.join(" ")));
                continue;
            }
        };
        rep.artifact_bytes += text.len() as u64;
        fnv_mix(&mut rep.hash, text.as_bytes());
        rep.events_in += events_in(text);
        if c.argv.iter().any(|a| a == "--json") {
            match Json::parse(text) {
                Ok(j) => rep.findings.push(
                    j.get("findings")
                        .and_then(Json::as_arr)
                        .map_or(0, |f| f.len() as u64),
                ),
                Err(e) => {
                    rep.error
                        .get_or_insert(format!("`ute {}`: {e}", c.argv.join(" ")));
                }
            }
        }
    }
    let dir = Path::new(w.publish_dir());
    for name in files_in(dir)? {
        if is_input(w, &name) || !is_artifact(&name) {
            continue;
        }
        let bytes = std::fs::read(dir.join(&name))?;
        rep.artifact_bytes += bytes.len() as u64;
        fnv_mix(&mut rep.hash, name.as_bytes());
        fnv_mix(&mut rep.hash, &bytes);
    }
    if w.ingests() && rep.events_in != p.events_cut && rep.error.is_none() {
        rep.error = Some(format!(
            "convert read {} raw events, the simulator cut {}",
            rep.events_in, p.events_cut
        ));
    }
    Ok(rep)
}

/// Why `rep` disagrees with the reference rep of the same input, if it
/// does: every rep must publish the same bytes and find the same things.
pub fn mismatch(reference: &Rep, rep: &Rep) -> Option<String> {
    if let Some(e) = &rep.error {
        return Some(e.clone());
    }
    if rep.hash != reference.hash || rep.artifact_bytes != reference.artifact_bytes {
        return Some(format!(
            "artifacts differ from the first rep's: hash {:016x} ({} bytes) vs {:016x} ({} bytes)",
            rep.hash, rep.artifact_bytes, reference.hash, reference.artifact_bytes
        ));
    }
    if rep.findings != reference.findings {
        return Some(format!(
            "finding counts {:?} differ from the first rep's {:?}",
            rep.findings, reference.findings
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converter_lines_are_summed_and_other_lines_ignored() {
        let out = "traced scaling: 4 nodes, 300 records, 1.0s simulated\n\
                   node 0: 100 events → 90 intervals (1234 bytes)\n\
                   node 1: 200 events → 180 intervals (2345 bytes)\n\
                   merged 2 files: 270 records in, 275 out (5 pseudo)\n  \
                   node 0: ratio 1.000000001 from 3 samples\n";
        assert_eq!(events_in(out), 300);
        assert_eq!(events_in("=== mpi_by_routine ===\n"), 0);
    }

    #[test]
    fn journal_and_temps_are_not_artifacts() {
        assert!(is_artifact("merged.ivl"));
        assert!(!is_artifact("journal.utj"));
        assert!(!is_artifact("run.slog.tmp.4242"));
        assert!(is_input(Workload::Deep4, "trace.3.raw"));
        assert!(!is_input(Workload::Deep4, "trace.3.ivl"));
        assert!(!is_input(Workload::Pipe4, "trace.3.raw"));
    }

    fn sample() -> Rep {
        Rep {
            wall_s: 1.2034,
            calib_s: 0.0213,
            proc: ProcSample {
                user_s: 1.5,
                sys_s: 0.25,
                minor_faults: 12345,
                read_bytes: 1 << 33,
                write_bytes: 77,
                rw_syscalls: 900,
                vol_ctx_switches: 41,
                vm_hwm_kb: 263_000,
            },
            cli_s: std::array::from_fn(|i| i as f64 / 8.0),
            commands: 19,
            artifact_bytes: 123_456_789,
            hash: 0xfedc_ba98_7654_3210,
            events_in: 381_244,
            findings: vec![3, 0, 7],
            error: Some("a \"quoted\"\nreason".to_string()),
            allocs: Allocs::default(),
        }
    }

    #[test]
    fn a_rep_survives_the_trip_through_a_child_process() {
        let rep = sample();
        let back = Rep::from_json(&Json::parse(&rep.to_json()).unwrap()).unwrap();
        assert_eq!(format!("{back:?}"), format!("{rep:?}"));
        assert!(Rep::from_json(&Json::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn calibrated_seconds_scale_with_the_kernels_time() {
        assert!(calibrate() > 0.0);
        let mut rep = Rep::from_json(&Json::parse(&sample().to_json()).unwrap()).unwrap();
        rep.calib_s = 2.0 * CALIB_NOMINAL_S;
        assert!((rep.calibrated(3.0) - 1.5).abs() < 1e-12);
    }
}
