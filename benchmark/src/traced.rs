//! The `--trace 1` run: the per-layer metrics.
//!
//! After the same set-up as the untraced run it takes three views of the
//! workload and keeps them apart:
//!
//! 1. reference reps in fresh processes of the *untraced* binary, at
//!    `--jobs 2` and at `--jobs 1` — the `cli.*`, `proc.*` and harness
//!    noise figures, and the single-threaded baseline;
//! 2. traced reps in this process — a span around every CLI command, the
//!    counting allocator live — whose wall time over the reference median
//!    is the tracing overhead;
//! 3. layer passes ([`crate::layers::pass`]), one after each traced rep,
//!    one per five seconds of `--seconds`: a pass does about five reps'
//!    worth of work.
//!
//! Nothing measured here feeds an end-to-end number.

use std::path::Path;

use crate::harness::{
    noise_guard, set_up, spawn_child, Environment, Error, Options, Report, WorkDir, UNTRACED_BIN,
};
use crate::json;
use crate::layers::{self, PassMetrics, ReplaySecs};
use crate::metrics::{unit_of, PER_LAYER};
use crate::rep::{self, Rep};
use crate::span::Tracer;
use crate::summary::median;
use crate::workloads::{Workload, CMD_KINDS, JOBS};

/// Untraced reference reps at `--jobs 2` / at `--jobs 1`.
const REFERENCE_REPS: usize = 5;
const SERIAL_REPS: usize = 3;
/// Seconds of `--seconds` per traced rep and layer pass.
const SECONDS_PER_PASS: u32 = 5;
/// A command's replay must account for this share of the command, or the
/// replay no longer does what the command does. The run fails when every
/// pair of it says so: one pair — two measurements a few seconds apart —
/// reads anything from 0.5 to 2 for unchanged code on this class of
/// machine, while the medians sit in 0.8–1.2 (README, "The traced run").
const COVERAGE: std::ops::RangeInclusive<f64> = 0.667..=1.5;

fn medians(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

pub fn run_traced(opts: &Options) -> Result<Report, Error> {
    let work = WorkDir::enter(&opts.out_dir)?;
    let env = Environment::begin(work.path());
    let w = opts.workload;
    let (n_ref, n_serial, n_passes) = if opts.smoke {
        (2, 1, 1)
    } else {
        (
            REFERENCE_REPS,
            SERIAL_REPS,
            opts.seconds.div_ceil(SECONDS_PER_PASS) as usize,
        )
    };
    let mut setup = set_up(opts, 1)?;
    let p = setup.prepared.clone();
    let records = p.records as f64;
    let mut attempted = 0;
    let mut failed = 0;
    let mut gate = |what: &str, reps: &[Rep], errors: &mut Vec<String>| {
        for (i, r) in reps.iter().enumerate() {
            attempted += r.commands;
            if let Some(why) = rep::mismatch(&setup.reference, r) {
                failed += r.commands;
                errors.push(format!("{what} rep {}: {why}", i + 1));
            }
        }
    };

    // 1. The untraced binary, in fresh processes.
    let untraced = std::env::current_exe()?.with_file_name(UNTRACED_BIN);
    let reference = spawn_child(&untraced, &p, JOBS, n_ref, true)?;
    gate("--jobs 2 reference", &reference, &mut setup.errors);
    // The single-threaded baseline must publish the very same bytes.
    let serial = spawn_child(&untraced, &p, 1, n_serial, true)?;
    gate("--jobs 1", &serial, &mut setup.errors);

    // 2 and 3. A traced rep here, then a layer pass over the same input,
    // and again: what a command's replay accounts for is taken pair by
    // pair, from two measurements seconds apart, because the machine's
    // speed drifts by a tenth over a run.
    let mut tracer = Tracer::new();
    let mut traced = Vec::with_capacity(n_passes);
    let mut passes: Vec<(PassMetrics, ReplaySecs)> = Vec::with_capacity(n_passes);
    for _ in 0..n_passes {
        let rep = tracer.group("cli", "rep", |t| {
            rep::run(&p, JOBS, |c, t0, t1| {
                t.record("cli", &format!("cli.{}", c.kind), t0, t1)
            })
        })?;
        traced.push(rep);
        passes.push(layers::pass(&mut tracer, &p)?);
    }
    gate("traced", &traced, &mut setup.errors);

    // ---- The per-layer table.
    let mut table: Vec<(&'static str, f64)> = Vec::with_capacity(PER_LAYER.len());
    let wall_ref = medians(&reference, |r| r.wall_s);
    let (calib_spread, rep_iqr_ratio) = noise_guard(w, &reference);
    let pass_metric = |name: &str| -> f64 {
        median(
            &passes
                .iter()
                .filter_map(|(m, _)| m.get(name).copied())
                .collect::<Vec<_>>(),
        )
    };
    // What the layer spans account for, command by command, both sides
    // under the counting allocator.
    let (mut covered, mut spent) = (0.0, 0.0);
    for (i, kind) in CMD_KINDS.iter().enumerate() {
        if traced[0].cli_s[i] == 0.0 || !passes[0].1.contains_key(kind) {
            continue;
        }
        let pairs: Vec<f64> = std::iter::zip(&traced, &passes)
            .map(|(rep, (_, replay))| replay[kind] / rep.cli_s[i])
            .collect();
        let ratio = median(&pairs);
        println!("# {} coverage {kind} {ratio:.3} {pairs:.3?}", w.name());
        // Smoke inputs are too small for the ratio to mean anything: a
        // command's fixed costs, which no layer owns, are most of it.
        let all = |side: fn(f64) -> bool| pairs.iter().all(|r| side(*r));
        if !opts.smoke && (all(|r| r < *COVERAGE.start()) || all(|r| r > *COVERAGE.end())) {
            setup.errors.push(format!(
                "the layer spans account for {pairs:.3?} of `{kind}`, every time outside {COVERAGE:?}"
            ));
        }
        let cli = medians(&traced, |r| r.cli_s[i]);
        covered += ratio * cli;
        spent += cli;
    }

    for (name, _, _) in PER_LAYER {
        let (layer, rest) = name.split_once('.').expect("layer.metric");
        let v = match (layer, rest) {
            ("cli", rest) => {
                let kind = rest.strip_suffix("_s").expect("cli.<kind>_s");
                let i = CMD_KINDS
                    .iter()
                    .position(|k| *k == kind)
                    .expect("listed kind");
                medians(&reference, |r| r.cli_s[i])
            }
            ("proc", "user_s") => medians(&reference, |r| r.proc.user_s),
            ("proc", "sys_s") => medians(&reference, |r| r.proc.sys_s),
            ("proc", "minor_faults") => medians(&reference, |r| r.proc.minor_faults as f64),
            ("proc", "read_bytes_per_record") => {
                medians(&reference, |r| r.proc.read_bytes as f64) / records
            }
            ("proc", "write_bytes_per_record") => {
                medians(&reference, |r| r.proc.write_bytes as f64) / records
            }
            ("proc", "rw_syscalls") => medians(&reference, |r| r.proc.rw_syscalls as f64),
            ("proc", "vol_ctx_switches") => medians(&reference, |r| r.proc.vol_ctx_switches as f64),
            ("alloc", "count_per_record") => medians(&traced, |r| r.allocs.count as f64) / records,
            ("alloc", "bytes_per_record") => medians(&traced, |r| r.allocs.bytes as f64) / records,
            ("alloc", "peak_live_mb") => {
                medians(&traced, |r| r.allocs.peak_live as f64) / 1048576.0
            }
            ("harness", "calib_s") => medians(&reference, |r| r.calib_s),
            ("harness", "calib_spread") => calib_spread,
            ("harness", "rep_iqr_ratio") => rep_iqr_ratio,
            ("harness", "trace_overhead_ratio") => medians(&traced, |r| r.wall_s) / wall_ref,
            ("harness", "layer_coverage") => covered / spent,
            // The two sets of reps ran seconds apart: calibrated seconds.
            ("pipeline", "rep_speedup_j2") => {
                medians(&serial, |r| r.calibrated(r.wall_s))
                    / medians(&reference, |r| r.calibrated(r.wall_s))
            }
            _ => pass_metric(name),
        };
        table.push((name, v));
    }

    println!(
        "# {} seed {} records {} reference_reps {} serial_reps {} traced_reps_and_passes {}",
        w.name(),
        opts.seed,
        p.records,
        reference.len(),
        serial.len(),
        passes.len()
    );
    env.end();
    write_trace(work.out_dir(), w, opts.seed, &tracer, &table)?;
    let report = Report::new(&mut setup.errors, attempted, failed, table);
    report.print(w, &setup.errors);
    Ok(report)
}

/// `<out>/trace-<workload>.json`: every span, and the layer table.
fn write_trace(
    out_dir: &Path,
    w: Workload,
    seed: u64,
    tracer: &Tracer,
    table: &[(&'static str, f64)],
) -> Result<(), Error> {
    let layers: Vec<String> = table
        .iter()
        .map(|(name, v)| {
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(name),
                json::num(*v),
                json::quote(unit_of(name).unwrap_or(""))
            )
        })
        .collect();
    let doc = format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"layers\": {{\n{}\n  }},\n  \"spans\": {}\n}}\n",
        json::quote(w.name()),
        seed,
        layers.join(",\n"),
        tracer.to_json()
    );
    let path = out_dir.join(format!("trace-{}.json", w.name()));
    std::fs::write(&path, doc)?;
    println!("# {} trace {}", w.name(), path.display());
    Ok(())
}
