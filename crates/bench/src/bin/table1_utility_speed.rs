//! Table 1: "Utility speed" — seconds per event for the convert and
//! slogmerge utilities across raw-event counts from ~40 K to ~11 M.
//!
//! Paper shape to reproduce: "the average speeds of the utilities remain
//! roughly unchanged while the number of raw events increases" — i.e. the
//! per-event cost is flat (the utilities are linear in trace size), and
//! slogmerge costs a small constant factor more than convert.
//!
//! Absolute numbers will differ from the paper's 2000-era PowerPC; the
//! claim under test is the *flatness*. Each size is traced by `ute trace`
//! and timed as the standalone `ute convert` and `ute slogmerge` a user
//! runs, published files and all; raw events are counted in the trace
//! files the first command wrote.
//!
//! Run: `cargo run -p ute-bench --bin table1_utility_speed --release`
//! (pass `--quick` to run only the first four sizes)

use ute_bench::RunDir;
use ute_workloads::scaling::{iterations_for_events, TABLE1_EVENT_COUNTS};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sizes = &TABLE1_EVENT_COUNTS[..if quick { 4 } else { 6 }];

    // Each utility's seconds per raw event, size by size. `ute merge` is
    // the half of slogmerge that `ute pipeline` runs once, building the
    // SLOG file from its output.
    let utilities: [(&str, &[&str]); 3] = [
        ("convert", &[]),
        ("merge", &["--out", "@merged.ivl"]),
        ("slogmerge", &["--out", "@run.slog"]),
    ];
    let mut raw_counts = Vec::new();
    let mut costs = vec![Vec::new(); utilities.len()];
    for &target in sizes {
        let run = RunDir::fresh("table1_utility_speed");
        let iterations = iterations_for_events(target).to_string();
        let trace = ["--workload", "scaling", "--iterations", &iterations];
        run.ute("trace", &[&trace[..], &["--out", "@"]].concat());
        let raw_events = run.raw_events() as f64;
        for ((cmd, out), costs) in utilities.iter().zip(&mut costs) {
            let args = [&["--in", "@", "--jobs", "1"][..], out].concat();
            costs.push(run.ute(cmd, &args).secs / raw_events);
        }
        raw_counts.push(raw_events as u64);
    }

    let deviation: Vec<f64> = (raw_counts.iter().zip(sizes))
        .map(|(&n, &paper)| (n as f64 / paper as f64 - 1.0) * 100.0)
        .collect();
    println!("# Table 1 — utility speed (sec/event), each `ute` utility at --jobs 1\n");
    let row = |label: &str, cells: Vec<String>| {
        let cells: String = cells.iter().map(|c| format!("{c:>14}")).collect();
        println!("{label:<24}{cells}");
    };
    row(
        "# raw events",
        raw_counts.iter().map(u64::to_string).collect(),
    );
    row(
        "  vs the paper's",
        deviation.iter().map(|d| format!("{d:+.2}%")).collect(),
    );
    for ((name, _), c) in utilities.iter().zip(&costs) {
        row(
            &format!("sec/event in {name}"),
            c.iter().map(|c| format!("{c:.9}")).collect(),
        );
    }

    // Shape checks: every size within 2 % of the paper's count, and each
    // utility's per-event cost roughly flat (within 4x across ≥100x
    // event-count growth; the paper saw ~1.1x for convert and ~1.4x for
    // slogmerge).
    assert!(
        deviation.iter().all(|d| d.abs() < 2.0),
        "sizes drifted from the paper's: {deviation:?} %"
    );
    println!();
    for ((name, _), c) in utilities.iter().zip(&costs) {
        let max = c.iter().cloned().fold(0.0, f64::max);
        let spread = max / c.iter().cloned().fold(f64::INFINITY, f64::min);
        println!("# {name} per-event cost spread: {spread:.2}x");
        assert!(spread < 4.0, "{name} cost is not flat: {c:?}");
    }
    println!("# OK: per-event cost stays roughly constant as traces grow");
}
