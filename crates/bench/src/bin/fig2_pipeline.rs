//! Figure 2: "Trace generation and processing in the unified tracing
//! approach" — the control flow from compiled program to visualization.
//!
//! This harness runs every arrow of the figure as the shipped `ute`
//! command and prints what each one reports about the artifact it
//! produced: raw trace files (one per node), per-node interval files, the
//! merged interval file, the SLOG file, the statistics tables — and a
//! view rendered from the SLOG file read back.
//!
//! Run: `cargo run -p ute-bench --bin fig2_pipeline`

use ute_bench::RunDir;
use ute_core::mmap::map_file;
use ute_format::file::IntervalFileReader;
use ute_format::profile::Profile;
use ute_view::model::{build_view, ViewConfig};

fn main() {
    println!("# Figure 2 — the pipeline, stage by stage\n");
    println!("[source code] -> compile/link -> [program] -> execute ...");
    let run = RunDir::fresh("fig2_pipeline");
    // `scaling`'s node clocks drift and each node records its clock more
    // than once, so the merge fits every clock from several samples.
    let calls = run.pipeline("scaling", &[]);
    let heading = [
        "raw trace files (one per node)",
        "convert (event matching, marker unification)",
        "merge (clock alignment + loser-tree merge)",
        "SLOG format conversion",
        "statistics generation",
    ];
    let profile = Profile::read_from(&run.dir.join("profile.ute")).unwrap();
    let merged = map_file(&run.dir.join("merged.ivl")).unwrap();
    let reader = IntervalFileReader::open(&merged, &profile).unwrap();
    for ((name, call), heading) in calls.iter().zip(heading) {
        println!("\n-> {heading}: `ute {name}`");
        // `ute stats` prints each table whole; its headers and the files
        // it wrote are the artifact lines.
        let artifact =
            |l: &&str| *name != "stats" || l.starts_with("===") || l.starts_with("wrote");
        for line in call.text.lines().filter(artifact) {
            println!("   {line}");
        }
        match *name {
            "trace" => println!("   {} raw events in the trace files", run.raw_events()),
            "merge" => {
                println!(
                    "   merged.ivl reads back: {} records",
                    reader.records().count()
                );
                // `  node N: ratio R from K samples`: clock alignment must
                // have corrected a drift it measured more than once.
                let fitted = call.text.lines().filter_map(|l| {
                    let (_, fit) = l.split_once(": ratio ")?;
                    let (ratio, samples) = fit.split_once(" from ")?;
                    let samples = samples.strip_suffix(" samples")?;
                    Some((ratio.parse::<f64>().ok()?, samples.parse::<u32>().ok()?))
                });
                let drifts = fitted.filter(|&(r, k)| r != 1.0 && k > 1).count();
                assert!(drifts > 0, "no node's clock fit corrects a drift");
                println!("   {drifts} node clock(s) fitted to a drift from > 1 sample");
            }
            _ => {}
        }
    }

    println!("\n-> visualization:");
    let slog = run.slog();
    let view = build_view(&slog, &ViewConfig::default()).unwrap();
    println!(
        "   thread-activity view: {} timelines, {} bars, {} arrows",
        view.rows.len(),
        view.bars.len(),
        view.arrows.len()
    );
    assert!(slog.total_records() > 0 && !view.bars.is_empty());

    print!("\ncommand timings:");
    for (name, call) in &calls {
        print!(" {name} {:.3}s", call.secs);
    }
    println!("\n\n# OK: every Figure 2 stage produced its artifact");
}
