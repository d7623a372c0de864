//! The FLASH scenario of Figures 6 and 7: trace a phased adaptive-mesh-
//! style run, build the SLOG preview, locate the interesting time ranges
//! (Figure 6's reading), and display one frame from the busy middle phase
//! (Figure 7's workflow: preview → pick an instant → frame display).
//!
//! Run with: `cargo run --example flash_preview`

use ute::cluster::Simulator;
use ute::convert::{convert_job_pooled, ConvertOptions};
use ute::core::pool::default_jobs;
use ute::format::file::IntervalFileReader;
use ute::format::profile::Profile;
use ute::merge::{merge_files, slogmerge, MergeOptions};
use ute::slog::builder::BuildOptions;
use ute::stats::predefined::predefined_tables;
use ute::stats::run_tables;
use ute::stats::viewer::heatmap_ascii;
use ute::view::model::{frame_view, ViewConfig};
use ute::view::preview::{interesting_ranges, render_ascii};
use ute::workloads::flash::{workload, FlashParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let w = workload(FlashParams::default());
    println!("tracing FLASH-like job ({} nodes) …", w.config.nodes);
    let result = Simulator::new(w.config, &w.job)?.run()?;

    let profile = Profile::standard();
    let converted = convert_job_pooled(
        &result.raw_files,
        &result.threads,
        &profile,
        &ConvertOptions::default(),
        default_jobs(),
    )?;
    let files: Vec<&[u8]> = converted
        .iter()
        .map(|c| c.interval_file.as_slice())
        .collect();

    // Figure 7's smaller window: the whole-run preview.
    let (slog, _) = slogmerge(
        &files,
        &profile,
        &MergeOptions::default(),
        BuildOptions {
            nframes: 32,
            preview_bins: 64,
            arrows: true,
        },
    )?;
    println!("\n=== Figure 7: whole-run preview ===");
    print!("{}", render_ascii(&slog.preview, 8));
    let ranges = interesting_ranges(&slog.preview, 0.2);
    println!("interesting time ranges (the Figure 6 reading):");
    for (a, b) in &ranges {
        println!("  {a:.3}s – {b:.3}s");
    }
    assert!(
        ranges.len() >= 3,
        "the FLASH shape should show ≥3 busy phases, found {ranges:?}"
    );

    // "The user has selected a time instant in this middle section which
    // causes the display of the data in the frame containing this
    // instant."
    let middle = (ranges[1].0 + ranges[1].1) / 2.0;
    let t = (middle * 1e9) as u64;
    let frame = frame_view(&slog, t, &ViewConfig::default())?;
    println!(
        "\n=== frame containing t = {middle:.3}s ({} bars, {} arrows) ===",
        frame.bars.len(),
        frame.arrows.len()
    );
    print!("{}", ute::view::ascii::render(&frame, 100));

    // Figure 6 proper: the pre-defined statistics table rendered as a
    // heat map (sum of interesting durations per node × 50 time bins).
    let merged = merge_files(&files, &profile, &MergeOptions::default())?;
    let reader = IntervalFileReader::open(&merged.merged, &profile)?;
    let intervals: Result<Vec<_>, _> = reader.intervals().collect();
    let tables = run_tables(&predefined_tables(), &profile, &intervals?)?;
    let fig6 = tables
        .iter()
        .find(|t| t.name == "interesting_by_node_bin")
        .expect("predefined table exists");
    println!("\n=== Figure 6: statistics viewer ===");
    print!("{}", heatmap_ascii(fig6, 0)?);
    Ok(())
}
