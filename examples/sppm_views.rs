//! The sPPM scenario of Figures 8 and 9: trace a 4-node × 8-way-SMP run
//! with four threads per task (one making MPI calls), merge into SLOG,
//! and render the thread-activity and processor-activity views.
//!
//! Run with: `cargo run --example sppm_views`
//! SVG output lands in `target/examples/`.

use ute::cluster::Simulator;
use ute::convert::{convert_job_pooled, ConvertOptions};
use ute::core::pool::default_jobs;
use ute::format::profile::Profile;
use ute::merge::{slogmerge, MergeOptions};
use ute::slog::builder::BuildOptions;
use ute::view::ascii;
use ute::view::model::{build_view, ViewConfig, ViewKind};
use ute::view::svg::{render as render_svg, SvgOptions};
use ute::workloads::sppm::{workload, SppmParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let w = workload(SppmParams::default());
    println!(
        "tracing sPPM-like job: {} nodes × {}-way SMP, {} threads/task",
        w.config.nodes, w.config.cpus_per_node, w.config.threads_per_task
    );
    let cpus = w.config.cpus_per_node;
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
    let (slog, stats) = slogmerge(
        &files,
        &profile,
        &MergeOptions::default(),
        BuildOptions::default(),
    )?;
    println!(
        "slogmerge: {} records merged into {} frames",
        stats.records_out,
        slog.frames.len()
    );

    let out_dir = std::path::Path::new("target/examples");
    std::fs::create_dir_all(out_dir)?;

    // Figure 8: thread-activity view. One timeline per thread; the idle
    // worker thread and the system activity on non-MPI threads are
    // visible.
    let thread_view = build_view(
        &slog,
        &ViewConfig {
            kind: ViewKind::ThreadActivity,
            hide_running: false,
            ..ViewConfig::default()
        },
    )?;
    println!("\n=== Figure 8: thread-activity view ===");
    print!("{}", ascii::render(&thread_view, 110));
    std::fs::write(
        out_dir.join("fig8_thread_activity.svg"),
        render_svg(&thread_view, &SvgOptions::default()),
    )?;

    // Figure 9: processor-activity view. One timeline per CPU; with 8
    // CPUs per node and only a few busy threads, most CPU rows are idle,
    // and MPI threads hop between CPUs.
    let cpu_view = build_view(
        &slog,
        &ViewConfig {
            kind: ViewKind::ProcessorActivity,
            cpus_per_node: Some(cpus),
            ..ViewConfig::default()
        },
    )?;
    println!("\n=== Figure 9: processor-activity view ===");
    print!("{}", ascii::render(&cpu_view, 110));
    std::fs::write(
        out_dir.join("fig9_processor_activity.svg"),
        render_svg(&cpu_view, &SvgOptions::default()),
    )?;

    // Bonus: thread-processor view shows the migration directly.
    let migration_view = build_view(
        &slog,
        &ViewConfig {
            kind: ViewKind::ThreadProcessor,
            hide_running: false,
            ..ViewConfig::default()
        },
    )?;
    std::fs::write(
        out_dir.join("thread_processor.svg"),
        render_svg(&migration_view, &SvgOptions::default()),
    )?;
    println!(
        "\nwrote {}/fig8_thread_activity.svg, fig9_processor_activity.svg, thread_processor.svg",
        out_dir.display()
    );
    Ok(())
}
