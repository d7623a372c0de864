//! A pipelined wavefront traced end to end, showing the message arrows
//! marching diagonally across thread timelines, and the interval-file
//! reader working on the merged file as a mapping, without copying it.
//!
//! Run with: `cargo run --example wavefront_arrows`

use ute::cluster::Simulator;
use ute::convert::{convert_job_pooled, ConvertOptions};
use ute::core::mmap::map_file;
use ute::core::pool::default_jobs;
use ute::format::file::IntervalFileReader;
use ute::format::profile::Profile;
use ute::format::RecordFields;
use ute::merge::{merge_files, slogmerge, MergeOptions};
use ute::slog::builder::BuildOptions;
use ute::slog::record::SlogRecord;
use ute::view::model::{build_view, ViewConfig};
use ute::workloads::patterns::wavefront;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let w = wavefront(6, 10, 16 << 10);
    println!("tracing a 6-rank, 10-sweep pipelined wavefront …");
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

    // Visualization: the arrows form diagonals, one per sweep front.
    let (slog, _) = slogmerge(
        &files,
        &profile,
        &MergeOptions::default(),
        BuildOptions::default(),
    )?;
    let view = build_view(
        &slog,
        &ViewConfig {
            hide_running: true,
            ..ViewConfig::default()
        },
    )?;
    print!("{}", ute::view::ascii::render(&view, 110));
    let arrows: usize = slog
        .frames
        .iter()
        .flat_map(|f| &f.records)
        .filter(|r| matches!(r, SlogRecord::Arrow(a) if !a.pseudo))
        .count();
    println!("\n{arrows} message arrows (expected 5 hops x 10 sweeps = 50)");
    assert_eq!(arrows, 50);

    // The reader over a mapping: write the merged file to disk and walk
    // it record by record, each one viewed in place in the mapped file.
    let merged = merge_files(&files, &profile, &MergeOptions::default())?;
    let dir = std::path::Path::new("target/examples");
    std::fs::create_dir_all(dir)?;
    let path = dir.join("wavefront_merged.ivl");
    std::fs::write(&path, &merged.merged)?;
    let bytes = map_file(&path)?;
    let reader = IntervalFileReader::open(&bytes, &profile)?;
    let total = reader.total_records()?;
    let mut mpi_time = 0u64;
    for rec in reader.records() {
        let rec = rec?;
        if rec.itype().state.as_mpi().is_some() {
            mpi_time += rec.duration();
        }
    }
    println!(
        "streamed {} records from {} ({} bytes); total MPI time {:.3} ms",
        total,
        path.display(),
        merged.merged.len(),
        mpi_time as f64 / 1e6
    );
    Ok(())
}
