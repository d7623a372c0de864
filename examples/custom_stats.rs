//! Writing a custom statistics program in the paper's declarative table
//! language (§3.2), against a halo-exchange stencil trace.
//!
//! Run with: `cargo run --example custom_stats`

use ute::cluster::Simulator;
use ute::convert::{convert_job_pooled, ConvertOptions};
use ute::core::pool::default_jobs;
use ute::format::file::IntervalFileReader;
use ute::format::profile::Profile;
use ute::merge::{merge_files, MergeOptions};
use ute::stats::{parse_program, run_tables};
use ute::workloads::micro::stencil;

const PROGRAM: &str = r#"
# The paper's example: average duration per (node, cpu) of intervals that
# started during the first 2 seconds.
table name=sample
      condition=(start < 2)
      x=("node", node)
      x=("processor", cpu)
      y=("avg(duration)", dura, avg)

# Message volume per (sender node, destination rank).
table name=traffic
      condition=(state >= 256 && msgSizeSent > 0)
      x=("node", node)
      x=("peer", peer)
      y=("bytes", msgSizeSent, sum)
      y=("messages", msgSizeSent, count)

# How much of each second is spent inside MPI, per node.
table name=mpi_per_second
      condition=(state >= 256)
      x=("node", node)
      x=("second", bin(start, 10))
      y=("mpi time", dura, sum)
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let w = stencil(4, 20, 32 << 10);
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
    let merged = merge_files(&files, &profile, &MergeOptions::default())?;
    let reader = IntervalFileReader::open(&merged.merged, &profile)?;
    let intervals: Result<Vec<_>, _> = reader.intervals().collect();
    let intervals = intervals?;

    let specs = parse_program(PROGRAM)?;
    let tables = run_tables(&specs, &profile, &intervals)?;
    for t in &tables {
        println!("=== {} ===", t.name);
        print!("{}", t.to_tsv());
        println!();
    }

    // Sanity: every rank sends 20 steps × 2 neighbours × 32 KiB.
    let traffic = tables.iter().find(|t| t.name == "traffic").unwrap();
    let total: f64 = traffic.rows.values().map(|ys| ys[0]).sum();
    assert_eq!(total as u64, 4 * 20 * 2 * (32 << 10));
    println!("traffic table sums to the expected 4×20×2×32 KiB.");
    Ok(())
}
