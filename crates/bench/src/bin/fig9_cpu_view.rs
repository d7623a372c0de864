//! Figure 9: "A processor-activity view of the ASCI sPPM benchmark" —
//! same run as Figure 8, timelines per CPU.
//!
//! Paper shape to reproduce: "one can see that the CPUs are mostly idle
//! (each horizontal line represents a CPU), and that the MPI threads for
//! processes 0 and 1 jump from one CPU to another on the same node".
//!
//! Run: `cargo run -p ute-bench --bin fig9_cpu_view`

use std::collections::{HashMap, HashSet};

use ute_bench::RunDir;
use ute_slog::record::SlogRecord;
use ute_view::model::{build_view, ViewConfig, ViewKind};
use ute_workloads::sppm::{workload, SppmParams};

fn main() {
    let cpus = workload(SppmParams::default()).config.cpus_per_node;
    let run = RunDir::fresh("fig9_cpu_view");
    run.pipeline("sppm", &[]);
    let slog = run.slog();
    let view = build_view(
        &slog,
        &ViewConfig {
            kind: ViewKind::ProcessorActivity,
            cpus_per_node: Some(cpus),
            ..ViewConfig::default()
        },
    )
    .unwrap();

    println!("# Figure 9 — processor-activity view of the sPPM-like run\n");
    run.show(&view, 110, "cpu_view.svg");

    // Shape checks against the caption.
    // 4 nodes × 8 CPUs = 32 timelines.
    assert_eq!(view.rows.len(), 32);
    // "CPUs are mostly idle": with 5 threads on each 8-way node, well
    // under half the CPU-seconds are used. Check both that at least a
    // third of the CPU rows are near-idle and that aggregate utilization
    // is below 50%.
    let mut busy = vec![0u64; view.rows.len()];
    for b in &view.bars {
        busy[b.row] += b.end - b.start;
    }
    let span = view.t1 - view.t0;
    let idle_cpus = busy.iter().filter(|&&b| b < span / 10).count();
    let total_busy: u64 = busy.iter().sum();
    let utilization = total_busy as f64 / (span as f64 * view.rows.len() as f64);
    assert!(
        idle_cpus >= 10,
        "expected mostly-idle CPUs, got {idle_cpus}/32"
    );
    assert!(
        utilization < 0.5,
        "aggregate CPU utilization {utilization:.2} too high"
    );

    // "MPI threads jump from one CPU to another": at least one MPI
    // thread's pieces appear on more than one CPU of its node.
    let mut cpus_of_thread: HashMap<u32, HashSet<(u16, u16)>> = HashMap::new();
    for f in &slog.frames {
        for r in &f.records {
            if let SlogRecord::State(s) = r {
                if !s.pseudo && s.state.as_mpi().is_some() {
                    cpus_of_thread
                        .entry(s.timeline)
                        .or_default()
                        .insert((s.node, s.cpu));
                }
            }
        }
    }
    let migrating = cpus_of_thread.values().filter(|s| s.len() > 1).count();
    assert!(
        migrating >= 1,
        "expected MPI-thread migration across CPUs, map: {cpus_of_thread:?}"
    );
    println!(
        "# OK: {idle_cpus}/32 CPUs near-idle ({:.0}% aggregate utilization), \
         {migrating} MPI thread(s) migrated between CPUs",
        utilization * 100.0
    );
}
