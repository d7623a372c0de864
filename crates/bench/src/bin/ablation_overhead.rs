//! Ablation: tracing overhead (§2.1).
//!
//! "Tracing overhead should be as small as possible." The paper prices a
//! record cut at a small fraction of a microsecond (parts 1+2) plus a
//! wrapper part, and offers the enable mask and delayed start as knobs to
//! shed data. This harness runs the same workload under different trace
//! configurations and reports records cut, modelled overhead, and the
//! perturbation of the simulated run time.
//!
//! Run: `cargo run -p ute-bench --bin ablation_overhead`

use ute_cluster::Simulator;
use ute_core::event::EventClass;
use ute_core::time::LocalTime;
use ute_rawtrace::buffer::TraceOptions;
use ute_rawtrace::cost::CostModel;
use ute_workloads::scaling::scaled_job;

fn run(label: &str, trace: TraceOptions) -> (u64, f64, f64) {
    let mut w = scaled_job(512);
    w.config.trace = trace;
    let res = Simulator::new(w.config, &w.job)
        .unwrap()
        .run_bytes()
        .unwrap();
    let events = res.stats.events_cut;
    let overhead = res.stats.trace_overhead.as_secs_f64();
    let end = res.stats.end_time.as_secs_f64();
    println!(
        "{label:<34} {events:>10} records  {:>9.1} us overhead  {end:>9.6} s runtime",
        overhead * 1e6
    );
    (events, overhead, end)
}

fn main() {
    println!("# Ablation — tracing overhead on the 4x4 test program (512 iterations)\n");
    let (full_ev, full_oh, full_end) = run("everything on (default)", TraceOptions::default());
    let (mpi_ev, mpi_oh, _) = run(
        "MPI + clock only (enable mask)",
        TraceOptions::default().with_classes(&[EventClass::Mpi, EventClass::Clock]),
    );
    let (free_ev, free_oh, free_end) = run(
        "everything on, zero-cost model",
        TraceOptions {
            cost: CostModel::free(),
            ..TraceOptions::default()
        },
    );
    let cutoff = LocalTime((full_end * 0.5 * 1e9) as u64);
    let (late_ev, _, _) = run(
        "delayed start (trace last half)",
        TraceOptions {
            start_after: Some(cutoff),
            ..TraceOptions::default()
        },
    );

    println!();
    // Enable mask sheds dispatch/system records — a large fraction.
    assert!(
        mpi_ev < full_ev * 2 / 3,
        "mask should shed records: {mpi_ev} vs {full_ev}"
    );
    assert!(mpi_oh < full_oh);
    // Delayed start sheds roughly half.
    assert!(
        late_ev < full_ev * 3 / 4,
        "delayed start should shed records: {late_ev} vs {full_ev}"
    );
    // Zero-cost tracing still cuts every record but charges nothing to
    // the overhead ledger.
    assert_eq!(free_ev, full_ev);
    assert_eq!(free_oh, 0.0);
    assert!(free_end <= full_end);
    let per_record = full_oh / full_ev as f64;
    println!(
        "# modelled cost per record: {:.0} ns (paper: 'a small fraction of one microsecond')",
        per_record * 1e9
    );
    assert!(per_record < 1e-6);
    println!("# OK: enable mask and delayed start shed data; overhead scales with records cut");
}
