//! Profiling overhead gate for the convert → merge path the CLI runs
//! (`convert_nodes` over views of the raw bytes, then `merge_files_jobs`
//! over its files), in memory so no disk I/O enters the denominator.
//!
//! Two measurements, the same interleaved A/B discipline as the obs
//! overhead ablation (alternating runs so drift hits both arms):
//!
//! * **off-state bound** — spans are always compiled in; with capture
//!   off, a span reads no clock, allocates nothing and takes no lock.
//!   The gate bounds its cost from above: microbenchmark the *full*
//!   cost of an open+close span cycle with capture off, multiply by the
//!   spans one run creates, and require that ceiling to stay under 3%
//!   of the run's wall time.
//! * **on-state delta** — median run time with capture on (CPU clock
//!   reads, stage slots, the log append — everything `ute profile`
//!   costs while the pipeline runs; the fold happens afterwards) vs
//!   off, reported for trend-watching, never gated (it is inherently
//!   noisier and capture is opt-in).
//!
//! Run: `cargo run -p ute-bench --release --bin profile_overhead [-- --smoke] [-- --check]`
//!
//! * `--smoke` — smaller workload and fewer repetitions (CI).
//! * `--check` — exit non-zero if the off-state ceiling reaches 3%.

use std::time::Instant;

use ute_cluster::Simulator;
use ute_convert::{convert_nodes, ConvertOptions};
use ute_format::profile::Profile;
use ute_merge::{merge_files_jobs, MergeOptions};
use ute_rawtrace::RawTraceView;
use ute_workloads::micro;

fn median(mut v: Vec<u64>) -> u64 {
    v.sort_unstable();
    v[v.len() / 2]
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let smoke = argv.iter().any(|a| a == "--smoke");
    let check = argv.iter().any(|a| a == "--check");

    let (nodes, steps, bytes, reps) = if smoke {
        (6u32, 256u32, 8u64 << 10, 5u32)
    } else {
        (8, 384, 16 << 10, 9)
    };
    let w = micro::stencil(nodes, steps, bytes);
    let result = Simulator::new(w.config, &w.job)
        .unwrap()
        .run_bytes()
        .unwrap();
    let profile = Profile::standard();
    let copts = ConvertOptions::default();
    let mopts = MergeOptions::default();
    let jobs = ute_core::pool::default_jobs().max(2);

    let run = || {
        let t = Instant::now();
        let views: Vec<RawTraceView> = (result.raw_bytes.iter())
            .map(|b| RawTraceView::open(b).unwrap())
            .collect();
        let converted = convert_nodes(&views, &result.threads, &profile, &copts, jobs).unwrap();
        let refs: Vec<&[u8]> = converted
            .iter()
            .map(|c| c.interval_file.as_slice())
            .collect();
        merge_files_jobs(&refs, &profile, &mopts, jobs).unwrap();
        t.elapsed().as_nanos() as u64
    };

    // Count the spans one run opens (the off-state check runs once
    // per open of each of these).
    ute_obs::span::set_capture(true);
    ute_obs::span::drain_spans();
    run();
    let spans_per_run = ute_obs::span::drain_spans().len() as u64;
    ute_obs::span::set_capture(false);

    // Interleaved A/B: off, on, off, on, ... so clock drift and cache
    // state hit both arms equally.
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        off.push(run());
        ute_obs::span::set_capture(true);
        on.push(run());
        ute_obs::span::set_capture(false);
        ute_obs::span::drain_spans();
    }
    let off_ns = median(off);
    let on_ns = median(on);

    // Upper bound on the compiled-in-but-off cost: the full open+close
    // cycle (span id, thread span stack, the capture check) times the
    // spans per run.
    let cycles = 200_000u64;
    let t = Instant::now();
    for _ in 0..cycles {
        let _s = ute_obs::Span::enter("bench-profile-overhead", "unit");
    }
    let span_cycle_ns = t.elapsed().as_nanos() as u64 / cycles;

    let ceiling_ns = spans_per_run * span_cycle_ns;
    let ceiling_pct = ceiling_ns as f64 / off_ns as f64 * 100.0;
    let on_delta_pct = (on_ns as f64 - off_ns as f64) / off_ns as f64 * 100.0;

    println!(
        "# profiling overhead, convert then merge (stencil, {nodes} nodes, median of {reps})\n"
    );
    println!("capture off:          {:>10.3} ms", off_ns as f64 / 1e6);
    println!(
        "capture on:           {:>10.3} ms  ({on_delta_pct:+.1}% vs off, report-only)",
        on_ns as f64 / 1e6
    );
    println!(
        "off-state ceiling:    {spans_per_run} span(s)/run x {span_cycle_ns} ns full cycle \
         = {:.3} ms ({ceiling_pct:.2}% of run time)",
        ceiling_ns as f64 / 1e6
    );

    if check && ceiling_pct >= 3.0 {
        eprintln!(
            "FAIL: off-state span ceiling {ceiling_pct:.2}% >= 3% of run time \
             ({ceiling_ns} ns over {off_ns} ns)"
        );
        std::process::exit(1);
    }
    println!("\noff-state overhead gate (<3%): ok");
}
