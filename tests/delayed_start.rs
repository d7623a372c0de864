//! Delayed trace start (§2.1): "The user can also delay trace generation
//! until a later point to trace only a portion of the code to
//! substantially reduce the amount of trace data."
//!
//! A delayed trace opens mid-execution: begin events and dispatches that
//! happened before the start are missing, so strict conversion refuses
//! the stream while lenient conversion clips the dangling states to the
//! trace's first timestamp and the rest of the pipeline proceeds.

use ute::cluster::Simulator;
use ute::convert::{convert_job_pooled, ConvertOptions};
use ute::core::time::LocalTime;
use ute::format::file::{FramePolicy, IntervalFileReader};
use ute::format::profile::Profile;
use ute::merge::{merge_files, MergeOptions};
use ute::rawtrace::buffer::TraceOptions;
use ute::workloads::micro::stencil;

#[test]
fn delayed_start_produces_fewer_events_and_lenient_convert_copes() {
    // Full trace first, for the baseline event count.
    let full = stencil(3, 12, 8 << 10);
    let full_res = Simulator::new(full.config.clone(), &full.job)
        .unwrap()
        .run()
        .unwrap();
    let full_events: usize = full_res.raw_files.iter().map(|f| f.events.len()).sum();

    // Same job, tracing delayed until 40% into the (local) run.
    let cutoff = full_res.stats.end_time.ticks() * 2 / 5;
    let mut delayed_cfg = full.config.clone();
    delayed_cfg.trace = TraceOptions {
        start_after: Some(LocalTime(cutoff)),
        ..TraceOptions::default()
    };
    let delayed_res = Simulator::new(delayed_cfg, &full.job)
        .unwrap()
        .run()
        .unwrap();
    let delayed_events: usize = delayed_res.raw_files.iter().map(|f| f.events.len()).sum();
    assert!(
        delayed_events < full_events * 8 / 10,
        "delaying the start should shed events: {delayed_events} vs {full_events}"
    );
    // Every surviving record is from after the cutoff.
    for f in &delayed_res.raw_files {
        for e in &f.events {
            assert!(e.timestamp.ticks() >= cutoff);
        }
    }

    let profile = Profile::standard();
    // Lenient conversion handles the partial stream.
    let outputs = convert_job_pooled(
        &delayed_res.raw_files,
        &delayed_res.threads,
        &profile,
        &ConvertOptions {
            policy: FramePolicy::default(),
            lenient: true,
            ..ConvertOptions::default()
        },
        1,
    )
    .unwrap();
    let clipped: u64 = outputs.iter().map(|o| o.stats.clipped_starts).sum();
    assert!(clipped > 0, "a mid-run start should clip some states");

    // The rest of the pipeline works on the partial trace.
    let per_node: Vec<Vec<u8>> = outputs.into_iter().map(|o| o.interval_file).collect();
    let refs: Vec<&[u8]> = per_node.iter().map(|f| f.as_slice()).collect();
    let merged = merge_files(&refs, &profile, &MergeOptions::default()).unwrap();
    let r = IntervalFileReader::open(&merged.merged, &profile).unwrap();
    assert!(r.total_records().unwrap() > 0);
}
