//! Cross-crate integration tests: the full Figure 2 pipeline, exercised
//! on several workloads with invariants checked at every stage boundary.

mod common;

use std::collections::HashMap;

use ute::cluster::Simulator;
use ute::convert::{convert_job_pooled, ConvertOptions};
use ute::core::bebits::{count_states, BeBits};
use ute::core::event::MpiOp;
use ute::format::file::{FramePolicy, IntervalFileReader};
use ute::format::profile::Profile;
use ute::format::record::Interval;
use ute::format::state::StateCode;
use ute::merge::{merge_files, slogmerge, MergeOptions};
use ute::slog::builder::BuildOptions;
use ute::slog::record::SlogRecord;
use ute::workloads::{flash, micro, sppm};

struct Pipeline {
    profile: Profile,
    per_node: Vec<Vec<u8>>,
    merged: Vec<u8>,
    slog: ute::slog::file::SlogFile,
}

fn run_pipeline(w: ute::workloads::Workload) -> Pipeline {
    let result = Simulator::new(w.config, &w.job).unwrap().run().unwrap();
    let profile = Profile::standard();
    let converted = convert_job_pooled(
        &result.raw_files,
        &result.threads,
        &profile,
        &ConvertOptions {
            policy: FramePolicy {
                max_records_per_frame: 64,
                max_frames_per_dir: 4,
            },
            ..ConvertOptions::default()
        },
        2,
    )
    .unwrap();
    let per_node: Vec<Vec<u8>> = converted.into_iter().map(|c| c.interval_file).collect();
    let refs: Vec<&[u8]> = per_node.iter().map(|f| f.as_slice()).collect();
    let merged = merge_files(&refs, &profile, &MergeOptions::default())
        .unwrap()
        .merged;
    let (slog, _) = slogmerge(
        &refs,
        &profile,
        &MergeOptions::default(),
        BuildOptions {
            nframes: 16,
            preview_bins: 32,
            arrows: true,
        },
    )
    .unwrap();
    Pipeline {
        profile,
        per_node,
        merged,
        slog,
    }
}

fn merged_intervals(p: &Pipeline) -> Vec<Interval> {
    let r = IntervalFileReader::open(&p.merged, &p.profile).unwrap();
    r.intervals().map(|iv| iv.unwrap()).collect()
}

#[test]
fn merged_stream_is_end_ordered_and_complete() {
    let p = run_pipeline(micro::stencil(4, 10, 16 << 10));
    let merged = merged_intervals(&p);
    assert!(!merged.is_empty());
    for w in merged.windows(2) {
        assert!(w[0].end() <= w[1].end(), "merge order violated");
    }
    // Merged record count = sum of per-node counts + frame pseudo records.
    let per_node_total: u64 = p
        .per_node
        .iter()
        .map(|f| {
            IntervalFileReader::open(f, &p.profile)
                .unwrap()
                .total_records()
                .unwrap()
        })
        .sum();
    assert!(merged.len() as u64 >= per_node_total);
}

#[test]
fn bebits_reassemble_into_whole_states_per_thread() {
    // The §1.2 invariant the format exists for: pieces of every state,
    // taken in order per (node, thread, state), must reassemble into
    // complete calls.
    let p = run_pipeline(sppm::workload(sppm::SppmParams {
        steps: 4,
        ..sppm::SppmParams::default()
    }));
    let merged = merged_intervals(&p);
    let mut sequences: HashMap<(u16, u16, u16), Vec<BeBits>> = HashMap::new();
    for iv in &merged {
        if iv.itype.state == StateCode::CLOCK
            || iv.duration == 0 && iv.itype.bebits == BeBits::Continuation
        {
            // Skip clock records and the merge utility's zero-duration
            // frame-head pseudo continuations: they are display hints,
            // not call pieces.
            continue;
        }
        sequences
            .entry((iv.node.raw(), iv.thread.raw(), iv.itype.state.0))
            .or_default()
            .push(iv.itype.bebits);
    }
    assert!(!sequences.is_empty());
    let mut mpi_calls = 0;
    for ((node, thread, state), seq) in &sequences {
        let states = count_states(seq);
        assert!(
            states.is_some(),
            "malformed piece sequence for node {node} thread {thread} state {state:#x}: {seq:?}"
        );
        if StateCode(*state).as_mpi().is_some() {
            mpi_calls += states.unwrap();
        }
    }
    // 4 ranks × 4 steps × (2 irecv + 2 isend + waitall + allreduce) plus
    // the marker-loop bookkeeping — at minimum 96 MPI calls.
    assert!(mpi_calls >= 96, "only {mpi_calls} MPI calls reassembled");
}

#[test]
fn clock_adjustment_aligns_collectives_across_nodes() {
    // All ranks leave an Allreduce at the same simulated instant; after
    // per-node clock adjustment their merged end times must agree far
    // more tightly than the raw drift would allow.
    let p = run_pipeline(micro::allreduce_sweep(4, 8));
    let merged = merged_intervals(&p);
    let allreduce = StateCode::mpi(MpiOp::Allreduce);
    let mut ends: Vec<Vec<u64>> = Vec::new();
    let mut by_count: HashMap<u16, usize> = HashMap::new();
    for iv in merged
        .iter()
        .filter(|iv| iv.itype.state == allreduce && iv.itype.bebits.ends_state())
    {
        let k = by_count.entry(iv.node.raw()).or_insert(0);
        if ends.len() <= *k {
            ends.resize(*k + 1, Vec::new());
        }
        ends[*k].push(iv.end());
        *k += 1;
    }
    let mut checked = 0;
    for round in &ends {
        if round.len() == 4 {
            let lo = *round.iter().min().unwrap();
            let hi = *round.iter().max().unwrap();
            // Raw drift between ±12/±26 ppm nodes over seconds would be
            // tens of µs; adjusted skew should stay under ~20 µs
            // (residual = fit error + scheduling jitter at the exit).
            assert!(
                hi - lo < 100_000,
                "allreduce exit skew {} ns too large",
                hi - lo
            );
            checked += 1;
        }
    }
    assert!(checked >= 4, "only {checked} collective rounds checked");
}

#[test]
fn slog_arrows_match_send_recv_pairs() {
    let p = run_pipeline(micro::ping_pong(16, 8 << 10));
    let arrows: Vec<_> = p
        .slog
        .frames
        .iter()
        .flat_map(|f| &f.records)
        .filter_map(|r| match r {
            SlogRecord::Arrow(a) if !a.pseudo => Some(*a),
            _ => None,
        })
        .collect();
    // 16 rounds × 2 directions.
    assert_eq!(arrows.len(), 32);
    for a in &arrows {
        assert!(a.recv_time > a.send_time, "arrow goes backwards in time");
        assert_eq!(a.bytes, 8 << 10);
        assert_ne!(a.src_timeline, a.dst_timeline);
    }
}

#[test]
fn frame_windows_are_self_contained() {
    // §4's second challenge: a frame in the middle of the run must carry
    // (as pseudo records) everything needed to render it. For a FLASH
    // trace, pick the frame in the middle busy phase and check the
    // enclosing marker state is visible inside it.
    let p = run_pipeline(flash::workload(flash::FlashParams {
        iters_per_phase: 4,
        ..flash::FlashParams::default()
    }));
    // Compute the true marker spans from the merged stream (connected
    // Begin..End pieces per thread), then check that EVERY frame
    // overlapping a marker span contains a Marker record — directly or as
    // a pseudo copy. Frames in the quiet phases carry none.
    let merged = merged_intervals(&p);
    let mut open: HashMap<(u16, u16), Vec<u64>> = HashMap::new();
    let mut marker_spans: Vec<(u64, u64)> = Vec::new();
    for iv in &merged {
        // Skip the merge utility's zero-duration pseudo continuations but
        // keep genuine zero-length End pieces (a marker can close at the
        // same instant its inner state ended).
        if iv.itype.state != StateCode::MARKER
            || (iv.duration == 0 && iv.itype.bebits == BeBits::Continuation)
        {
            continue;
        }
        let key = (iv.node.raw(), iv.thread.raw());
        match iv.itype.bebits {
            BeBits::Complete => marker_spans.push((iv.start, iv.end())),
            BeBits::Begin => open.entry(key).or_default().push(iv.start),
            BeBits::End => {
                if let Some(s) = open.entry(key).or_default().pop() {
                    marker_spans.push((s, iv.end()));
                }
            }
            BeBits::Continuation => {}
        }
    }
    assert!(
        marker_spans.len() >= 12,
        "markers found: {}",
        marker_spans.len()
    );
    let mut frames_checked = 0;
    for frame in &p.slog.frames {
        let in_marker = marker_spans
            .iter()
            .any(|&(s, e)| s < frame.t_end && e > frame.t_start);
        if !in_marker {
            continue;
        }
        frames_checked += 1;
        let has_marker = frame
            .records
            .iter()
            .any(|r| matches!(r, SlogRecord::State(s) if s.state == StateCode::MARKER));
        assert!(
            has_marker,
            "frame [{}, {}) overlaps a marker span but shows none",
            frame.t_start, frame.t_end
        );
    }
    assert!(frames_checked >= 3, "only {frames_checked} frames probed");
}

#[test]
fn views_conserve_busy_time_across_groupings() {
    // The same SLOG data grouped by thread and by processor must contain
    // the same non-Running activity (same bars, different rows).
    let p = run_pipeline(micro::stencil(3, 6, 8 << 10));
    let cfg_thread = ute::view::model::ViewConfig {
        kind: ute::view::model::ViewKind::ThreadActivity,
        hide_running: true,
        ..ute::view::model::ViewConfig::default()
    };
    let cfg_cpu = ute::view::model::ViewConfig {
        kind: ute::view::model::ViewKind::ProcessorActivity,
        hide_running: true,
        ..ute::view::model::ViewConfig::default()
    };
    let tv = ute::view::model::build_view(&p.slog, &cfg_thread).unwrap();
    let cv = ute::view::model::build_view(&p.slog, &cfg_cpu).unwrap();
    let busy = |v: &ute::view::model::View| -> u64 { v.bars.iter().map(|b| b.end - b.start).sum() };
    assert_eq!(busy(&tv), busy(&cv), "total activity differs between views");
    assert_eq!(tv.bars.len(), cv.bars.len());
}

#[test]
fn marker_ids_unified_across_tasks() {
    // Every task defines the same marker strings in the same order here,
    // but the id-unification path must still produce exactly one id per
    // string in the merged marker table.
    let p = run_pipeline(flash::workload(flash::FlashParams {
        iters_per_phase: 2,
        ..flash::FlashParams::default()
    }));
    let names: Vec<&str> = p.slog.markers.iter().map(|(_, n)| n.as_str()).collect();
    let unique: std::collections::HashSet<&&str> = names.iter().collect();
    assert_eq!(
        names.len(),
        unique.len(),
        "duplicate marker strings: {names:?}"
    );
    for phase in ["Initialization", "Evolution", "Termination"] {
        assert!(names.contains(&phase), "missing marker {phase}");
    }
    // Ids are unique too.
    let ids: std::collections::HashSet<u32> = p.slog.markers.iter().map(|(i, _)| *i).collect();
    assert_eq!(ids.len(), names.len());
}

mod parallel_determinism {
    use super::common::convert_then_merge;
    use proptest::prelude::*;
    use ute::cluster::Simulator;
    use ute::convert::ConvertOptions;
    use ute::format::file::FramePolicy;
    use ute::format::profile::Profile;
    use ute::merge::MergeOptions;
    use ute::rawtrace::buffer::BufferMode;
    use ute::workloads::micro;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        // The pipeline's determinism guarantee, explored across the
        // input space: any node count, any worker count, and both trace
        // buffer behaviours (flush vs stop-when-full truncation, which
        // produces force-closed states) must yield converted and merged
        // bytes identical to the serial path.
        #[test]
        fn parallel_pipeline_equals_serial_bytes(
            nodes in 1u32..17,
            jobs in 1usize..9,
            stop_when_full in any::<bool>(),
            buffer_kib in 8usize..65,
        ) {
            let mut w = micro::stencil(nodes, 5, 4 << 10);
            w.config.trace.mode = if stop_when_full {
                BufferMode::StopWhenFull
            } else {
                BufferMode::Flush
            };
            w.config.trace.buffer_size = buffer_kib << 10;
            let result = Simulator::new(w.config, &w.job).unwrap().run().unwrap();
            let profile = Profile::standard();
            let copts = ConvertOptions {
                policy: FramePolicy::default(),
                ..ConvertOptions::default()
            };
            let mopts = MergeOptions::default();
            let serial = convert_then_merge(
                &result.raw_files, &result.threads, &profile, &copts, &mopts, 1,
            );
            let parallel = convert_then_merge(
                &result.raw_files, &result.threads, &profile, &copts, &mopts, jobs,
            );
            match (serial, parallel) {
                (Ok((s_converted, s)), Ok((p_converted, p))) => {
                    prop_assert_eq!(
                        &s.merged, &p.merged,
                        "merged bytes differ at jobs={}", jobs
                    );
                    prop_assert_eq!(s_converted.len(), p_converted.len());
                    for (a, b) in s_converted.iter().zip(&p_converted) {
                        prop_assert_eq!(a.node, b.node);
                        prop_assert_eq!(
                            &a.interval_file, &b.interval_file,
                            "converted bytes differ for node {} at jobs={}",
                            a.node.raw(), jobs
                        );
                    }
                    prop_assert_eq!(s.stats.records_in, p.stats.records_in);
                    prop_assert_eq!(s.stats.records_out, p.stats.records_out);
                }
                (Err(_), Err(_)) => {} // both reject the input — also deterministic
                (s, p) => prop_assert!(
                    false,
                    "paths disagree: serial ok={}, parallel ok={}",
                    s.is_ok(), p.is_ok()
                ),
            }
        }
    }
}

#[test]
fn statistics_agree_with_ground_truth_messages() {
    let rounds = 12u32;
    let bytes = 4 << 10;
    let p = run_pipeline(micro::ping_pong(rounds, bytes));
    let merged = merged_intervals(&p);
    let specs = ute::stats::parse_program(
        r#"table name=sent condition=(state >= 256 && msgSizeSent > 0)
           y=("bytes", msgSizeSent, sum) y=("msgs", msgSizeSent, count)"#,
    )
    .unwrap();
    let tables = ute::stats::run_tables(&specs, &p.profile, &merged).unwrap();
    let ys = tables[0].row(&[]).unwrap();
    assert_eq!(ys[0] as u64, 2 * rounds as u64 * bytes);
    assert_eq!(ys[1] as u64, 2 * rounds as u64);
}
