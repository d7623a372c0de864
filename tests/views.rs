//! View-layer integration tests on real pipeline data: the connected
//! nested thread-activity mode, windowed rendering through pseudo
//! records, golden ASCII/SVG snapshots of the sPPM and FLASH renders
//! (checked-in baselines under `tests/snapshots/`, regenerated with
//! `UPDATE_SNAPSHOTS=1 cargo test --test views`), and a golden ASCII
//! snapshot of a tiny deterministic view.

use ute::cluster::Simulator;
use ute::convert::{convert_job_pooled, ConvertOptions};
use ute::core::bebits::BeBits;
use ute::format::profile::Profile;
use ute::format::state::StateCode;
use ute::merge::{slogmerge, MergeOptions};
use ute::slog::builder::BuildOptions;
use ute::slog::file::{SlogFile, SlogFrame};
use ute::slog::preview::Preview;
use ute::slog::record::{SlogRecord, SlogState};
use ute::view::ascii;
use ute::view::model::{build_view, ViewConfig, ViewKind};
use ute::workloads::flash::{workload, FlashParams};
use ute::workloads::{sppm, Workload};

fn workload_slog(w: Workload) -> (Profile, SlogFile) {
    let result = Simulator::new(w.config, &w.job).unwrap().run().unwrap();
    let profile = Profile::standard();
    let converted = convert_job_pooled(
        &result.raw_files,
        &result.threads,
        &profile,
        &ConvertOptions::default(),
        2,
    )
    .unwrap();
    let files: Vec<&[u8]> = converted
        .iter()
        .map(|c| c.interval_file.as_slice())
        .collect();
    let (slog, _) = slogmerge(
        &files,
        &profile,
        &MergeOptions::default(),
        BuildOptions {
            nframes: 24,
            preview_bins: 48,
            arrows: true,
        },
    )
    .unwrap();
    (profile, slog)
}

fn flash_slog() -> (Profile, SlogFile) {
    workload_slog(workload(FlashParams {
        iters_per_phase: 3,
        ..FlashParams::default()
    }))
}

/// Compares rendered output to the checked-in baseline, or rewrites the
/// baseline when `UPDATE_SNAPSHOTS` is set. On mismatch, reports the
/// first differing line rather than dumping both renders whole.
fn snapshot_check(name: &str, content: &str) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots");
    let path = dir.join(name);
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, content).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing snapshot {}; generate it with UPDATE_SNAPSHOTS=1 cargo test --test views",
            path.display()
        )
    });
    if content == want {
        return;
    }
    let mismatch = content
        .lines()
        .zip(want.lines())
        .enumerate()
        .find(|(_, (got, want))| got != want);
    match mismatch {
        Some((i, (got, want))) => panic!(
            "snapshot {name} drifted at line {}:\n  got:  {got}\n  want: {want}\n\
             (re-run with UPDATE_SNAPSHOTS=1 if the change is intended)",
            i + 1
        ),
        None => panic!(
            "snapshot {name} drifted in length: got {} lines, want {} \
             (re-run with UPDATE_SNAPSHOTS=1 if the change is intended)",
            content.lines().count(),
            want.lines().count()
        ),
    }
}

/// Renders a workload's thread-activity view both ways and checks the
/// pair of baselines.
fn snapshot_workload(stem: &str, profile_slog: (Profile, SlogFile)) {
    let (_, slog) = profile_slog;
    let view = build_view(&slog, &ViewConfig::default()).unwrap();
    snapshot_check(&format!("{stem}_thread.txt"), &ascii::render(&view, 100));
    snapshot_check(
        &format!("{stem}_thread.svg"),
        &ute::view::svg::render(&view, &ute::view::svg::SvgOptions::default()),
    );
}

#[test]
fn sppm_view_snapshots() {
    snapshot_workload(
        "sppm",
        workload_slog(sppm::workload(sppm::SppmParams::default())),
    );
}

#[test]
fn flash_view_snapshots() {
    snapshot_workload("flash", flash_slog());
}

#[test]
fn connected_view_nests_markers_above_mpi() {
    let (_, slog) = flash_slog();
    let connected = build_view(
        &slog,
        &ViewConfig {
            kind: ViewKind::ThreadActivity,
            connected: true,
            hide_running: true,
            ..ViewConfig::default()
        },
    )
    .unwrap();
    // Marker bars exist and carry depth 0; MPI bars inside them carry
    // depth ≥ 1 (connected mode reconstructs nesting).
    let marker_bars: Vec<_> = connected
        .bars
        .iter()
        .filter(|b| b.color.starts_with("Marker:"))
        .collect();
    assert!(!marker_bars.is_empty(), "connected markers missing");
    assert!(
        connected
            .bars
            .iter()
            .any(|b| b.color.starts_with("MPI_") && b.depth >= 1),
        "MPI bars should nest inside markers"
    );
    // Marker labels resolve through the unified marker table.
    assert!(
        connected.legend.iter().any(|k| k == "Marker:Evolution"),
        "legend: {:?}",
        connected.legend
    );
    // The piece view of the same data has no depth.
    let pieces = build_view(
        &slog,
        &ViewConfig {
            kind: ViewKind::ThreadActivity,
            connected: false,
            hide_running: true,
            ..ViewConfig::default()
        },
    )
    .unwrap();
    assert!(pieces.bars.iter().all(|b| b.depth == 0));
}

#[test]
fn windowed_connected_view_shows_enclosing_state_via_pseudo_records() {
    let (_, slog) = flash_slog();
    // Find a frame strictly inside the Evolution phase: it contains a
    // zero-duration pseudo continuation for the marker, and the connected
    // view must stretch the marker across the whole window.
    let marker_frames: Vec<&SlogFrame> = slog
        .frames
        .iter()
        .filter(|f| {
            f.records.iter().any(|r| {
                matches!(
                    r,
                    SlogRecord::State(s)
                        if s.state == StateCode::MARKER
                            && s.bebits == BeBits::Continuation
                )
            })
        })
        .collect();
    assert!(
        !marker_frames.is_empty(),
        "no frames with marker continuations"
    );
    let f = marker_frames[0];
    let view = build_view(
        &slog,
        &ViewConfig {
            kind: ViewKind::ThreadActivity,
            window: Some((f.t_start, f.t_end)),
            connected: true,
            hide_running: true,
            ..ViewConfig::default()
        },
    )
    .unwrap();
    let full_span_marker = view
        .bars
        .iter()
        .any(|b| b.color.starts_with("Marker:") && b.start == f.t_start && b.end == f.t_end);
    assert!(
        full_span_marker,
        "enclosing marker should span the window: {:?}",
        view.bars
            .iter()
            .filter(|b| b.color.starts_with("Marker:"))
            .collect::<Vec<_>>()
    );
}

#[test]
fn golden_ascii_snapshot() {
    // A tiny handcrafted SLOG with one thread, one nested call, rendered
    // at fixed width: the exact output is pinned so rendering regressions
    // are caught immediately.
    let mut threads = ute::format::thread_table::ThreadTable::new();
    threads
        .register(ute::format::thread_table::ThreadEntry {
            task: ute::core::ids::TaskId(0),
            pid: ute::core::ids::Pid(1),
            system_tid: ute::core::ids::SystemThreadId(1),
            node: ute::core::ids::NodeId(0),
            logical: ute::core::ids::LogicalThreadId(0),
            ttype: ute::core::ids::ThreadType::Mpi,
        })
        .unwrap();
    let state = |st: StateCode, start: u64, dur: u64| {
        SlogRecord::State(SlogState {
            timeline: 0,
            state: st,
            bebits: BeBits::Complete,
            pseudo: false,
            start,
            duration: dur,
            node: 0,
            cpu: 0,
            marker_id: 0,
        })
    };
    let slog = SlogFile {
        threads,
        markers: vec![],
        preview: Preview::new(0, 40, 4),
        frames: vec![SlogFrame {
            t_start: 0,
            t_end: 40,
            records: vec![
                state(StateCode::RUNNING, 0, 40),
                state(StateCode::mpi(ute::core::event::MpiOp::Send), 10, 10),
            ],
        }],
    };
    let view = build_view(&slog, &ViewConfig::default()).unwrap();
    let got = ascii::render(&view, 20);
    // Fill characters are assigned positionally by legend order, so the
    // snapshot is checked structurally rather than byte-for-byte.
    let lines: Vec<&str> = got.lines().collect();
    assert_eq!(lines.len(), 4, "{got}");
    let bar: Vec<char> = lines[0]
        .chars()
        .skip("n0 t0 (mpi rank 0) |".len())
        .collect();
    assert_eq!(bar.len(), 20);
    // Columns 5..10 are the nested Send (25%..50% of 40 ticks).
    assert_ne!(bar[6], bar[2], "nested call must differ from Running fill");
    assert_eq!(bar[2], bar[15], "Running on both sides");
    assert!(lines[3].starts_with("legend:"));
    assert!(lines[3].contains("Running") && lines[3].contains("MPI_Send"));
}
