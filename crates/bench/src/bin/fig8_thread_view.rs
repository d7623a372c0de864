//! Figure 8: "A thread-activity view of the ASCI sPPM benchmark" —
//! 4 nodes × 8-way SMP, four threads per MPI process, one making MPI
//! calls.
//!
//! Paper shape to reproduce: per-thread timelines showing MPI activity on
//! the MPI threads, "system activity on the non-MPI threads", and "one
//! thread is idle during this part of the computation".
//!
//! Run: `cargo run -p ute-bench --bin fig8_thread_view`

use ute_bench::RunDir;
use ute_view::model::{build_view, ViewConfig, ViewKind};

fn main() {
    let run = RunDir::fresh("fig8_thread_view");
    run.pipeline("sppm", &[]);
    let view = build_view(
        &run.slog(),
        &ViewConfig {
            kind: ViewKind::ThreadActivity,
            ..ViewConfig::default()
        },
    )
    .unwrap();

    println!("# Figure 8 — thread-activity view of the sPPM-like run\n");
    run.show(&view, 110, "thread_view.svg");

    // Shape checks against the caption.
    // 4 tasks × 4 threads + 4 daemon timelines.
    assert_eq!(view.rows.len(), 20, "rows: {:?}", view.rows.len());
    assert!(
        view.legend.iter().any(|k| k.starts_with("MPI_")),
        "MPI activity visible"
    );
    assert!(
        view.legend
            .iter()
            .any(|k| k == "Syscall" || k == "PageFault" || k == "Interrupt"),
        "system activity on non-MPI threads visible: {:?}",
        view.legend
    );
    // The idle thread: one user thread per task has (almost) no activity.
    let mut busy = vec![0u64; view.rows.len()];
    for b in &view.bars {
        busy[b.row] += b.end - b.start;
    }
    let span = view.t1 - view.t0;
    let idle_rows = (view.rows.iter().zip(&busy))
        .filter(|(label, &b)| label.contains("user") && b < span / 50)
        .count();
    assert!(
        idle_rows >= 4,
        "expected ≥4 idle worker threads, found {idle_rows}"
    );
    println!("# OK: MPI threads busy, system activity present, {idle_rows} idle worker threads");
}
