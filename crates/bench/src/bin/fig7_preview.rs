//! Figure 7: "Jumpshot visualization with preview for the FLASH code" —
//! the whole-run preview window, then a frame display at a user-selected
//! instant, located through the time-keyed frame index.
//!
//! Paper shape to reproduce: the preview makes the initialization /
//! iteration / termination phases visible; selecting a time in the middle
//! displays that frame, with pseudo-interval records completing the
//! picture; and the frame lookup touches no data outside the frame.
//!
//! Run: `cargo run -p ute-bench --bin fig7_preview`

use ute_bench::RunDir;
use ute_view::model::{frame_view, ViewConfig};
use ute_view::preview::{interesting_ranges, render_ascii, render_svg};

fn main() {
    let run = RunDir::fresh("fig7_preview");
    run.pipeline("flash", &["--frames", "48", "--bins", "96"]);
    let slog = run.slog();

    println!("# Figure 7 — whole-run preview\n");
    print!("{}", render_ascii(&slog.preview, 8));

    let ranges = interesting_ranges(&slog.preview, 0.2);
    println!("\ninteresting ranges (the phases the caption points at):");
    for (a, b) in &ranges {
        println!("  {a:.3}s – {b:.3}s");
    }
    assert!(ranges.len() >= 3, "expected ≥3 busy phases, got {ranges:?}");

    // "The user has selected a time instant in this middle section which
    // causes the display of the data in the frame containing this
    // instant."
    let pick = (ranges[1].0 + ranges[1].1) / 2.0;
    let t = (pick * 1e9) as u64;
    let frame = slog.frame_at(t).expect("frame index finds the instant");
    println!(
        "\nselected t = {pick:.3}s -> frame [{:.3}s, {:.3}s) with {} records ({} pseudo)",
        frame.t_start as f64 / 1e9,
        frame.t_end as f64 / 1e9,
        frame.records.len(),
        frame.pseudo_count(),
    );
    let view = frame_view(&slog, t, &ViewConfig::default()).unwrap();
    run.show(&view, 100, "frame.svg");
    let preview_svg = run.dir.join("preview.svg");
    std::fs::write(&preview_svg, render_svg(&slog.preview, 700, 120)).unwrap();
    println!("wrote {}", preview_svg.display());
    println!("# OK: preview -> frame index -> self-contained frame display");
}
