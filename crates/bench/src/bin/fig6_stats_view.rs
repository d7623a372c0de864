//! Figure 6: "Statistics visualization for pre-defined statistics tables"
//! — the sum of interesting-interval duration per node × 50 time bins,
//! rendered by the statistics viewer.
//!
//! Paper shape to reproduce: the per-bin profile exposes the program's
//! phase structure — busy ranges separated by quiet ranges, so one can
//! read off "the time ranges of a time-space diagram that are likely to
//! be interesting".
//!
//! The table, its heatmap and its SVG are `ute stats --out`'s own.
//!
//! Run: `cargo run -p ute-bench --bin fig6_stats_view`

use ute_bench::RunDir;

fn main() {
    let run = RunDir::fresh("fig6_stats_view");
    let [.., (_, stats)] = run.pipeline("flash", &[]);
    // `ute stats` prints each table as `=== name ===`, its TSV, the
    // statistics viewer's heatmap and the files it wrote.
    let fig6 = stats
        .text
        .split("=== ")
        .find_map(|t| t.strip_prefix("interesting_by_node_bin ===\n"))
        .expect("predefined Figure 6 table");
    println!("# Figure 6 — sum of interesting durations per node x 50 bins, from `ute stats`\n");
    print!("{fig6}");

    // Shape check on the TSV the command wrote: busy and quiet bins both
    // exist (phase structure).
    let tsv = std::fs::read_to_string(run.dir.join("stats/interesting_by_node_bin.tsv")).unwrap();
    let mut per_bin = vec![0.0f64; 50];
    for row in tsv.lines().skip(1) {
        let cols: Vec<&str> = row.split('\t').collect();
        per_bin[cols[1].parse::<usize>().unwrap()] += cols[2].parse::<f64>().unwrap();
    }
    let busy = per_bin.iter().filter(|&&v| v > 0.0).count();
    let quiet = per_bin.iter().filter(|&&v| v == 0.0).count();
    assert!(busy >= 5, "busy bins: {busy}");
    assert!(quiet >= 5, "quiet bins: {quiet}");
    println!("# OK: {busy} busy bins and {quiet} quiet bins — phase structure visible");
}
