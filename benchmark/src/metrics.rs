//! The names, units and directions of everything the benchmark prints.
//!
//! `BENCHMARK.json` at the repo root carries the same tables for the
//! acceptance driver; `tests/contract.rs` fails when the two disagree.

/// An end-to-end metric: what a user of `ute` would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "records_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "artifact_bytes_per_record",
        unit: "B",
        better: "lower",
        bound: 0.01,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// A per-layer metric: `(name, unit, better)`. The prefix before the dot
/// is the layer — a crate of the workspace, or `cli`/`proc`/`alloc`/
/// `harness` for what is observed from outside all of them.
pub type PerLayer = (&'static str, &'static str, &'static str);

pub const PER_LAYER: [PerLayer; 73] = [
    ("cli.convert_s", "s", "lower"),
    ("cli.merge_s", "s", "lower"),
    ("cli.slogmerge_s", "s", "lower"),
    ("cli.stats_s", "s", "lower"),
    ("cli.pipeline_s", "s", "lower"),
    ("cli.analyze_all_s", "s", "lower"),
    ("cli.analyze_window_s", "s", "lower"),
    ("cli.analyze_nodes_s", "s", "lower"),
    ("cli.stats_custom_s", "s", "lower"),
    ("cli.view_s", "s", "lower"),
    ("cli.preview_s", "s", "lower"),
    ("cluster.simulate_s", "s", "lower"),
    ("cluster.events_per_s", "1/s", "higher"),
    ("rawtrace.encode_s", "s", "lower"),
    ("rawtrace.decode_s", "s", "lower"),
    ("rawtrace.decode_ns_per_event", "ns", "lower"),
    ("rawtrace.bytes_per_event", "B", "lower"),
    ("convert.job_s", "s", "lower"),
    ("convert.job_j2_s", "s", "lower"),
    ("convert.ns_per_event", "ns", "lower"),
    ("convert.intervals_per_event", "ratio", "lower"),
    ("format.encode_s", "s", "lower"),
    ("format.encode_ns_per_record", "ns", "lower"),
    ("format.decode_s", "s", "lower"),
    ("format.decode_ns_per_record", "ns", "lower"),
    ("format.frame_seek_us", "us", "lower"),
    ("format.bytes_per_record", "B", "lower"),
    ("merge.clockfit_s", "s", "lower"),
    ("merge.adjust_s", "s", "lower"),
    ("merge.kway_s", "s", "lower"),
    ("merge.kway_ns_per_record", "ns", "lower"),
    ("merge.merge_files_s", "s", "lower"),
    ("merge.slogmerge_s", "s", "lower"),
    ("pipeline.merge_files_j2_s", "s", "lower"),
    ("pipeline.slogmerge_j2_s", "s", "lower"),
    ("pipeline.merge_speedup_j2", "ratio", "higher"),
    ("pipeline.rep_speedup_j2", "ratio", "higher"),
    ("slog.build_s", "s", "lower"),
    ("slog.build_ns_per_record", "ns", "lower"),
    ("slog.encode_s", "s", "lower"),
    ("slog.decode_s", "s", "lower"),
    ("slog.bytes_per_record", "B", "lower"),
    ("stats.run_tables_s", "s", "lower"),
    ("stats.ns_per_record", "ns", "lower"),
    ("analyze.load_table_s", "s", "lower"),
    ("analyze.load_window_s", "s", "lower"),
    ("analyze.late_sender_s", "s", "lower"),
    ("analyze.imbalance_s", "s", "lower"),
    ("analyze.comm_pattern_s", "s", "lower"),
    ("analyze.critical_path_s", "s", "lower"),
    ("view.build_s", "s", "lower"),
    ("view.svg_s", "s", "lower"),
    ("view.preview_s", "s", "lower"),
    ("store.fnv64_s", "s", "lower"),
    ("store.fnv64_gb_per_s", "GB/s", "higher"),
    ("store.atomic_write_s", "s", "lower"),
    ("store.atomic_write_files", "count", "lower"),
    ("store.journal_append_us", "us", "lower"),
    ("proc.user_s", "s", "lower"),
    ("proc.sys_s", "s", "lower"),
    ("proc.minor_faults", "count", "lower"),
    ("proc.read_bytes_per_record", "B", "lower"),
    ("proc.write_bytes_per_record", "B", "lower"),
    ("proc.rw_syscalls", "count", "lower"),
    ("proc.vol_ctx_switches", "count", "lower"),
    ("alloc.count_per_record", "count", "lower"),
    ("alloc.bytes_per_record", "B", "lower"),
    ("alloc.peak_live_mb", "MB", "lower"),
    ("harness.calib_s", "s", "lower"),
    ("harness.calib_spread", "ratio", "lower"),
    ("harness.rep_iqr_ratio", "ratio", "lower"),
    ("harness.trace_overhead_ratio", "ratio", "lower"),
    ("harness.layer_coverage", "ratio", "higher"),
];

/// The unit of a metric of either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
}
