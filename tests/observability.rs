//! Acceptance tests for the self-observability layer: the `--metrics` /
//! `--self-trace` switches, the `report` subcommand, and the dogfooded
//! self-trace file.

use std::path::PathBuf;

use ute::cli::run;
use ute::format::file::IntervalFileReader;
use ute::format::profile::Profile;

/// The metrics registry and span log are process-global, and `report`
/// resets them — these tests must not interleave.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ute_obs_accept_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn argv(tokens: &[&str]) -> Vec<String> {
    tokens.iter().map(|s| s.to_string()).collect()
}

#[test]
fn pipeline_self_trace_round_trips_with_a_span_per_stage() {
    let _serial = SERIAL.lock().unwrap();
    let dir = tmpdir("selftrace");
    let out = dir.to_str().unwrap().to_string();
    let ivl = dir.join("self.ivl");
    let msg = run(&argv(&[
        "pipeline",
        "--workload",
        "pingpong",
        "--out",
        &out,
        "--metrics",
        "--self-trace",
        ivl.to_str().unwrap(),
    ]))
    .unwrap();
    assert!(msg.contains("wrote self-trace"), "{msg}");

    // The self-trace is a well-formed UTE interval file.
    let bytes = std::fs::read(&ivl).unwrap();
    let profile = Profile::standard();
    let reader = IntervalFileReader::open(&bytes, &profile).unwrap();
    let intervals: Vec<_> = reader.intervals().map(|iv| iv.unwrap()).collect();
    assert!(!intervals.is_empty());

    // Every pipeline stage contributed at least one span: each stage is
    // a timeline (logical thread) in the self-trace thread table.
    let stage_count = reader.threads.len();
    assert!(
        stage_count >= 5,
        "expected ≥5 stage timelines (trace/convert/merge/slog/stats), got {stage_count}"
    );
    for thread in reader.threads.entries() {
        let lane = thread.logical;
        assert!(
            intervals.iter().any(|iv| iv.thread == lane),
            "stage timeline {lane:?} has no intervals"
        );
    }

    // The framework's own viewer opens it.
    let preview = run(&argv(&["preview", "--ivl", ivl.to_str().unwrap()])).unwrap();
    assert!(preview.contains("interesting ranges:"), "{preview}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn self_trace_hierarchy_round_trips_nested_and_laminar() {
    let _serial = SERIAL.lock().unwrap();
    let dir = tmpdir("hierarchy");
    let out = dir.to_str().unwrap().to_string();
    let ivl = dir.join("self.ivl");
    let msg = run(&argv(&[
        "pipeline",
        "--workload",
        "pingpong",
        "--out",
        &out,
        "--jobs",
        "2",
        "--self-trace",
        ivl.to_str().unwrap(),
    ]))
    .unwrap();

    // The reported span count matches what actually landed in the file.
    let tail = &msg[msg.find("wrote self-trace").unwrap()..];
    let n: usize = tail[tail.find('(').unwrap() + 1..tail.find(" spans)").unwrap()]
        .parse()
        .unwrap();
    let bytes = std::fs::read(&ivl).unwrap();
    let profile = Profile::standard();
    let reader = IntervalFileReader::open(&bytes, &profile).unwrap();
    let ivs: Vec<_> = reader.intervals().map(|iv| iv.unwrap()).collect();
    assert_eq!(ivs.len(), n, "span count and interval count diverged");

    // Hierarchy extras: `address` is the span's unique nonzero id,
    // `addressEnd` its parent — every parent must itself be recorded
    // (roots carry 0).
    let mut parent_of = std::collections::HashMap::new();
    for iv in &ivs {
        let id = iv
            .extra(&profile, "address")
            .and_then(|v| v.as_uint())
            .unwrap();
        let parent = iv
            .extra(&profile, "addressEnd")
            .and_then(|v| v.as_uint())
            .unwrap();
        assert_ne!(id, 0, "span with null id");
        assert!(
            parent_of.insert(id, parent).is_none(),
            "duplicate span id {id}"
        );
    }
    for (&id, &p) in &parent_of {
        assert!(
            p == 0 || parent_of.contains_key(&p),
            "span {id} has unrecorded parent {p}"
        );
    }
    // The tree really nests: at least cli root → stage worker → node
    // span somewhere (parents always predate children, so no cycles).
    let depth = |mut id: u64| {
        let mut d = 0u32;
        while id != 0 {
            d += 1;
            id = parent_of[&id];
        }
        d
    };
    let max_depth = parent_of.keys().map(|&i| depth(i)).max().unwrap();
    assert!(
        max_depth >= 3,
        "expected span nesting depth ≥3 (cli → worker → node), got {max_depth}"
    );

    // Per-lane laminarity: on any one (stage, thread) timeline, spans
    // nest or are disjoint — never partially overlap — which is what
    // lets the viewer's nest.rs recover the hierarchy from our own file.
    for t in reader.threads.entries() {
        let lane: Vec<_> = ivs.iter().filter(|iv| iv.thread == t.logical).collect();
        for (i, a) in lane.iter().enumerate() {
            for b in &lane[i + 1..] {
                let disjoint = a.end() <= b.start || b.end() <= a.start;
                let nested = (a.start <= b.start && b.end() <= a.end())
                    || (b.start <= a.start && a.end() <= b.end());
                assert!(
                    disjoint || nested,
                    "lane {:?}: [{}, {}) and [{}, {}) partially overlap",
                    t.logical,
                    a.start,
                    a.end(),
                    b.start,
                    b.end()
                );
            }
        }
    }
    // File order is ascending end time (the interval writer's contract).
    for w in ivs.windows(2) {
        assert!(w[0].end() <= w[1].end());
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// Minimal recursive-descent JSON syntax checker — no dependencies,
/// just enough to assert the Chrome export is parseable JSON. Our
/// traces nest four levels deep at most, so recursion depth is a
/// non-issue.
fn json_valid(s: &str) -> bool {
    fn ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
            *i += 1;
        }
    }
    fn string(b: &[u8], i: &mut usize) -> bool {
        if b.get(*i) != Some(&b'"') {
            return false;
        }
        *i += 1;
        while *i < b.len() {
            match b[*i] {
                b'"' => {
                    *i += 1;
                    return true;
                }
                b'\\' => *i += 2,
                _ => *i += 1,
            }
        }
        false
    }
    fn number(b: &[u8], i: &mut usize) -> bool {
        let start = *i;
        while *i < b.len()
            && (b[*i].is_ascii_digit() || matches!(b[*i], b'.' | b'-' | b'+' | b'e' | b'E'))
        {
            *i += 1;
        }
        std::str::from_utf8(&b[start..*i])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .is_some()
    }
    fn value(b: &[u8], i: &mut usize) -> bool {
        ws(b, i);
        match b.get(*i) {
            Some(b'{') => {
                *i += 1;
                ws(b, i);
                if b.get(*i) == Some(&b'}') {
                    *i += 1;
                    return true;
                }
                loop {
                    ws(b, i);
                    if !string(b, i) {
                        return false;
                    }
                    ws(b, i);
                    if b.get(*i) != Some(&b':') {
                        return false;
                    }
                    *i += 1;
                    if !value(b, i) {
                        return false;
                    }
                    ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b'}') => {
                            *i += 1;
                            return true;
                        }
                        _ => return false,
                    }
                }
            }
            Some(b'[') => {
                *i += 1;
                ws(b, i);
                if b.get(*i) == Some(&b']') {
                    *i += 1;
                    return true;
                }
                loop {
                    if !value(b, i) {
                        return false;
                    }
                    ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b']') => {
                            *i += 1;
                            return true;
                        }
                        _ => return false,
                    }
                }
            }
            Some(b'"') => string(b, i),
            Some(b't') if b[*i..].starts_with(b"true") => {
                *i += 4;
                true
            }
            Some(b'f') if b[*i..].starts_with(b"false") => {
                *i += 5;
                true
            }
            Some(b'n') if b[*i..].starts_with(b"null") => {
                *i += 4;
                true
            }
            _ => number(b, i),
        }
    }
    let b = s.as_bytes();
    let mut i = 0;
    let ok = value(b, &mut i);
    ws(b, &mut i);
    ok && i == b.len()
}

/// Extracts the number following `key` on `line` (flat scan — our
/// exporter writes one event per line).
fn num_after(line: &str, key: &str) -> Option<f64> {
    let at = line.find(key)? + key.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[test]
fn chrome_self_trace_is_parseable_sorted_and_flow_paired() {
    let _serial = SERIAL.lock().unwrap();
    let dir = tmpdir("chrome");
    let out = dir.to_str().unwrap().to_string();
    let path = dir.join("self.chrome.json");
    run(&argv(&[
        "pipeline",
        "--workload",
        "stencil",
        "--out",
        &out,
        "--jobs",
        "2",
        "--self-trace",
        path.to_str().unwrap(),
        "--self-trace-format",
        "chrome",
    ]))
    .unwrap();
    let json = std::fs::read_to_string(&path).unwrap();
    assert!(json_valid(&json), "chrome trace is not parseable JSON");

    // Walk the one-event-per-line body: timestamps must be
    // non-decreasing, every flow begin must pair with a flow end, and
    // at --jobs 2 the spans must come from at least two threads.
    let mut last_ts = f64::MIN;
    let mut x_events = 0usize;
    let mut x_tids = std::collections::HashSet::new();
    let mut s_ids = std::collections::HashSet::new();
    let mut f_ids = std::collections::HashSet::new();
    for line in json.lines() {
        let line = line.trim().trim_end_matches(',');
        if !line.starts_with('{') || !line.contains("\"ph\":") {
            continue;
        }
        if let Some(ts) = num_after(line, "\"ts\":") {
            assert!(
                ts >= last_ts,
                "events not sorted by ts: {ts} after {last_ts}"
            );
            last_ts = ts;
        }
        if line.contains("\"ph\":\"X\"") {
            x_events += 1;
            x_tids.insert(num_after(line, "\"tid\":").unwrap() as u64);
        } else if line.contains("\"ph\":\"s\"") {
            s_ids.insert(num_after(line, "\"id\":").unwrap() as u64);
        } else if line.contains("\"ph\":\"f\"") {
            assert!(
                line.contains("\"bp\":\"e\""),
                "flow end must bind encl: {line}"
            );
            f_ids.insert(num_after(line, "\"id\":").unwrap() as u64);
        }
    }
    assert!(x_events > 0, "no duration events in chrome trace");
    assert!(
        x_tids.len() >= 2,
        "expected spans from ≥2 threads at --jobs 2, got {x_tids:?}"
    );
    assert!(
        !s_ids.is_empty(),
        "no flow events: channel handoffs were not recorded"
    );
    assert_eq!(s_ids, f_ids, "flow begin/end ids must pair exactly");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_emits_json_with_nonzero_stage_counters() {
    let _serial = SERIAL.lock().unwrap();
    let dir = tmpdir("report");
    let out = dir.to_str().unwrap().to_string();
    let json = run(&argv(&["report", "--workload", "sppm", "--out", &out])).unwrap();

    assert!(json.trim_start().starts_with('{'));
    assert!(json.trim_end().ends_with('}'));
    for section in ["\"counters\"", "\"gauges\"", "\"histograms\""] {
        assert!(json.contains(section), "missing {section} in {json}");
    }

    // Acceptance counters: one per pipeline stage, all nonzero.
    for name in [
        "cluster/events_simulated",
        "convert/intervals_out",
        "merge/comparisons",
        "format/frames_written",
        "format/dir_lookups",
        "stats/rows_emitted",
    ] {
        let key = format!("\"{name}\":");
        let at = json
            .find(&key)
            .unwrap_or_else(|| panic!("counter {name} missing from report:\n{json}"));
        let rest = json[at + key.len()..].trim_start();
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        let value: u64 = digits
            .parse()
            .unwrap_or_else(|_| panic!("counter {name} has a non-numeric value near `{rest:.40}`"));
        assert!(value > 0, "counter {name} is zero");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_percentiles_timeseries_and_stable_baselines() {
    let _serial = SERIAL.lock().unwrap();
    let dir = tmpdir("report_extras");
    let out = dir.join("live");
    let json = run(&argv(&[
        "report",
        "--workload",
        "pingpong",
        "--out",
        out.to_str().unwrap(),
    ]))
    .unwrap();
    // Percentile fields ride on every histogram.
    assert!(json.contains("\"p50\":"), "no p50 in live report");
    assert!(json.contains("\"p95\":"), "no p95 in live report");
    assert!(json.contains("\"p99\":"), "no p99 in live report");
    // The sampler that once fed a series into the report is gone, and
    // its flag with it.
    let refused = run(&argv(&["report", "--metrics-interval", "1"])).unwrap_err();
    assert!(refused.to_string().contains("report: unknown option"));

    // --stable keeps only deterministic values: no percentiles (they
    // derive from wall-clock histograms) — but always the salvage/obs
    // baseline counters, even on a clean run like this.
    let out = dir.join("stable");
    let stable = run(&argv(&[
        "report",
        "--workload",
        "pingpong",
        "--out",
        out.to_str().unwrap(),
        "--stable",
    ]))
    .unwrap();
    assert!(
        !stable.contains("\"p50\":"),
        "percentiles leaked into --stable"
    );
    for key in [
        "salvage/nodes_degraded",
        "salvage/records_skipped",
        "salvage/resyncs",
        "obs/spans_dropped",
        "obs/flows_dropped",
    ] {
        assert!(
            stable.contains(&format!("\"{key}\"")),
            "baseline counter {key} missing from stable report:\n{stable}"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_snapshot_tsv_lists_stage_spans() {
    let _serial = SERIAL.lock().unwrap();
    // Drive one conversion directly and check the TSV surface used by
    // `--metrics`, rendered over the spans of that run, carries the
    // per-stage span row.
    let dir = tmpdir("tsv");
    let out = dir.to_str().unwrap().to_string();
    run(&argv(&["trace", "--workload", "pingpong", "--out", &out])).unwrap();
    ute::obs::set_capture(true);
    ute::obs::drain_spans();
    let converted = run(&argv(&["convert", "--in", &out]));
    ute::obs::set_capture(false);
    converted.unwrap();
    let snap = ute::obs::snapshot().with_spans(&ute::obs::drain_spans());
    let tsv = snap.to_tsv();
    assert!(tsv.starts_with("kind\tname\tvalue"), "{tsv}");
    assert!(
        tsv.lines().any(|l| l.contains("convert/span_ns")),
        "no convert span histogram in:\n{tsv}"
    );
    assert!(snap.counter("rawtrace/records_cut").unwrap_or(0) > 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// The `<stage>/span_ns` rows of `ute report` are the spans the same
/// invocation writes to its self-trace: the same count, sum, min and
/// max per stage, and percentiles that are measured durations.
#[test]
fn report_span_rows_are_the_captured_spans() {
    let _serial = SERIAL.lock().unwrap();
    let dir = tmpdir("rows_are_spans");
    let out = dir.join("run");
    let trace = dir.join("self.json");
    let msg = run(&argv(&[
        "report",
        "--workload",
        "stencil",
        "--out",
        out.to_str().unwrap(),
        "--self-trace",
        trace.to_str().unwrap(),
        "--self-trace-format",
        "chrome",
    ]))
    .unwrap();

    // Every span's duration in ns, by stage: `dur` is µs to three
    // decimals, so the digits are the exact ns.
    let ns = |line: &str, key: &str| -> u64 {
        let at = line.find(key).unwrap() + key.len();
        let digits: String = line[at..]
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.')
            .filter(|c| *c != '.')
            .collect();
        digits.parse().unwrap()
    };
    let mut spans: std::collections::BTreeMap<String, Vec<u64>> = Default::default();
    for line in std::fs::read_to_string(&trace).unwrap().lines() {
        if line.contains("\"ph\":\"X\"") {
            let at = line.find("\"cat\":\"").unwrap() + 7;
            let stage = &line[at..at + line[at..].find('"').unwrap()];
            spans
                .entry(stage.to_string())
                .or_default()
                .push(ns(line, "\"dur\":"));
        }
    }
    spans.remove("cli");

    let mut rows = std::collections::BTreeMap::new();
    for line in msg.lines() {
        let Some(name) = line.trim().strip_prefix('"') else {
            continue;
        };
        let Some((stage, _)) = name.split_once("/span_ns\": {\"count\"") else {
            continue;
        };
        let field = |key: &str| num_after(line, &format!("\"{key}\": ")).unwrap() as u64;
        let durs = spans
            .get(stage)
            .unwrap_or_else(|| panic!("{stage} has a row and no spans"));
        let (count, sum) = (durs.len() as u64, durs.iter().sum::<u64>());
        let (min, max) = (*durs.iter().min().unwrap(), *durs.iter().max().unwrap());
        assert_eq!(
            [field("count"), field("sum"), field("min"), field("max")],
            [count, sum, min, max],
            "{stage}: count, sum, min, max"
        );
        for p in ["p50", "p95", "p99"] {
            assert!(
                durs.contains(&field(p)),
                "{stage}: {p} = {} is not a span duration",
                field(p)
            );
        }
        rows.insert(stage.to_string(), count);
    }
    assert!(rows.len() >= 5, "too few span rows: {rows:?}");
    assert_eq!(
        rows.keys().collect::<Vec<_>>(),
        spans.keys().collect::<Vec<_>>(),
        "a stage has spans and no row, or a row and no spans"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A `ute report` run merges once: `ute pipeline` builds `run.slog` from
/// the merged file instead of merging the per-node files a second time,
/// so the merge counters describe exactly the one merged file.
#[test]
fn report_counts_one_merge() {
    let _serial = SERIAL.lock().unwrap();
    let dir = tmpdir("one_merge");
    let out = dir.to_str().unwrap().to_string();
    run(&argv(&[
        "report",
        "--workload",
        "stencil",
        "--out",
        &out,
        "--stable",
    ]))
    .unwrap();
    let snap = ute::obs::snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    let profile = Profile::standard();
    let records = |name: &str| {
        let bytes = std::fs::read(dir.join(name)).unwrap();
        let reader = IntervalFileReader::open(&bytes, &profile).unwrap();
        reader.total_records().unwrap()
    };
    let converted: u64 = (0..4).map(|n| records(&format!("trace.{n}.ivl"))).sum();
    assert_eq!(counter("convert/intervals_out"), converted);
    assert_eq!(counter("merge/records_out"), records("merged.ivl"));
    assert_eq!(counter("merge/records_in"), converted);
    std::fs::remove_dir_all(&dir).ok();
}
