//! The self-trace sink: the framework dogfoods its own format.
//!
//! Spans captured by `ute-obs` during a run are re-emitted in one of
//! two formats:
//!
//! * **`ivl`** (default) — UTE interval records, one timeline per
//!   `(stage, thread)` pair, one MARKER interval per span, so the
//!   framework's own viewers (`ute preview --ivl`, `ute view`) can open
//!   the file. The span *hierarchy* rides along in the standard
//!   profile's extra fields: `address` carries the span's stable id and
//!   `addressEnd` its parent's id (0 for roots) — the same
//!   nested-or-disjoint laminar families `crates/view/src/nest.rs`
//!   reconstructs for user traces.
//! * **`chrome`** — Chrome Trace Event JSON (`ph:"X"` duration events
//!   with `pid` 0 and `tid` = the observability thread index, plus
//!   `ph:"s"`/`ph:"f"` flow events from the span a merge worker staged
//!   a node in to the fold that took the result),
//!   loadable directly in `ui.perfetto.dev` or `chrome://tracing`.
//!
//! Both express span start/duration in nanoseconds since the process
//! epoch (microseconds with fractional precision for Chrome, per the
//! format's convention).

use std::path::Path;

use ute_core::error::Result;
use ute_core::ids::{CpuId, LogicalThreadId, NodeId, Pid, SystemThreadId, TaskId, ThreadType};
use ute_format::file::{FramePolicy, IntervalFileWriter};
use ute_format::profile::{Profile, MASK_PER_NODE};
use ute_format::record::{Interval, IntervalType};
use ute_format::state::StateCode;
use ute_format::thread_table::{ThreadEntry, ThreadTable};
use ute_format::value::Value;
use ute_obs::{json_escape, FinishedSpan, FlowPoint};

/// Output format for `--self-trace` (`--self-trace-format`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelfTraceFormat {
    /// UTE interval file (the default — dogfooding the paper's format).
    #[default]
    Ivl,
    /// Chrome Trace Event JSON for ui.perfetto.dev / chrome://tracing.
    Chrome,
}

impl SelfTraceFormat {
    /// Parses the `--self-trace-format` value.
    pub fn parse(s: &str) -> Option<SelfTraceFormat> {
        match s {
            "ivl" => Some(SelfTraceFormat::Ivl),
            "chrome" => Some(SelfTraceFormat::Chrome),
            _ => None,
        }
    }
}

/// Serializes captured spans into a per-node interval file (standard
/// profile, node 0). Each distinct `(stage, thread)` pair becomes a
/// logical thread — per-thread lanes keep each timeline's intervals
/// laminar (nested or disjoint), which is what lets `nest.rs` recover
/// the hierarchy — and each distinct span label becomes a marker name.
/// The `address`/`addressEnd` extras carry span id and parent id.
pub fn self_trace_bytes(spans: &[FinishedSpan]) -> Result<Vec<u8>> {
    let profile = Profile::standard();

    // (stage, tid) → timeline, in order of first appearance.
    let mut lanes: Vec<(&'static str, u64)> = Vec::new();
    for s in spans {
        if !lanes.contains(&(s.stage, s.tid)) {
            lanes.push((s.stage, s.tid));
        }
    }
    let mut threads = ThreadTable::new();
    for (i, (_, tid)) in lanes.iter().enumerate() {
        threads.register(ThreadEntry {
            task: TaskId(i as u32),
            pid: Pid(1),
            system_tid: SystemThreadId(*tid),
            node: NodeId(0),
            logical: LogicalThreadId(i as u16),
            ttype: ThreadType::User,
        })?;
    }

    // Label → marker id, in order of first appearance (ids from 1).
    let mut markers: Vec<(u32, String)> = Vec::new();
    let marker_of = |markers: &mut Vec<(u32, String)>, label: &str| -> u32 {
        if let Some((id, _)) = markers.iter().find(|(_, n)| n == label) {
            *id
        } else {
            let id = markers.len() as u32 + 1;
            markers.push((id, label.to_string()));
            id
        }
    };

    let mut records: Vec<Interval> = Vec::with_capacity(spans.len());
    for s in spans {
        let lane = lanes
            .iter()
            .position(|&(st, t)| st == s.stage && t == s.tid)
            .unwrap() as u16;
        let marker_id = marker_of(&mut markers, &s.label);
        records.push(
            Interval::basic(
                IntervalType::complete(StateCode::MARKER),
                s.start_ns,
                s.dur_ns,
                CpuId(0),
                NodeId(0),
                LogicalThreadId(lane),
            )
            .try_with_extra(&profile, "markerId", Value::Uint(marker_id as u64))?
            .try_with_extra(&profile, "address", Value::Uint(s.id))?
            .try_with_extra(&profile, "addressEnd", Value::Uint(s.parent))?,
        );
    }
    // The writer requires ascending end-time order (spans are logged in
    // drop order, which is close to but not exactly end-ordered).
    records.sort_by_key(|iv| iv.end());

    let mut w = IntervalFileWriter::new(
        &profile,
        MASK_PER_NODE,
        0,
        &threads,
        &markers,
        FramePolicy::default(),
    );
    for iv in &records {
        w.push(iv)?;
    }
    Ok(w.finish())
}

/// Chrome's `ts` unit is microseconds; keep ns precision as fractions.
fn us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1000.0)
}

/// Serializes captured spans and flow points as Chrome Trace Event JSON
/// (the `{"traceEvents": [...]}` object form). Every span becomes a
/// `ph:"X"` complete event with `pid` 0, `tid` = observability thread
/// index, category = stage, and span id / parent id / aborted flag /
/// thread CPU time in `args`. Worker-to-fold handoffs become `ph:"s"` →
/// `ph:"f"` flow pairs;
/// a flow end binds to the enclosing slice at its timestamp, so both
/// ends land inside the spans that produced them. Only
/// links with **both** ends recorded are emitted. Events are sorted by
/// timestamp (metadata first), as the format recommends.
pub fn chrome_trace_json(spans: &[FinishedSpan], flows: &[FlowPoint]) -> String {
    // (sort key ns, rendered event). Metadata sorts before everything.
    let mut events: Vec<(u64, String)> = Vec::new();

    let mut tids: Vec<u64> = spans.iter().map(|s| s.tid).collect();
    tids.extend(flows.iter().map(|f| f.tid));
    tids.sort_unstable();
    tids.dedup();
    events.push((
        0,
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"ute self-trace\"}}"
            .to_string(),
    ));
    for &tid in &tids {
        events.push((
            0,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
                 \"args\":{{\"name\":\"obs thread {tid}\"}}}}"
            ),
        ));
    }

    for s in spans {
        events.push((
            s.start_ns,
            format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":0,\"tid\":{},\"args\":{{\"span\":{},\"parent\":{},\"aborted\":{},\"cpu_ns\":{}}}}}",
                json_escape(&s.label),
                json_escape(s.stage),
                us(s.start_ns),
                us(s.dur_ns),
                s.tid,
                s.id,
                s.parent,
                s.aborted,
                s.cpu_ns,
            ),
        ));
    }

    // Pair up flow points; emit only complete begin/end pairs.
    for f in flows.iter().filter(|f| f.begin) {
        let Some(end) = flows.iter().find(|e| !e.begin && e.link == f.link) else {
            continue;
        };
        events.push((
            f.at_ns,
            format!(
                "{{\"name\":\"handoff\",\"cat\":\"pipeline\",\"ph\":\"s\",\"id\":{},\
                 \"ts\":{},\"pid\":0,\"tid\":{}}}",
                f.link,
                us(f.at_ns),
                f.tid,
            ),
        ));
        events.push((
            end.at_ns,
            format!(
                "{{\"name\":\"handoff\",\"cat\":\"pipeline\",\"ph\":\"f\",\"bp\":\"e\",\
                 \"id\":{},\"ts\":{},\"pid\":0,\"tid\":{}}}",
                end.link,
                us(end.at_ns),
                end.tid,
            ),
        ));
    }

    events.sort_by_key(|(at, _)| *at);
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, (_, e)) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(e);
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Writes the self-trace for `spans`/`flows` to `path` in `format`
/// (flow links only appear in the Chrome form; the ivl form carries the
/// hierarchy in its extra fields instead).
pub fn write_self_trace(
    spans: &[FinishedSpan],
    flows: &[FlowPoint],
    path: &Path,
    format: SelfTraceFormat,
) -> Result<()> {
    let bytes = match format {
        SelfTraceFormat::Ivl => self_trace_bytes(spans)?,
        SelfTraceFormat::Chrome => chrome_trace_json(spans, flows).into_bytes(),
    };
    // By rename, like every file another command may have mapped
    // (`ute preview --ivl` reads this one).
    ute_store::atomic_write(path, &bytes)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ute_format::file::IntervalFileReader;

    fn span(stage: &'static str, label: &str, start: u64, dur: u64) -> FinishedSpan {
        span_on(stage, label, start, dur, 0, 0, 0)
    }

    #[allow(clippy::too_many_arguments)]
    fn span_on(
        stage: &'static str,
        label: &str,
        start: u64,
        dur: u64,
        tid: u64,
        id: u64,
        parent: u64,
    ) -> FinishedSpan {
        FinishedSpan {
            stage,
            label: label.to_string(),
            start_ns: start,
            dur_ns: dur,
            id,
            parent,
            tid,
            aborted: false,
            cpu_ns: 0,
        }
    }

    #[test]
    fn spans_round_trip_as_intervals() {
        let spans = vec![
            span_on("convert", "convert node 0", 10, 100, 0, 1, 0),
            span_on("convert", "convert node 1", 20, 50, 0, 2, 1),
            span_on("merge", "merge node 0", 200, 40, 0, 3, 0),
        ];
        let bytes = self_trace_bytes(&spans).unwrap();
        let p = Profile::standard();
        let r = IntervalFileReader::open(&bytes, &p).unwrap();
        assert_eq!(r.threads.len(), 2); // (convert,0) + (merge,0) lanes
        assert_eq!(r.markers.len(), 3);
        let ivs: Vec<Interval> = r.intervals().map(|x| x.unwrap()).collect();
        assert_eq!(ivs.len(), 3);
        for w in ivs.windows(2) {
            assert!(w[0].end() <= w[1].end());
        }
        // The node-1 convert span kept its timing, marker binding, and
        // hierarchy ids (address = span id, addressEnd = parent id).
        let iv = ivs.iter().find(|iv| iv.start == 20).unwrap();
        assert_eq!(iv.duration, 50);
        let id = iv.extra(&p, "markerId").and_then(|v| v.as_uint()).unwrap();
        let name = &r.markers.iter().find(|(i, _)| *i as u64 == id).unwrap().1;
        assert_eq!(name, "convert node 1");
        assert_eq!(iv.extra(&p, "address").and_then(|v| v.as_uint()), Some(2));
        assert_eq!(
            iv.extra(&p, "addressEnd").and_then(|v| v.as_uint()),
            Some(1)
        );
    }

    #[test]
    fn per_thread_lanes_split_a_stage() {
        let spans = vec![
            span_on("pipeline", "worker a", 10, 100, 1, 1, 0),
            span_on("pipeline", "worker b", 10, 100, 2, 2, 0),
        ];
        let bytes = self_trace_bytes(&spans).unwrap();
        let p = Profile::standard();
        let r = IntervalFileReader::open(&bytes, &p).unwrap();
        // Same stage, two threads → two lanes (overlap stays laminar).
        assert_eq!(r.threads.len(), 2);
    }

    #[test]
    fn empty_span_log_still_writes_a_valid_file() {
        let bytes = self_trace_bytes(&[]).unwrap();
        let p = Profile::standard();
        let r = IntervalFileReader::open(&bytes, &p).unwrap();
        assert_eq!(r.intervals().count(), 0);
    }

    #[test]
    fn chrome_trace_emits_sorted_events_and_paired_flows() {
        let spans = vec![
            span_on("pipeline", "convert worker node 0", 2000, 5000, 1, 2, 1),
            span_on("cli", "pipeline", 1000, 9000, 0, 1, 0),
        ];
        let flows = vec![
            FlowPoint {
                link: 7,
                at_ns: 3000,
                tid: 1,
                begin: true,
            },
            FlowPoint {
                link: 7,
                at_ns: 4000,
                tid: 0,
                begin: false,
            },
            // Unpaired begin: must not be emitted.
            FlowPoint {
                link: 9,
                at_ns: 3500,
                tid: 1,
                begin: true,
            },
        ];
        let json = chrome_trace_json(&spans, &flows);
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"s\",\"id\":7"));
        assert!(json.contains("\"ph\":\"f\",\"bp\":\"e\",\"id\":7"));
        assert!(!json.contains("\"id\":9"), "unpaired flow leaked: {json}");
        // Span fields: ts in µs, hierarchy in args.
        assert!(json.contains("\"ts\":1.000"));
        assert!(json.contains("\"args\":{\"span\":2,\"parent\":1,\"aborted\":false,\"cpu_ns\":0}"));
        // Events are ts-sorted: the cli root (1µs) precedes the worker
        // (2µs) even though the input order was reversed.
        let root = json.find("\"name\":\"pipeline\"").unwrap();
        let worker = json.find("\"name\":\"convert worker node 0\"").unwrap();
        assert!(root < worker);
    }

    #[test]
    fn chrome_escapes_and_handles_empty() {
        let json = chrome_trace_json(&[], &[]);
        assert!(json.contains("\"traceEvents\""));
        let spans = vec![span("convert", "odd \"label\"\\path", 1, 1)];
        let json = chrome_trace_json(&spans, &[]);
        assert!(json.contains("odd \\\"label\\\"\\\\path"));
    }
}
