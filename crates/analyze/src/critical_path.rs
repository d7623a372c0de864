//! Critical-path extraction through the message graph.
//!
//! PerFlow-style: the trace is a DAG whose edges are (a) consecutive
//! pieces on one timeline and (b) matched messages, send completion →
//! receive completion on the `(sender rank, seq)` key. A longest-path
//! dynamic program over the end-time-ordered rows finds the activity
//! chain with the most accumulated time, and the per-stage attribution
//! says *what kind* of work dominates it — the chain no amount of
//! added parallelism would shorten.
//!
//! Record fields consumed: `rank`, `peer`, `seq` plus the common fields
//! of every piece (clock and gap bookkeeping records are skipped).

use std::collections::{BTreeMap, HashMap};

use ute_core::event::Messages;
use ute_format::state::StateCode;

use crate::findings::{Finding, Severity};
use crate::table::TraceTable;
use crate::{ms, DiagOptions};

/// Runs the diagnostic over a table. Emits one info finding with the
/// path profile (empty tables produce no finding).
pub fn critical_path(t: &TraceTable, _opts: &DiagOptions) -> Vec<Finding> {
    if t.is_empty() {
        return Vec::new();
    }
    // cp[i]: most accumulated activity time over chains ending at row
    // i's completion; pred[i]: the chain's previous row.
    let mut cp = vec![0u64; t.len()];
    let mut pred = vec![usize::MAX; t.len()];
    let mut last_on: HashMap<(u16, u16), usize> = HashMap::new();
    let mut sends: Messages<usize> = Messages::default();
    let (mut best_row, mut best_cp) = (usize::MAX, 0u64);
    for i in 0..t.len() {
        let state = t.state_code(i);
        if state == StateCode::CLOCK || state == StateCode::GAP {
            continue;
        }
        let tl = (t.node[i], t.thread[i]);
        let (mut from, mut p) = (0u64, usize::MAX);
        if let Some(&j) = last_on.get(&tl) {
            // Rows of one timeline are disjoint and end-ordered, so j is
            // always a legal predecessor.
            (from, p) = (cp[j], j);
        }
        if let Some(&j) = sends.pair(t.message_end(i), || i) {
            if cp[j] > from {
                (from, p) = (cp[j], j);
            }
        }
        cp[i] = from + t.duration[i];
        pred[i] = p;
        last_on.insert(tl, i);
        if cp[i] > best_cp {
            (best_row, best_cp) = (i, cp[i]);
        }
    }
    if best_row == usize::MAX {
        return Vec::new();
    }

    // Walk the path back, attributing time per state and per node.
    let mut by_state: BTreeMap<String, u64> = BTreeMap::new();
    let mut by_node: BTreeMap<u16, u64> = BTreeMap::new();
    let mut segments = 0u64;
    let mut hops = 0u64;
    let mut i = best_row;
    loop {
        *by_state.entry(t.state_code(i).name()).or_default() += t.duration[i];
        *by_node.entry(t.node[i]).or_default() += t.duration[i];
        segments += 1;
        let p = pred[i];
        if p == usize::MAX {
            break;
        }
        if (t.node[p], t.thread[p]) != (t.node[i], t.thread[i]) {
            hops += 1;
        }
        i = p;
    }
    let (span_lo, span_hi) = t.span().unwrap_or((0, 0));
    let wall = span_hi.saturating_sub(span_lo);
    let coverage = if wall > 0 {
        best_cp as f64 / wall as f64
    } else {
        0.0
    };
    let mut stages: Vec<(&String, &u64)> = by_state.iter().collect();
    stages.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    let top = stages
        .iter()
        .take(4)
        .map(|(name, ticks)| format!("{name} {} ms", ms(**ticks)))
        .collect::<Vec<_>>()
        .join("; ");
    let end_node = t.node[best_row];
    vec![Finding {
        diagnostic: "critical_path",
        severity: Severity::Info,
        node: Some(end_node),
        rank: None,
        phase: None,
        value: best_cp as f64,
        message: format!(
            "critical path: {} ms over {segments} segments and {hops} message/thread hops \
             ({:.0}% of the {} ms run), ending on node {end_node}; top stages: {top}",
            ms(best_cp),
            coverage * 100.0,
            ms(wall)
        ),
        details: vec![
            ("path_ms".into(), ms(best_cp)),
            ("wallclock_ms".into(), ms(wall)),
            ("coverage".into(), format!("{coverage:.3}")),
            ("segments".into(), segments.to_string()),
            ("hops".into(), hops.to_string()),
            ("top_stages".into(), top),
            ("nodes_touched".into(), by_node.keys().len().to_string()),
        ],
    }]
}
