//! Late-sender detection (Scalasca's classic wait-state pattern).
//!
//! A receiver that enters `MPI_Recv` (or a `Wait` completing one)
//! *before* its partner enters the matching send is stalled by the
//! sender; that stall is charged to the sender. Pairs are matched on the
//! job-wide `(sender rank, seq)` key that the tracing facility stamps on
//! every message and the converter carries onto the completed call's
//! interval record — the rule `ute-slog` draws arrows by too.
//!
//! Record fields consumed: `rank`, `peer`, `seq` on completed
//! point-to-point intervals, plus the piece structure (a Begin piece
//! pins the call's true entry time when the call was split).

use std::collections::{BTreeMap, HashMap};

use ute_core::bebits::BeBits;
use ute_core::event::Messages;

use crate::findings::{Finding, Severity};
use crate::table::TraceTable;
use crate::{ms, DiagOptions};

#[derive(Default)]
struct Blame {
    node: u16,
    total_wait: u64,
    late: u64,
    max_wait: u64,
}

/// Runs the diagnostic over a table.
pub fn late_sender(t: &TraceTable, opts: &DiagOptions) -> Vec<Finding> {
    // (node, thread, state) → entry time of the currently open call, so
    // a split call's wait is measured from its Begin piece, not from
    // whichever End piece carries the arguments.
    let mut open: HashMap<(u16, u16, u16), u64> = HashMap::new();
    // Sends by key, as (node, call entry time).
    let mut sends: Messages<(u16, u64)> = Messages::default();
    let mut blame: BTreeMap<u64, Blame> = BTreeMap::new();
    let mut matched = 0u64;
    for i in 0..t.len() {
        let key = (t.node[i], t.thread[i], t.state[i]);
        let call_start = match t.bebits[i] {
            BeBits::Begin => {
                open.insert(key, t.start[i]);
                continue;
            }
            BeBits::Continuation => continue,
            BeBits::End => open.remove(&key).unwrap_or(t.start[i]),
            BeBits::Complete => t.start[i],
        };
        let send = || (t.node[i], call_start);
        if let Some(&(node, send_start)) = sends.pair(t.message_end(i), send) {
            matched += 1;
            if send_start > call_start {
                let wait = send_start.min(t.end(i)) - call_start;
                let b = blame.entry(t.peer[i]).or_default();
                b.node = node;
                b.total_wait = b.total_wait.saturating_add(wait);
                b.late += 1;
                b.max_wait = b.max_wait.max(wait);
            }
        }
    }
    ute_obs::counter("analyze/msgs_matched").add(matched);

    let mut culprits: Vec<(u64, Blame)> = blame
        .into_iter()
        .filter(|(_, b)| b.total_wait >= opts.min_wait)
        .collect();
    culprits.sort_by(|a, b| b.1.total_wait.cmp(&a.1.total_wait).then(a.0.cmp(&b.0)));
    culprits.truncate(opts.max_findings);
    culprits
        .into_iter()
        .map(|(rank, b)| Finding {
            diagnostic: "late_sender",
            severity: Severity::Warning,
            node: Some(b.node),
            rank: Some(rank),
            phase: None,
            value: b.total_wait as f64,
            message: format!(
                "rank {rank} (node {}) sent late {} time(s); receivers waited {} ms on it",
                b.node,
                b.late,
                ms(b.total_wait)
            ),
            details: vec![
                ("late_messages".into(), b.late.to_string()),
                ("total_wait_ms".into(), ms(b.total_wait)),
                ("max_wait_ms".into(), ms(b.max_wait)),
            ],
        })
        .collect()
}
