//! # ute-analyze — programmable diagnostics over interval files
//!
//! The paper's framework stops at declarative statistics and rendered
//! views; this crate adds the layer Pipit and PerFlow built years later
//! over the same kind of data: a queryable, columnar trace table
//! ([`table::TraceTable`]) loaded through the frame directory (only the
//! requested time window / node set, never the whole file), and four
//! built-in distributed-performance diagnostics, each a loop over the
//! table's columns, returning structured findings:
//!
//! * [`late_sender`] — wait time charged to tardy senders, matched on
//!   the job-wide `(sender rank, seq)` message key;
//! * [`imbalance`] — per-phase max/mean exclusive-time scoring across
//!   nodes;
//! * [`comm_pattern`] — adjacency-matrix classification
//!   (nearest-neighbor / all-to-all / hub / irregular);
//! * [`critical_path`] — longest activity chain through intra-timeline
//!   ordering plus matched messages, with per-stage attribution.
//!
//! The analyzer instruments itself with `ute-obs` spans and `analyze/*`
//! counters, so its cost shows up in `--metrics` and `ute report` like
//! every other pipeline stage.

pub mod comm_pattern;
pub mod findings;
pub mod imbalance;
pub mod late_sender;
pub mod table;

/// The critical-path diagnostic.
pub mod critical_path;

pub use findings::{render_report_json, summary_json, Finding, Severity};
pub use table::{load_table, LoadOptions, TraceTable, NO_FIELD};

use ute_core::error::{Result, UteError};

/// Names of the built-in diagnostics, in run order.
pub const DIAGNOSTICS: &[&str] = &["late_sender", "imbalance", "comm_pattern", "critical_path"];

/// Thresholds and limits shared by the diagnostics.
#[derive(Debug, Clone, Copy)]
pub struct DiagOptions {
    /// Minimum max/mean exclusive-time ratio to flag a phase.
    pub imbalance_threshold: f64,
    /// Minimum total receiver wait (ticks) to blame a sender.
    pub min_wait: u64,
    /// Cap on findings per diagnostic.
    pub max_findings: usize,
}

impl Default for DiagOptions {
    fn default() -> Self {
        DiagOptions {
            imbalance_threshold: 1.25,
            min_wait: 50_000, // 50 µs
            max_findings: 16,
        }
    }
}

/// Ticks → milliseconds with 3 decimals, for messages and details.
pub(crate) fn ms(ticks: u64) -> String {
    format!("{:.3}", ticks as f64 / 1e6)
}

/// Runs one diagnostic by name.
pub fn run_diagnostic(name: &str, table: &TraceTable, opts: &DiagOptions) -> Result<Vec<Finding>> {
    let _span = ute_obs::Span::enter("analyze", name.to_string());
    let findings = match name {
        "late_sender" => late_sender::late_sender(table, opts),
        "imbalance" => imbalance::imbalance(table, opts),
        "comm_pattern" => comm_pattern::comm_pattern(table, opts),
        "critical_path" => critical_path::critical_path(table, opts),
        other => {
            return Err(UteError::Invalid(format!(
                "unknown diagnostic `{other}` (late_sender|imbalance|comm_pattern|critical_path)"
            )))
        }
    };
    ute_obs::counter("analyze/findings").add(findings.len() as u64);
    Ok(findings)
}

/// Runs every built-in diagnostic, concatenating findings in
/// [`DIAGNOSTICS`] order.
pub fn run_all(table: &TraceTable, opts: &DiagOptions) -> Vec<Finding> {
    DIAGNOSTICS
        .iter()
        .flat_map(|d| run_diagnostic(d, table, opts).expect("built-in diagnostic"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ute_core::bebits::BeBits;
    use ute_core::event::MpiOp;
    use ute_core::ids::{CpuId, LogicalThreadId, NodeId};
    use ute_format::profile::Profile;
    use ute_format::record::{Interval, IntervalType};
    use ute_format::state::StateCode;
    use ute_format::value::Value;

    fn iv(state: StateCode, start: u64, dur: u64, node: u16, thread: u16) -> Interval {
        Interval::basic(
            IntervalType::complete(state),
            start,
            dur,
            CpuId(0),
            NodeId(node),
            LogicalThreadId(thread),
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn mpi_iv(
        profile: &Profile,
        op: MpiOp,
        start: u64,
        dur: u64,
        node: u16,
        rank: u64,
        peer: u64,
        seq: u64,
    ) -> Interval {
        iv(StateCode::mpi(op), start, dur, node, 0)
            .with_extra(profile, "rank", Value::Uint(rank))
            .with_extra(profile, "peer", Value::Uint(peer))
            .with_extra(profile, "seq", Value::Uint(seq))
            .with_extra(profile, "msgSizeSent", Value::Uint(1024))
    }

    fn end_sorted(mut ivs: Vec<Interval>) -> Vec<Interval> {
        ivs.sort_by_key(|iv| iv.end());
        ivs
    }

    /// A two-rank scenario: rank 1 posts its recv at t=100, rank 0 only
    /// sends at t=1000 — a 900-tick wait charged to rank 0.
    fn late_send_trace(profile: &Profile) -> Vec<Interval> {
        end_sorted(vec![
            iv(StateCode::RUNNING, 0, 1000, 0, 0),
            mpi_iv(profile, MpiOp::Send, 1000, 300_000, 0, 0, 1, 1),
            iv(StateCode::RUNNING, 0, 100, 1, 0),
            mpi_iv(profile, MpiOp::Recv, 100, 301_000, 1, 1, 0, 1),
        ])
    }

    #[test]
    fn late_sender_blames_the_sender() {
        let p = Profile::standard();
        let t = TraceTable::from_intervals(&p, &late_send_trace(&p), vec![]);
        let opts = DiagOptions {
            min_wait: 1,
            ..DiagOptions::default()
        };
        let f = late_sender::late_sender(&t, &opts);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rank, Some(0));
        assert_eq!(f[0].node, Some(0));
        assert_eq!(f[0].value, 900.0);
    }

    #[test]
    fn late_sender_respects_begin_pieces() {
        // Split recv: the End piece starts at t=900 but the call was
        // entered at t=100 (Begin piece) — the wait is still 900 ticks.
        let p = Profile::standard();
        let mut recv_begin = iv(StateCode::mpi(MpiOp::Recv), 100, 200, 1, 0);
        recv_begin.itype.bebits = BeBits::Begin;
        let mut recv_end = mpi_iv(&p, MpiOp::Recv, 900, 200_200, 1, 1, 0, 1);
        recv_end.itype.bebits = BeBits::End;
        let t = TraceTable::from_intervals(
            &p,
            &end_sorted(vec![
                recv_begin,
                mpi_iv(&p, MpiOp::Send, 1000, 100_000, 0, 0, 1, 1),
                recv_end,
            ]),
            vec![],
        );
        let opts = DiagOptions {
            min_wait: 1,
            ..DiagOptions::default()
        };
        let f = late_sender::late_sender(&t, &opts);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].value, 900.0);
    }

    #[test]
    fn imbalance_flags_the_hot_node_per_phase() {
        let p = Profile::standard();
        let mk = |start: u64, dur: u64, node: u16| {
            iv(StateCode::MARKER, start, dur, node, 0).with_extra(&p, "markerId", Value::Uint(1))
        };
        let t = TraceTable::from_intervals(
            &p,
            &end_sorted(vec![mk(0, 100, 0), mk(0, 100, 1), mk(0, 400, 2)]),
            vec![(1, "Iteration".into())],
        );
        let f = imbalance::imbalance(&t, &DiagOptions::default());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].node, Some(2));
        assert_eq!(f[0].phase.as_deref(), Some("Iteration"));
        assert!(f[0].value > 1.9, "{}", f[0].value);
    }

    #[test]
    fn imbalance_is_quiet_when_balanced() {
        let p = Profile::standard();
        let mk = |dur: u64, node: u16| {
            iv(StateCode::MARKER, 0, dur, node, 0).with_extra(&p, "markerId", Value::Uint(1))
        };
        let t = TraceTable::from_intervals(
            &p,
            &[mk(100, 0), mk(101, 1), mk(99, 2)],
            vec![(1, "Iteration".into())],
        );
        assert!(imbalance::imbalance(&t, &DiagOptions::default()).is_empty());
    }

    #[test]
    fn comm_pattern_classifies_ring_and_hub() {
        let p = Profile::standard();
        // 4-rank ring.
        let ring: Vec<Interval> = (0..4u64)
            .map(|r| mpi_iv(&p, MpiOp::Send, r * 10, 5, r as u16, r, (r + 1) % 4, 1))
            .collect();
        let t = TraceTable::from_intervals(&p, &end_sorted(ring), vec![]);
        let f = comm_pattern::comm_pattern(&t, &DiagOptions::default());
        assert_eq!(f[0].details[0].1, "nearest_neighbor", "{f:?}");
        // Everyone sends to rank 0.
        let hub: Vec<Interval> = (1..5u64)
            .map(|r| mpi_iv(&p, MpiOp::Send, r * 10, 5, r as u16, r, 0, 1))
            .collect();
        let t = TraceTable::from_intervals(&p, &end_sorted(hub), vec![]);
        let f = comm_pattern::comm_pattern(&t, &DiagOptions::default());
        assert_eq!(f[0].details[0].1, "hub", "{f:?}");
        assert_eq!(f[0].rank, Some(0));
    }

    #[test]
    fn critical_path_follows_the_message() {
        let p = Profile::standard();
        let t = TraceTable::from_intervals(&p, &late_send_trace(&p), vec![]);
        let f = critical_path::critical_path(&t, &DiagOptions::default());
        assert_eq!(f.len(), 1);
        // The path is rank 0's compute (1000) + send (300000) + the tail
        // of rank 1's recv — strictly more than either node alone.
        assert!(f[0].value >= 301_000.0, "{}", f[0].value);
        assert_eq!(f[0].node, Some(1));
        let hops: u64 = f[0]
            .details
            .iter()
            .find(|(k, _)| k == "hops")
            .unwrap()
            .1
            .parse()
            .unwrap();
        assert!(hops >= 1);
    }

    #[test]
    fn report_json_shape() {
        let p = Profile::standard();
        let t = TraceTable::from_intervals(&p, &late_send_trace(&p), vec![]);
        let f = run_all(&t, &DiagOptions::default());
        let json = render_report_json(DIAGNOSTICS, t.len(), &f);
        assert!(json.contains("\"diagnostics\": [\"late_sender\""), "{json}");
        assert!(json.contains("\"findings\": ["), "{json}");
        let summary = summary_json(DIAGNOSTICS, &f);
        assert!(summary.contains("\"critical_path\": 1"), "{summary}");
        assert!(run_diagnostic("bogus", &t, &DiagOptions::default()).is_err());
    }
}
