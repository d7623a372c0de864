//! Invariant rules for interval files (per-node and merged).
//!
//! | rule | invariant | paper |
//! |------|-----------|-------|
//! | `ivl-open` | header magic, versions, tables decode | §2.3.3 |
//! | `frame-dir-links` | directory chain is doubly linked, in bounds | §2.3.3, Fig. 4 |
//! | `frame-metadata` | entry times/counts/sizes agree with records | §2.3.3 |
//! | `end-time-order` | records sorted by end time, file-wide | §3.1 |
//! | `thread-bounds` | every record's thread resolves in the table | §2.3.3 |
//! | `bebit-laminarity` | per-thread state pieces open/close/nest sanely | §2.3.1, §3.3 |
//! | `profile-resolution` | every record decodes against the profile, and its in-place view reads what the decoder decodes | §2.3.2, §2.4 |

use std::collections::BTreeMap;

use ute_core::ids::{LogicalThreadId, NodeId};
use ute_format::file::IntervalFileReader;
use ute_format::frame::NO_DIR;
use ute_format::plan::PlanSet;
use ute_format::profile::Profile;
use ute_format::record::Interval;
use ute_format::state::StateCode;
use ute_format::thread_table::ThreadTable;
use ute_format::RecordFields;

use crate::finding::{run_rule, ArtifactKind, Finding, Report};
use ute_core::bebits::BeBits;

/// Options for the interval-file rule suite.
#[derive(Debug, Clone, Copy, Default)]
pub struct IvlCheckOptions {
    /// Treat open states at end-of-file as a warning instead of an
    /// error (useful when checking artifacts a salvage run produced from
    /// intentionally truncated inputs — the converter force-closes open
    /// states, so clean output should still have none).
    pub lenient_tail: bool,
}

/// Runs the full interval-file rule suite over serialized bytes.
pub fn check_interval_bytes(
    label: &str,
    bytes: &[u8],
    profile: &Profile,
    opts: IvlCheckOptions,
) -> Report {
    let mut report = Report::new(label, ArtifactKind::Interval);

    // Rule: the header itself. Everything else needs an open reader, so
    // a failure here short-circuits the suite (with one finding, not a
    // cascade).
    let mut opened = false;
    run_rule(
        &mut report,
        "ivl-open",
        |r| match IntervalFileReader::open(bytes, profile) {
            Ok(_) => {}
            Err(e) => r
                .findings
                .push(Finding::error("ivl-open", format!("cannot open: {e}"))),
        },
    );
    if report.passed() {
        opened = true;
    }
    if !opened {
        return report;
    }
    let reader = match IntervalFileReader::open(bytes, profile) {
        Ok(r) => r,
        Err(_) => return report, // unreachable: checked above
    };

    run_rule(&mut report, "frame-dir-links", |r| {
        rule_frame_dir_links(r, &reader, bytes.len() as u64)
    });
    // Decode every frame once; the remaining rules all walk the decoded
    // stream. A frame that fails to decode produces a finding and is
    // skipped by the stream rules (they see what could be read).
    let mut stream: Vec<Interval> = Vec::new();
    run_rule(&mut report, "frame-metadata", |r| {
        rule_frame_metadata(r, &reader, &mut stream)
    });
    report.records = stream.len() as u64;
    run_rule(&mut report, "end-time-order", |r| {
        rule_end_time_order(r, &stream)
    });
    run_rule(&mut report, "thread-bounds", |r| {
        rule_thread_bounds(r, &stream, &reader.threads)
    });
    run_rule(&mut report, "bebit-laminarity", |r| {
        rule_bebit_laminarity(r, &stream, opts.lenient_tail)
    });
    run_rule(&mut report, "profile-resolution", |r| {
        rule_profile_resolution(r, &reader, profile)
    });
    report
}

/// Frame directories must form a doubly-linked chain: first directory's
/// `prev` is [`NO_DIR`], each directory's `prev` names its predecessor,
/// the last `next` is [`NO_DIR`], and every offset stays inside the
/// file. A cycle (a `next` pointing backwards) is also an error — it
/// would wedge any sequential reader.
fn rule_frame_dir_links(report: &mut Report, reader: &IntervalFileReader<'_>, file_len: u64) {
    let mut at = reader.first_dir;
    let mut prev_at = NO_DIR;
    let mut seen = 0usize;
    while at != NO_DIR {
        if at >= file_len {
            report.findings.push(
                Finding::error(
                    "frame-dir-links",
                    format!("directory offset {at} is past end of file ({file_len} bytes)"),
                )
                .at(at),
            );
            return;
        }
        if at <= prev_at && prev_at != NO_DIR {
            report.findings.push(
                Finding::error(
                    "frame-dir-links",
                    format!("directory chain does not advance: {prev_at} -> {at} (cycle?)"),
                )
                .at(at),
            );
            return;
        }
        let dir = match reader.read_frame_dir(at) {
            Ok(d) => d,
            Err(e) => {
                report.findings.push(
                    Finding::error("frame-dir-links", format!("directory decode failed: {e}"))
                        .at(at),
                );
                return;
            }
        };
        if dir.prev != prev_at {
            report.findings.push(
                Finding::error(
                    "frame-dir-links",
                    format!(
                        "directory at {at}: back link is {} but predecessor is at {prev_at}",
                        dir.prev
                    ),
                )
                .at(at),
            );
        }
        for (i, e) in dir.entries.iter().enumerate() {
            if e.offset.saturating_add(e.size) > file_len {
                report.findings.push(
                    Finding::error(
                        "frame-dir-links",
                        format!(
                            "directory at {at}, frame {i}: [{}, +{}) exceeds file length {file_len}",
                            e.offset, e.size
                        ),
                    )
                    .at(e.offset),
                );
            }
            if e.end_time < e.start_time {
                report.findings.push(
                    Finding::error(
                        "frame-dir-links",
                        format!(
                            "directory at {at}, frame {i}: end time {} precedes start time {}",
                            e.end_time, e.start_time
                        ),
                    )
                    .at(e.offset),
                );
            }
        }
        prev_at = at;
        at = dir.next;
        seen += 1;
        if seen > 1 << 20 {
            report.findings.push(Finding::error(
                "frame-dir-links",
                "directory chain exceeds 2^20 directories (runaway chain)",
            ));
            return;
        }
    }
}

/// Each frame entry's metadata (record count, byte size, time span) must
/// agree with the records actually stored in the frame. Decodes every
/// frame exactly once, accumulating the stream for the later rules.
fn rule_frame_metadata(
    report: &mut Report,
    reader: &IntervalFileReader<'_>,
    stream: &mut Vec<Interval>,
) {
    for dir in reader.directories() {
        let dir = match dir {
            Ok(d) => d,
            Err(_) => break, // already reported by frame-dir-links
        };
        for e in &dir.entries {
            let ivs = match reader.frame_intervals(e) {
                Ok(v) => v,
                Err(err) => {
                    report.findings.push(
                        Finding::error(
                            "frame-metadata",
                            format!("frame at {}: records do not decode: {err}", e.offset),
                        )
                        .at(e.offset),
                    );
                    continue;
                }
            };
            // frame_intervals verifies nrecords and byte size; the time
            // span is ours to check.
            let min_start = ivs.iter().map(|iv| iv.start).min();
            let max_end = ivs.iter().map(|iv| iv.end()).max();
            if let (Some(s), Some(t)) = (min_start, max_end) {
                if s != e.start_time || t != e.end_time {
                    report.findings.push(
                        Finding::error(
                            "frame-metadata",
                            format!(
                                "frame at {}: entry says [{}, {}] but records span [{s}, {t}]",
                                e.offset, e.start_time, e.end_time
                            ),
                        )
                        .at(e.offset),
                    );
                }
            }
            stream.extend(ivs);
        }
    }
}

/// Records must be sorted by end time across the whole file (§3.1:
/// "interval records in an interval file are stored in the order of
/// interval end time").
fn rule_end_time_order(report: &mut Report, stream: &[Interval]) {
    let mut last_end = 0u64;
    for (i, iv) in stream.iter().enumerate() {
        if iv.end() < last_end {
            report.findings.push(Finding::error(
                "end-time-order",
                format!(
                    "record {i} ends at {} but a previous record ended at {last_end}",
                    iv.end()
                ),
            ));
            // One finding per inversion run is enough to be useful.
            last_end = iv.end();
        } else {
            last_end = iv.end();
        }
    }
}

/// Every record's (node, logical thread) must resolve in the thread
/// table, and logical ids must respect the 512-per-node bound. Clock
/// bookkeeping and salvage Gap pseudo-records are exempt: a Gap names a
/// node whose threads were lost with the node.
fn rule_thread_bounds(report: &mut Report, stream: &[Interval], threads: &ThreadTable) {
    // An empty table (some unit-test files and self-traces) makes the
    // rule vacuous rather than flagging every record.
    if threads.is_empty() {
        return;
    }
    let mut reported: std::collections::HashSet<(u16, u16)> = std::collections::HashSet::new();
    for iv in stream {
        let state = iv.itype.state;
        if state == StateCode::CLOCK || state == StateCode::GAP {
            continue;
        }
        let key = (iv.node.raw(), iv.thread.raw());
        if threads
            .lookup(NodeId(key.0), LogicalThreadId(key.1))
            .is_none()
            && reported.insert(key)
        {
            report.findings.push(Finding::error(
                "thread-bounds",
                format!(
                    "record references thread (node {}, logical {}) missing from thread table",
                    key.0, key.1
                ),
            ));
        }
    }
}

/// Bebit sanity per thread: a Continuation or End piece requires its
/// state to have been opened by a Begin; a Begin must not reopen a state
/// already open on the same thread; and closed Begin..End spans on one
/// thread must be laminar (any two either disjoint or nested) — partial
/// overlap means the piece stream cannot be reassembled into a call
/// structure (§3.3's reassembly precondition).
fn rule_bebit_laminarity(report: &mut Report, stream: &[Interval], lenient_tail: bool) {
    type ThreadKey = (u16, u16);
    // Per thread: state -> (begin start time) for open states. Ordered
    // maps throughout: the findings below come out in key order, so two
    // checks of one file print one report.
    let mut open: BTreeMap<ThreadKey, BTreeMap<u16, u64>> = BTreeMap::new();
    // Per thread: closed spans (start, end, state).
    let mut spans: BTreeMap<ThreadKey, Vec<(u64, u64, u16)>> = BTreeMap::new();
    let mut violations = 0usize;
    const MAX_REPORTED: usize = 8;

    for iv in stream {
        let state = iv.itype.state;
        if state == StateCode::CLOCK || state == StateCode::GAP {
            continue;
        }
        let key = (iv.node.raw(), iv.thread.raw());
        let open_here = open.entry(key).or_default();
        match iv.itype.bebits {
            BeBits::Complete => {
                spans
                    .entry(key)
                    .or_default()
                    .push((iv.start, iv.end(), state.0));
            }
            BeBits::Begin => {
                if open_here.insert(state.0, iv.start).is_some() && violations < MAX_REPORTED {
                    violations += 1;
                    report.findings.push(Finding::error(
                        "bebit-laminarity",
                        format!(
                            "thread (node {}, logical {}): state {} begun twice without ending",
                            key.0, key.1, state
                        ),
                    ));
                }
            }
            BeBits::Continuation => {
                if !open_here.contains_key(&state.0) && violations < MAX_REPORTED {
                    violations += 1;
                    report.findings.push(Finding::error(
                        "bebit-laminarity",
                        format!(
                            "thread (node {}, logical {}): continuation of {} with no open begin",
                            key.0, key.1, state
                        ),
                    ));
                }
            }
            BeBits::End => match open_here.remove(&state.0) {
                Some(begun) => {
                    spans
                        .entry(key)
                        .or_default()
                        .push((begun, iv.end(), state.0));
                }
                None => {
                    if violations < MAX_REPORTED {
                        violations += 1;
                        report.findings.push(Finding::error(
                            "bebit-laminarity",
                            format!(
                                "thread (node {}, logical {}): end of {} with no open begin",
                                key.0, key.1, state
                            ),
                        ));
                    }
                }
            },
        }
    }

    for (key, states) in &open {
        if states.is_empty() {
            continue;
        }
        let names: Vec<String> = states.keys().map(|s| StateCode(*s).to_string()).collect();
        let msg = format!(
            "thread (node {}, logical {}): {} state(s) still open at end of file: {}",
            key.0,
            key.1,
            states.len(),
            names.join(", ")
        );
        report.findings.push(if lenient_tail {
            Finding::warning("bebit-laminarity", msg)
        } else {
            Finding::error("bebit-laminarity", msg)
        });
    }

    // Laminarity of reassembled spans: sweep each thread's spans in
    // (start asc, end desc) order with a nesting stack. Zero-duration
    // spans nest trivially and are skipped.
    for (key, mut thread_spans) in spans {
        thread_spans.retain(|(s, e, _)| e > s);
        thread_spans.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut stack: Vec<(u64, u64, u16)> = Vec::new();
        for (s, e, code) in thread_spans {
            while let Some(&(_, top_end, _)) = stack.last() {
                if top_end <= s {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(top_start, top_end, top_code)) = stack.last() {
                // s < top_end here; containment requires e <= top_end.
                if e > top_end && violations < MAX_REPORTED {
                    violations += 1;
                    report.findings.push(Finding::error(
                        "bebit-laminarity",
                        format!(
                            "thread (node {}, logical {}): state {} [{s}, {e}) partially \
                             overlaps state {} [{top_start}, {top_end})",
                            key.0,
                            key.1,
                            StateCode(code),
                            StateCode(top_code),
                        ),
                    ));
                    continue;
                }
            }
            stack.push((s, e, code));
        }
    }
}

/// How the in-place [`ute_format::RecordView`] of `body` differs from
/// `reference`, the reference decode of it (both under node 0), if it
/// does: a view must exist only for a body the reference decoder
/// accepts, and read exactly what it decodes. `every_type_viewable` adds
/// the converse — true of a profile, like the standard one, whose every
/// record type a view can express.
pub(crate) fn view_disagreement(
    plans: &PlanSet,
    body: &[u8],
    reference: &ute_core::error::Result<Interval>,
    every_type_viewable: bool,
) -> Option<String> {
    match (plans.view(body, NodeId(0)), reference) {
        (Some(v), Ok(iv)) => {
            if v.to_interval() != *iv {
                return Some(format!(
                    "view reads {:?} where the reference decodes {iv:?}",
                    v.to_interval()
                ));
            }
            iv.extras.iter().find_map(|(idx, _)| {
                let first = iv.extras.iter().find(|(i, _)| i == idx).map(|(_, v)| v);
                (v.extra_uint(*idx) != first.and_then(|v| v.as_uint()))
                    .then(|| format!("view and reference disagree on extra field {idx}"))
            })
        }
        (Some(_), Err(e)) => Some(format!(
            "view accepts a body the reference decoder rejects ({e})"
        )),
        (None, Ok(_)) if every_type_viewable => {
            Some("view rejects a body the reference decoder accepts".into())
        }
        (None, _) => None,
    }
}

/// Every record body must resolve against the profile: its record type
/// has a spec, the paper's `getItemByName` path agrees with the decoded
/// struct for the common fields (§2.4's "once a utility reads the
/// profile, it knows all field names and record names"), and the
/// in-place view the readers use agrees with the reference decoder.
fn rule_profile_resolution(
    report: &mut Report,
    reader: &IntervalFileReader<'_>,
    profile: &Profile,
) {
    let plans = PlanSet::build(profile, reader.mask);
    let mut checked = 0usize;
    for (i, body) in reader.record_bodies().enumerate() {
        let body = match body {
            Ok(b) => b,
            Err(_) => break, // decode failure already reported upstream
        };
        let decoded = Interval::decode_body(profile, reader.mask, body, NodeId(0));
        if let Some(why) = view_disagreement(&plans, body, &decoded, false) {
            report.findings.push(Finding::error(
                "profile-resolution",
                format!("record {i}: {why}"),
            ));
        }
        let start = match profile.get_item_by_name(reader.mask, body, "start") {
            Ok(v) => v,
            Err(e) => {
                report.findings.push(Finding::error(
                    "profile-resolution",
                    format!("record {i}: getItemByName(start) failed: {e}"),
                ));
                continue;
            }
        };
        match (&start, &decoded) {
            (Some(v), Ok(iv)) => {
                if v.as_uint() != Some(iv.start) {
                    report.findings.push(Finding::error(
                        "profile-resolution",
                        format!(
                            "record {i}: getItemByName(start) = {v:?} disagrees with decoded {}",
                            iv.start
                        ),
                    ));
                }
            }
            (None, Ok(_)) => {
                report.findings.push(Finding::error(
                    "profile-resolution",
                    format!("record {i}: profile resolves no `start` field"),
                ));
            }
            (_, Err(e)) => {
                report.findings.push(Finding::error(
                    "profile-resolution",
                    format!("record {i} does not decode against the profile: {e}"),
                ));
            }
        }
        checked += 1;
        // The stream rules already decoded everything; sampling the
        // name-resolution path on a prefix keeps the suite linear-time
        // even on huge merged files.
        if checked >= 4096 {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ute_core::ids::{CpuId, Pid, SystemThreadId, TaskId, ThreadType};
    use ute_format::file::{FramePolicy, IntervalFileWriter};
    use ute_format::profile::MASK_PER_NODE;
    use ute_format::record::IntervalType;
    use ute_format::thread_table::ThreadEntry;

    fn threads() -> ThreadTable {
        let mut t = ThreadTable::new();
        t.register(ThreadEntry {
            task: TaskId(0),
            pid: Pid(1),
            system_tid: SystemThreadId(1),
            node: NodeId(1),
            logical: LogicalThreadId(0),
            ttype: ThreadType::Mpi,
        })
        .unwrap();
        t
    }

    fn piece(state: StateCode, bebits: BeBits, start: u64, dur: u64) -> Interval {
        Interval::basic(
            IntervalType { state, bebits },
            start,
            dur,
            CpuId(0),
            NodeId(1),
            LogicalThreadId(0),
        )
    }

    fn build(ivs: &[Interval]) -> Vec<u8> {
        let p = Profile::standard();
        let mut w =
            IntervalFileWriter::new(&p, MASK_PER_NODE, 1, &threads(), &[], FramePolicy::tiny());
        let mut sorted = ivs.to_vec();
        sorted.sort_by_key(|iv| iv.end());
        for iv in &sorted {
            w.push(iv).unwrap();
        }
        w.finish()
    }

    #[test]
    fn clean_file_passes_all_rules() {
        let ivs: Vec<Interval> = (0..40)
            .map(|i| piece(StateCode::RUNNING, BeBits::Complete, i * 10, 10))
            .collect();
        let bytes = build(&ivs);
        let p = Profile::standard();
        let r = check_interval_bytes("t", &bytes, &p, IvlCheckOptions::default());
        assert!(r.passed(), "{}", r.render());
        assert_eq!(r.records, 40);
        assert_eq!(r.rules_run.len(), 7);
    }

    #[test]
    fn piece_chains_pass_laminarity() {
        let ivs = vec![
            piece(StateCode::RUNNING, BeBits::Begin, 0, 10),
            piece(StateCode::SYSCALL, BeBits::Complete, 10, 5),
            piece(StateCode::RUNNING, BeBits::Continuation, 15, 5),
            piece(StateCode::RUNNING, BeBits::End, 20, 10),
        ];
        let bytes = build(&ivs);
        let p = Profile::standard();
        let r = check_interval_bytes("t", &bytes, &p, IvlCheckOptions::default());
        assert!(r.passed(), "{}", r.render());
    }

    #[test]
    fn orphan_end_and_open_begin_flagged() {
        let ivs = vec![
            piece(StateCode::SYSCALL, BeBits::End, 0, 5),
            piece(StateCode::IO, BeBits::Begin, 10, 5),
        ];
        let bytes = build(&ivs);
        let p = Profile::standard();
        let r = check_interval_bytes("t", &bytes, &p, IvlCheckOptions::default());
        assert_eq!(r.errors(), 2, "{}", r.render());
        assert!(r.rules_violated().contains(&"bebit-laminarity"));
        // Lenient tail downgrades only the open-at-EOF half.
        let r = check_interval_bytes("t", &bytes, &p, IvlCheckOptions { lenient_tail: true });
        assert_eq!(r.errors(), 1, "{}", r.render());
        assert_eq!(r.warnings(), 1);
    }

    #[test]
    fn laminarity_findings_come_out_in_thread_order() {
        // Five threads, each with two states left open and one partial
        // overlap, written last thread first.
        let mut ivs = Vec::new();
        for thread in (0..5u16).rev() {
            let on = |mut iv: Interval| {
                iv.thread = LogicalThreadId(thread);
                iv
            };
            ivs.push(on(piece(StateCode::SYSCALL, BeBits::Complete, 0, 10)));
            ivs.push(on(piece(StateCode::PAGE_FAULT, BeBits::Complete, 5, 10)));
            ivs.push(on(piece(StateCode::IO, BeBits::Begin, 20, 5)));
            ivs.push(on(piece(StateCode::INTERRUPT, BeBits::Begin, 30, 5)));
        }
        let bytes = build(&ivs);
        let p = Profile::standard();
        let messages = || -> Vec<String> {
            check_interval_bytes("t", &bytes, &p, IvlCheckOptions::default())
                .findings
                .into_iter()
                .filter(|f| f.rule == "bebit-laminarity")
                .map(|f| f.message)
                .collect()
        };
        let first = messages();
        assert_eq!(first.len(), 10, "{first:#?}");
        for (i, half) in first.chunks(5).enumerate() {
            for (thread, msg) in half.iter().enumerate() {
                assert!(
                    msg.starts_with(&format!("thread (node 1, logical {thread}):")),
                    "finding {thread} of half {i}: {msg}"
                );
            }
        }
        assert!(
            first[0].ends_with("open at end of file: IO, Interrupt"),
            "{}",
            first[0]
        );
        assert!(first[5].contains("partially overlaps"), "{}", first[5]);
        for _ in 0..8 {
            assert_eq!(messages(), first);
        }
    }

    #[test]
    fn unknown_thread_flagged_once() {
        let mut iv = piece(StateCode::RUNNING, BeBits::Complete, 0, 10);
        iv.thread = LogicalThreadId(3); // not in the table
        let bytes = build(&[iv.clone(), iv]);
        let p = Profile::standard();
        let r = check_interval_bytes("t", &bytes, &p, IvlCheckOptions::default());
        assert_eq!(
            r.findings
                .iter()
                .filter(|f| f.rule == "thread-bounds")
                .count(),
            1,
            "{}",
            r.render()
        );
    }

    #[test]
    fn corrupted_directory_link_detected() {
        let ivs: Vec<Interval> = (0..40)
            .map(|i| piece(StateCode::RUNNING, BeBits::Complete, i * 10, 10))
            .collect();
        let mut bytes = build(&ivs);
        let p = Profile::standard();
        let reader = IntervalFileReader::open(&bytes, &p).unwrap();
        let first = reader.first_dir;
        drop(reader);
        // Mangle the first directory's `next` pointer to point far past
        // the end of the file.
        let next_at = (first + ute_format::frame::FrameDirectory::NEXT_FIELD_OFFSET) as usize;
        bytes[next_at..next_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let r = check_interval_bytes("t", &bytes, &p, IvlCheckOptions::default());
        assert!(!r.passed());
        assert!(
            r.rules_violated().contains(&"frame-dir-links"),
            "{}",
            r.render()
        );
    }

    #[test]
    fn truncated_file_reports_findings_not_panics() {
        let ivs: Vec<Interval> = (0..100)
            .map(|i| piece(StateCode::RUNNING, BeBits::Complete, i * 10, 10))
            .collect();
        let bytes = build(&ivs);
        let p = Profile::standard();
        for cut in [bytes.len() / 4, bytes.len() / 2, bytes.len() - 3] {
            let r = check_interval_bytes("t", &bytes[..cut], &p, IvlCheckOptions::default());
            assert!(!r.passed(), "cut at {cut} should fail");
            assert!(r.findings.iter().all(|f| f.rule != "no-panic"));
        }
    }
}
