//! The per-node event→interval state machine.
//!
//! Per thread the matcher keeps a stack of open states over the implicit
//! *Running* bottom state. Pieces are closed (emitted) whenever:
//!
//! * the thread is descheduled (every open state closes a piece);
//! * a nested state begins (the enclosing state's current piece closes);
//! * the state itself ends (its final piece closes — `End`, or `Complete`
//!   if it never lost the CPU).
//!
//! Emission happens in event-time order, so the produced records are
//! naturally "in ascending order based on their end time" (§3.1), which
//! the interval-file writer enforces.

use std::collections::HashMap;

use ute_core::bebits::BeBits;
use ute_core::error::{Result, UteError};
use ute_core::event::{EventCode, MpiOp};
use ute_core::ids::{CpuId, LogicalThreadId, NodeId};
use ute_core::time::LocalTime;
use ute_format::file::{FramePolicy, IntervalFileWriter};
use ute_format::profile::{Profile, MASK_PER_NODE};
use ute_format::record::{Interval, IntervalType};
use ute_format::state::StateCode;
use ute_format::thread_table::ThreadTable;
use ute_format::value::Value;
use ute_rawtrace::file::RawTraceFile;
use ute_rawtrace::record::{ClockPayload, DispatchPayload, MarkerPayload, MpiPayload, RawEvent};

use crate::marker::MarkerMap;
use crate::node_threads;

/// Conversion options.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConvertOptions {
    /// Frame policy for the produced interval files.
    pub policy: FramePolicy,
    /// Tolerate *partial traces*: when tracing was delayed past program
    /// start (§2.1: "delay trace generation until a later point to trace
    /// only a portion of the code"), the stream opens mid-execution and
    /// end events may arrive without their begins. Leniently, such states
    /// are clipped to the start of the trace (an `End` piece from the
    /// first event's timestamp); strictly, they are format errors.
    ///
    /// Clipped pieces are best-effort: the enclosing structure before the
    /// trace start is unknown, so a clipped state may overlap the Running
    /// time synthesized for the same thread.
    pub lenient: bool,
    /// Salvage mode: the input stream may have been cut short by
    /// truncation or resynchronization, so states force-closed at end of
    /// trace are counted as `salvage/intervals_truncated` — they stand
    /// in for intervals whose ends were lost. Does not change the
    /// emitted bytes (EOF force-close always runs); only the accounting.
    pub salvage: bool,
}

/// Conversion statistics (Table 1 measures events/second through here).
#[derive(Debug, Clone, Copy, Default)]
pub struct ConvertStats {
    /// Raw events consumed.
    pub events_in: u64,
    /// Interval records produced.
    pub intervals_out: u64,
    /// States force-closed at end of trace.
    pub force_closed: u64,
    /// Unmatched ends clipped to trace start (lenient mode only).
    pub clipped_starts: u64,
    /// Deepest open-state stack seen on any thread.
    pub max_stack: u64,
}

/// One node's conversion result.
#[derive(Debug)]
pub struct ConvertOutput {
    /// The node converted.
    pub node: NodeId,
    /// Serialized per-node interval file.
    pub interval_file: Vec<u8>,
    /// Statistics.
    pub stats: ConvertStats,
}

/// Extra fields attached to an open state, completed at its end event.
#[derive(Debug, Clone, Default)]
struct StateExtras {
    rank: Option<u32>,
    peer: Option<u32>,
    tag: Option<u32>,
    sent: Option<u64>,
    recvd: Option<u64>,
    seq: Option<u64>,
    address: Option<u64>,
    address_end: Option<u64>,
    marker_id: Option<u32>,
    req_seqs: Option<Vec<u64>>,
}

#[derive(Debug)]
struct OpenState {
    state: StateCode,
    /// Start of the current (not yet emitted) piece; `None` while the
    /// thread is descheduled.
    piece_start: Option<LocalTime>,
    /// Whether any piece has been emitted for this state yet.
    emitted: bool,
    extras: StateExtras,
}

#[derive(Debug, Default)]
struct ThreadCursor {
    cpu: Option<CpuId>,
    stack: Vec<OpenState>,
    /// Piece start of the implicit Running state (open only while
    /// dispatched with an empty stack).
    running_since: Option<LocalTime>,
}

/// Where an emitted record's extra field takes its value from — the
/// enum-dispatched replacement for matching field *names* per record.
#[derive(Debug, Clone)]
enum FillKind {
    Rank,
    Peer,
    Tag,
    Sent,
    Recvd,
    Seq,
    Address,
    AddressEnd,
    MarkerId,
    /// `globalTime` rides in the seq slot (clock records).
    GlobalTime,
    ReqSeqs,
    /// A field the converter has no source for; emitting a record that
    /// demands it reports the same error the name-matching path did.
    Unknown(String),
}

/// Per-record-type fill plans, compiled once per conversion. Each plan
/// lists the non-core fields of the spec in order with their value
/// source, so `emit` fills extras without touching the name table.
struct FillPlans {
    plans: Vec<(u32, Vec<(u16, FillKind)>)>,
    last: std::cell::Cell<usize>,
}

impl FillPlans {
    fn build(profile: &Profile) -> FillPlans {
        let mut plans = Vec::with_capacity(profile.specs.len());
        for (&itype_raw, spec) in &profile.specs {
            let mut fields = Vec::new();
            for f in &spec.fields {
                let name = profile
                    .field_names
                    .get(f.name_idx as usize)
                    .map(|s| s.as_str())
                    .unwrap_or("");
                let kind = match name {
                    "recType" | "start" | "dura" | "cpu" | "node" | "thread" => continue,
                    "rank" => FillKind::Rank,
                    "peer" => FillKind::Peer,
                    "tag" => FillKind::Tag,
                    "msgSizeSent" => FillKind::Sent,
                    "msgSizeRecvd" => FillKind::Recvd,
                    "seq" => FillKind::Seq,
                    "address" => FillKind::Address,
                    "addressEnd" => FillKind::AddressEnd,
                    "markerId" => FillKind::MarkerId,
                    "globalTime" => FillKind::GlobalTime,
                    "reqSeqs" => FillKind::ReqSeqs,
                    other => FillKind::Unknown(other.to_string()),
                };
                fields.push((f.name_idx, kind));
            }
            plans.push((itype_raw, fields));
        }
        plans.sort_by_key(|(t, _)| *t);
        FillPlans {
            plans,
            last: std::cell::Cell::new(0),
        }
    }

    fn plan(&self, itype_raw: u32) -> Option<&[(u16, FillKind)]> {
        if let Some((t, fields)) = self.plans.get(self.last.get()) {
            if *t == itype_raw {
                return Some(fields);
            }
        }
        let idx = self
            .plans
            .binary_search_by_key(&itype_raw, |(t, _)| *t)
            .ok()?;
        self.last.set(idx);
        Some(&self.plans[idx].1)
    }
}

struct Emitter<'a> {
    writer: IntervalFileWriter<'a>,
    fills: FillPlans,
    node: NodeId,
    stats: ConvertStats,
}

impl Emitter<'_> {
    #[allow(clippy::too_many_arguments)] // the seven pieces of an interval record
    fn emit(
        &mut self,
        state: StateCode,
        bebits: BeBits,
        start: LocalTime,
        end: LocalTime,
        cpu: CpuId,
        thread: LogicalThreadId,
        extras: &StateExtras,
    ) -> Result<()> {
        let itype = IntervalType { state, bebits };
        let mut iv = Interval::basic(
            itype,
            start.ticks(),
            end.ticks().saturating_sub(start.ticks()),
            cpu,
            self.node,
            thread,
        );
        // Fill the fields the profile demands for this state. A missing
        // plan (no spec) leaves the extras empty, exactly as before —
        // the writer then rejects the unknown record type.
        if let Some(fields) = self.fills.plan(itype.to_u32()) {
            for (name_idx, kind) in fields {
                let v = match kind {
                    FillKind::Rank => Value::Uint(extras.rank.unwrap_or(0) as u64),
                    FillKind::Peer => Value::Uint(extras.peer.unwrap_or(u32::MAX) as u64),
                    FillKind::Tag => Value::Uint(extras.tag.unwrap_or(0) as u64),
                    FillKind::Sent => Value::Uint(extras.sent.unwrap_or(0)),
                    FillKind::Recvd => Value::Uint(extras.recvd.unwrap_or(0)),
                    FillKind::Seq => Value::Uint(extras.seq.unwrap_or(0)),
                    FillKind::Address => Value::Uint(extras.address.unwrap_or(0)),
                    FillKind::AddressEnd => Value::Uint(extras.address_end.unwrap_or(0)),
                    FillKind::MarkerId => Value::Uint(extras.marker_id.unwrap_or(0) as u64),
                    FillKind::GlobalTime => Value::Uint(extras.seq.unwrap_or(0)),
                    FillKind::ReqSeqs => {
                        Value::UintVec(extras.req_seqs.clone().unwrap_or_default().into())
                    }
                    FillKind::Unknown(other) => {
                        return Err(UteError::Invalid(format!(
                            "converter does not know how to fill field {other}"
                        )))
                    }
                };
                iv.extras.push((*name_idx, v));
            }
        }
        self.writer.push(&iv)?;
        self.stats.intervals_out += 1;
        Ok(())
    }
}

/// Converts one node's raw trace into a per-node interval file
/// (strict mode; see [`convert_node_opts`] for partial traces).
pub fn convert_node(
    file: &RawTraceFile,
    threads: &ThreadTable,
    profile: &Profile,
    markers: &MarkerMap,
    policy: FramePolicy,
) -> Result<ConvertOutput> {
    convert_node_opts(
        file,
        threads,
        profile,
        markers,
        &ConvertOptions {
            policy,
            ..ConvertOptions::default()
        },
    )
}

/// Converts one node's raw trace with explicit options.
pub fn convert_node_opts(
    file: &RawTraceFile,
    threads: &ThreadTable,
    profile: &Profile,
    markers: &MarkerMap,
    opts: &ConvertOptions,
) -> Result<ConvertOutput> {
    let policy = opts.policy;
    let node = file.node;
    let _span = ute_obs::Span::enter("convert", format!("convert node {}", node.raw()));
    let table = node_threads(threads, node);
    let writer = IntervalFileWriter::new(
        profile,
        MASK_PER_NODE,
        node.raw(),
        &table,
        markers.table(),
        policy,
    );
    let mut em = Emitter {
        writer,
        fills: FillPlans::build(profile),
        node,
        stats: ConvertStats::default(),
    };
    let mut cursors: HashMap<LogicalThreadId, ThreadCursor> = HashMap::new();
    let mut last_time = LocalTime(0);
    let trace_start = file
        .events
        .first()
        .map(|e| e.timestamp)
        .unwrap_or(LocalTime(0));

    for ev in &file.events {
        em.stats.events_in += 1;
        last_time = last_time.max(ev.timestamp);
        step(
            &mut em,
            &mut cursors,
            &table,
            markers,
            ev,
            opts,
            trace_start,
        )?;
    }
    // Force-close anything still open at the end of the trace.
    let mut leftover: Vec<LogicalThreadId> = cursors.keys().copied().collect();
    leftover.sort();
    for tid in leftover {
        let cur = cursors.get_mut(&tid).expect("cursor exists");
        let cpu = cur.cpu.unwrap_or(CpuId(0));
        if let Some(since) = cur.running_since.take() {
            em.emit(
                StateCode::RUNNING,
                BeBits::Complete,
                since,
                last_time,
                cpu,
                tid,
                &StateExtras::default(),
            )?;
            em.stats.force_closed += 1;
        }
        while let Some(mut open) = cur.stack.pop() {
            if let Some(ps) = open.piece_start.take() {
                let bebits = if open.emitted {
                    BeBits::End
                } else {
                    BeBits::Complete
                };
                em.emit(open.state, bebits, ps, last_time, cpu, tid, &open.extras)?;
                em.stats.force_closed += 1;
            }
        }
    }
    ute_obs::counter("convert/records_in").add(em.stats.events_in);
    ute_obs::counter("convert/intervals_out").add(em.stats.intervals_out);
    ute_obs::counter("convert/force_closed").add(em.stats.force_closed);
    if opts.salvage && em.stats.force_closed > 0 {
        ute_obs::counter("salvage/intervals_truncated").add(em.stats.force_closed);
    }
    ute_obs::counter("convert/clipped_starts").add(em.stats.clipped_starts);
    ute_obs::gauge("convert/match_stack_max").set_max(em.stats.max_stack as f64);
    Ok(ConvertOutput {
        node,
        interval_file: em.writer.finish(),
        stats: em.stats,
    })
}

/// Closes the piece of the top open state (or Running) at `now`, because
/// a nested state begins or the thread is descheduled.
fn pause_top(
    em: &mut Emitter,
    cur: &mut ThreadCursor,
    tid: LogicalThreadId,
    now: LocalTime,
) -> Result<()> {
    let cpu = cur.cpu.unwrap_or(CpuId(0));
    if let Some(open) = cur.stack.last_mut() {
        if let Some(ps) = open.piece_start.take() {
            let bebits = if open.emitted {
                BeBits::Continuation
            } else {
                BeBits::Begin
            };
            let extras = open.extras.clone();
            open.emitted = true;
            em.emit(open.state, bebits, ps, now, cpu, tid, &extras)?;
        }
    } else if let Some(since) = cur.running_since.take() {
        // Running pieces are independent complete intervals; the Running
        // "state" conceptually spans gaps but each burst stands alone.
        em.emit(
            StateCode::RUNNING,
            BeBits::Complete,
            since,
            now,
            cpu,
            tid,
            &StateExtras::default(),
        )?;
    }
    Ok(())
}

/// Resumes the top open state (or Running) at `now`, after a dispatch or
/// after a nested state ended.
fn resume_top(cur: &mut ThreadCursor, now: LocalTime) {
    if cur.cpu.is_none() {
        return;
    }
    if let Some(open) = cur.stack.last_mut() {
        open.piece_start = Some(now);
    } else {
        cur.running_since = Some(now);
    }
}

fn mpi_extras(p: &MpiPayload, op: MpiOp) -> StateExtras {
    StateExtras {
        rank: Some(p.rank),
        peer: Some(p.peer),
        tag: Some(p.tag),
        sent: if op.is_p2p_send() || op.is_collective() {
            Some(p.bytes)
        } else {
            None
        },
        recvd: if op.is_p2p_recv() {
            Some(p.bytes)
        } else {
            None
        },
        seq: Some(p.seq),
        address: Some(p.address),
        ..StateExtras::default()
    }
}

fn step(
    em: &mut Emitter,
    cursors: &mut HashMap<LogicalThreadId, ThreadCursor>,
    table: &ThreadTable,
    markers: &MarkerMap,
    ev: &RawEvent,
    opts: &ConvertOptions,
    trace_start: LocalTime,
) -> Result<()> {
    let now = ev.timestamp;
    match ev.code {
        EventCode::TraceStart | EventCode::TraceStop | EventCode::MarkerDef => Ok(()),

        EventCode::GlobalClock => {
            let p = ClockPayload::from_bytes(&ev.payload)?;
            // Clock records ride along as zero-duration CLOCK intervals on
            // pseudo-thread 0; `seq` carries the global timestamp into the
            // profile's globalTime field.
            let extras = StateExtras {
                seq: Some(p.global.ticks()),
                ..StateExtras::default()
            };
            em.emit(
                StateCode::CLOCK,
                BeBits::Complete,
                now,
                now,
                CpuId(0),
                LogicalThreadId(0),
                &extras,
            )
        }

        EventCode::ThreadDispatch => {
            let p = DispatchPayload::from_bytes(&ev.payload)?;
            let cur = cursors.entry(p.thread).or_default();
            if cur.cpu.is_some() {
                if !opts.lenient {
                    return Err(UteError::corrupt(format!(
                        "thread {} dispatched while already running",
                        p.thread
                    )));
                }
                // Partial trace lost the undispatch: treat as migration.
                pause_top(em, cur, p.thread, now)?;
            }
            cur.cpu = Some(p.cpu);
            resume_top(cur, now);
            Ok(())
        }

        EventCode::ThreadUndispatch => {
            let p = DispatchPayload::from_bytes(&ev.payload)?;
            let cur = cursors.entry(p.thread).or_default();
            if cur.cpu.is_none() {
                if !opts.lenient {
                    return Err(UteError::corrupt(format!(
                        "thread {} undispatched while not running",
                        p.thread
                    )));
                }
                // Thread was running since before the trace started.
                em.stats.clipped_starts += 1;
                cur.cpu = Some(p.cpu);
                cur.running_since = Some(trace_start);
            }
            pause_top(em, cur, p.thread, now)?;
            cur.cpu = None;
            Ok(())
        }

        EventCode::MpiBegin(op) => {
            let p = MpiPayload::from_bytes(&ev.payload)?;
            let cur = cursors.entry(p.thread).or_default();
            pause_top(em, cur, p.thread, now)?;
            cur.stack.push(OpenState {
                state: StateCode::mpi(op),
                piece_start: Some(now),
                emitted: false,
                extras: mpi_extras(&p, op),
            });
            em.stats.max_stack = em.stats.max_stack.max(cur.stack.len() as u64);
            Ok(())
        }

        EventCode::MpiEnd(op) => {
            let p = MpiPayload::from_bytes(&ev.payload)?;
            let cur = cursors.entry(p.thread).or_default();
            let popped = match cur.stack.pop() {
                Some(open) => Some(open),
                None if opts.lenient => {
                    // The begin predates the trace: clip to trace start.
                    em.stats.clipped_starts += 1;
                    Some(OpenState {
                        state: StateCode::mpi(op),
                        piece_start: Some(trace_start.min(now)),
                        emitted: true, // never saw the Begin piece
                        extras: StateExtras::default(),
                    })
                }
                None => None,
            };
            let mut open = popped.ok_or_else(|| {
                UteError::corrupt(format!("{}: end without begin on thread {}", op, p.thread))
            })?;
            if open.state != StateCode::mpi(op) {
                return Err(UteError::corrupt(format!(
                    "mismatched end: open state {} closed by {}",
                    open.state,
                    op.name()
                )));
            }
            // The end event carries the completed call's arguments.
            open.extras = mpi_extras(&p, op);
            let cpu = cur.cpu.unwrap_or(CpuId(0));
            let ps = open.piece_start.take().ok_or_else(|| {
                UteError::corrupt(format!(
                    "{} ended while its thread was descheduled",
                    op.name()
                ))
            })?;
            let bebits = if open.emitted {
                BeBits::End
            } else {
                BeBits::Complete
            };
            em.emit(open.state, bebits, ps, now, cpu, p.thread, &open.extras)?;
            resume_top(cur, now);
            Ok(())
        }

        EventCode::MarkerBegin => {
            let p = MarkerPayload::from_bytes(&ev.payload)?;
            let rank = table
                .lookup(em.node, p.thread)
                .map(|e| e.task.raw())
                .unwrap_or(u32::MAX);
            let unified = markers.unify(rank, p.local_id).ok_or_else(|| {
                UteError::corrupt(format!(
                    "marker begin for undefined id {} (rank {rank})",
                    p.local_id
                ))
            })?;
            let cur = cursors.entry(p.thread).or_default();
            pause_top(em, cur, p.thread, now)?;
            cur.stack.push(OpenState {
                state: StateCode::MARKER,
                piece_start: Some(now),
                emitted: false,
                extras: StateExtras {
                    marker_id: Some(unified),
                    address: Some(p.address),
                    ..StateExtras::default()
                },
            });
            em.stats.max_stack = em.stats.max_stack.max(cur.stack.len() as u64);
            Ok(())
        }

        EventCode::MarkerEnd => {
            let p = MarkerPayload::from_bytes(&ev.payload)?;
            let cur = cursors.entry(p.thread).or_default();
            let popped = match cur.stack.pop() {
                Some(open) => Some(open),
                None if opts.lenient => {
                    // Marker opened before the (delayed) trace started.
                    em.stats.clipped_starts += 1;
                    let rank = table
                        .lookup(em.node, p.thread)
                        .map(|e| e.task.raw())
                        .unwrap_or(u32::MAX);
                    Some(OpenState {
                        state: StateCode::MARKER,
                        piece_start: Some(trace_start.min(now)),
                        emitted: true,
                        extras: StateExtras {
                            marker_id: markers.unify(rank, p.local_id).or(Some(0)),
                            ..StateExtras::default()
                        },
                    })
                }
                None => None,
            };
            let mut open = popped.ok_or_else(|| {
                UteError::corrupt(format!("marker end without begin on thread {}", p.thread))
            })?;
            if open.state != StateCode::MARKER {
                return Err(UteError::corrupt(format!(
                    "marker end closed a {} state",
                    open.state
                )));
            }
            open.extras.address_end = Some(p.address);
            let cpu = cur.cpu.unwrap_or(CpuId(0));
            let ps = open.piece_start.take().ok_or_else(|| {
                UteError::corrupt("marker ended while its thread was descheduled".to_string())
            })?;
            let bebits = if open.emitted {
                BeBits::End
            } else {
                BeBits::Complete
            };
            em.emit(open.state, bebits, ps, now, cpu, p.thread, &open.extras)?;
            resume_top(cur, now);
            Ok(())
        }

        EventCode::Syscall | EventCode::PageFault | EventCode::Interrupt => {
            let p = DispatchPayload::from_bytes(&ev.payload)?;
            let state = match ev.code {
                EventCode::Syscall => StateCode::SYSCALL,
                EventCode::PageFault => StateCode::PAGE_FAULT,
                _ => StateCode::INTERRUPT,
            };
            let cpu = cursors
                .get(&p.thread)
                .and_then(|c| c.cpu)
                .unwrap_or(CpuId(0));
            // Point system events become zero-duration complete intervals
            // without splitting the enclosing state.
            em.emit(
                state,
                BeBits::Complete,
                now,
                now,
                cpu,
                p.thread,
                &StateExtras::default(),
            )
        }

        EventCode::IoStart => {
            let p = DispatchPayload::from_bytes(&ev.payload)?;
            let cur = cursors.entry(p.thread).or_default();
            pause_top(em, cur, p.thread, now)?;
            cur.stack.push(OpenState {
                state: StateCode::IO,
                piece_start: Some(now),
                emitted: false,
                extras: StateExtras::default(),
            });
            em.stats.max_stack = em.stats.max_stack.max(cur.stack.len() as u64);
            Ok(())
        }

        EventCode::IoEnd => {
            let p = DispatchPayload::from_bytes(&ev.payload)?;
            let cur = cursors.entry(p.thread).or_default();
            let popped = match cur.stack.pop() {
                Some(open) => Some(open),
                None if opts.lenient => {
                    em.stats.clipped_starts += 1;
                    Some(OpenState {
                        state: StateCode::IO,
                        piece_start: Some(trace_start.min(now)),
                        emitted: true,
                        extras: StateExtras::default(),
                    })
                }
                None => None,
            };
            let mut open = popped.ok_or_else(|| {
                UteError::corrupt(format!("IoEnd without IoStart on thread {}", p.thread))
            })?;
            if open.state != StateCode::IO {
                return Err(UteError::corrupt("IoEnd closed a non-IO state"));
            }
            let cpu = cur.cpu.unwrap_or(CpuId(0));
            let ps = open.piece_start.take().unwrap_or(now);
            let bebits = if open.emitted {
                BeBits::End
            } else {
                BeBits::Complete
            };
            em.emit(open.state, bebits, ps, now, cpu, p.thread, &open.extras)?;
            resume_top(cur, now);
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ute_core::ids::{Pid, SystemThreadId, TaskId, ThreadType};
    use ute_format::file::IntervalFileReader;
    use ute_format::thread_table::ThreadEntry;

    fn table() -> ThreadTable {
        let mut t = ThreadTable::new();
        t.register(ThreadEntry {
            task: TaskId(0),
            pid: Pid(1),
            system_tid: SystemThreadId(1),
            node: NodeId(0),
            logical: LogicalThreadId(0),
            ttype: ThreadType::Mpi,
        })
        .unwrap();
        t
    }

    fn dispatch(t: u16, cpu: u16, at: u64, on: bool) -> RawEvent {
        RawEvent::new(
            if on {
                EventCode::ThreadDispatch
            } else {
                EventCode::ThreadUndispatch
            },
            LocalTime(at),
            DispatchPayload {
                thread: LogicalThreadId(t),
                cpu: CpuId(cpu),
            }
            .to_bytes(),
        )
    }

    fn mpi(op: MpiOp, begin: bool, t: u16, at: u64, bytes: u64, seq: u64) -> RawEvent {
        let mut p = MpiPayload::bare(LogicalThreadId(t), 0);
        p.bytes = bytes;
        p.seq = seq;
        p.peer = 1;
        RawEvent::new(
            if begin {
                EventCode::MpiBegin(op)
            } else {
                EventCode::MpiEnd(op)
            },
            LocalTime(at),
            p.to_bytes(),
        )
    }

    fn convert(events: Vec<RawEvent>) -> (Profile, Vec<u8>, ConvertStats) {
        let profile = Profile::standard();
        let file = RawTraceFile::new(NodeId(0), events);
        let markers = MarkerMap::build(std::slice::from_ref(&file)).unwrap();
        let out =
            convert_node(&file, &table(), &profile, &markers, FramePolicy::default()).unwrap();
        (profile, out.interval_file, out.stats)
    }

    fn decode(profile: &Profile, bytes: &[u8]) -> Vec<Interval> {
        let r = IntervalFileReader::open(bytes, profile).unwrap();
        r.intervals().map(|x| x.unwrap()).collect()
    }

    #[test]
    fn uninterrupted_call_is_one_complete_interval() {
        let (p, bytes, stats) = convert(vec![
            dispatch(0, 0, 0, true),
            mpi(MpiOp::Send, true, 0, 100, 0, 0),
            mpi(MpiOp::Send, false, 0, 300, 4096, 7),
            dispatch(0, 0, 400, false),
        ]);
        let ivs = decode(&p, &bytes);
        // Running [0,100], Send [100,300] complete, Running [300,400].
        assert_eq!(stats.intervals_out, 3);
        let send = ivs
            .iter()
            .find(|iv| iv.itype.state == StateCode::mpi(MpiOp::Send))
            .unwrap();
        assert_eq!(send.itype.bebits, BeBits::Complete);
        assert_eq!(send.start, 100);
        assert_eq!(send.duration, 200);
        assert_eq!(send.extra(&p, "msgSizeSent"), Some(&Value::Uint(4096)));
        assert_eq!(send.extra(&p, "seq"), Some(&Value::Uint(7)));
        let runnings: Vec<_> = ivs
            .iter()
            .filter(|iv| iv.itype.state == StateCode::RUNNING)
            .collect();
        assert_eq!(runnings.len(), 2);
    }

    #[test]
    fn descheduled_call_splits_into_begin_and_end_pieces() {
        // The §1.2 scenario: Recv begins, thread is descheduled while
        // blocked, resumes, Recv ends.
        let (p, bytes, _) = convert(vec![
            dispatch(0, 0, 0, true),
            mpi(MpiOp::Recv, true, 0, 100, 0, 0),
            dispatch(0, 0, 150, false),
            dispatch(0, 1, 500, true), // resumes on another CPU
            mpi(MpiOp::Recv, false, 0, 600, 2048, 3),
            dispatch(0, 1, 700, false),
        ]);
        let ivs = decode(&p, &bytes);
        let pieces: Vec<_> = ivs
            .iter()
            .filter(|iv| iv.itype.state == StateCode::mpi(MpiOp::Recv))
            .collect();
        assert_eq!(pieces.len(), 2);
        assert_eq!(pieces[0].itype.bebits, BeBits::Begin);
        assert_eq!(pieces[0].start, 100);
        assert_eq!(pieces[0].end(), 150);
        assert_eq!(pieces[0].cpu, CpuId(0));
        assert_eq!(pieces[1].itype.bebits, BeBits::End);
        assert_eq!(pieces[1].start, 500);
        assert_eq!(pieces[1].end(), 600);
        assert_eq!(pieces[1].cpu, CpuId(1)); // migrated
        assert_eq!(
            pieces[1].extra(&p, "msgSizeRecvd"),
            Some(&Value::Uint(2048))
        );
    }

    #[test]
    fn double_deschedule_produces_continuation() {
        let (p, bytes, _) = convert(vec![
            dispatch(0, 0, 0, true),
            mpi(MpiOp::Recv, true, 0, 10, 0, 0),
            dispatch(0, 0, 20, false),
            dispatch(0, 0, 30, true),
            dispatch(0, 0, 40, false),
            dispatch(0, 0, 50, true),
            mpi(MpiOp::Recv, false, 0, 60, 128, 1),
            dispatch(0, 0, 70, false),
        ]);
        let ivs = decode(&p, &bytes);
        let bebits: Vec<BeBits> = ivs
            .iter()
            .filter(|iv| iv.itype.state == StateCode::mpi(MpiOp::Recv))
            .map(|iv| iv.itype.bebits)
            .collect();
        assert_eq!(
            bebits,
            vec![BeBits::Begin, BeBits::Continuation, BeBits::End]
        );
        assert_eq!(ute_core::bebits::count_states(&bebits), Some(1));
    }

    #[test]
    fn nested_states_split_the_outer() {
        // Marker around an MPI call: the marker gets Begin + End pieces
        // around the send, the send is Complete.
        let marker_def = RawEvent::new(
            EventCode::MarkerDef,
            LocalTime(5),
            ute_rawtrace::record::MarkerDefPayload {
                local_id: 1,
                rank: 0,
                name: "Phase".into(),
            }
            .to_bytes(),
        );
        let mb = RawEvent::new(
            EventCode::MarkerBegin,
            LocalTime(10),
            MarkerPayload {
                thread: LogicalThreadId(0),
                local_id: 1,
                address: 0x40,
            }
            .to_bytes(),
        );
        let me = RawEvent::new(
            EventCode::MarkerEnd,
            LocalTime(90),
            MarkerPayload {
                thread: LogicalThreadId(0),
                local_id: 1,
                address: 0x80,
            }
            .to_bytes(),
        );
        let (p, bytes, _) = convert(vec![
            dispatch(0, 0, 0, true),
            marker_def,
            mb,
            mpi(MpiOp::Send, true, 0, 30, 0, 0),
            mpi(MpiOp::Send, false, 0, 60, 512, 1),
            me,
            dispatch(0, 0, 100, false),
        ]);
        let ivs = decode(&p, &bytes);
        let marker_pieces: Vec<_> = ivs
            .iter()
            .filter(|iv| iv.itype.state == StateCode::MARKER)
            .collect();
        assert_eq!(marker_pieces.len(), 2);
        assert_eq!(marker_pieces[0].itype.bebits, BeBits::Begin);
        assert_eq!((marker_pieces[0].start, marker_pieces[0].end()), (10, 30));
        assert_eq!(marker_pieces[1].itype.bebits, BeBits::End);
        assert_eq!((marker_pieces[1].start, marker_pieces[1].end()), (60, 90));
        assert_eq!(
            marker_pieces[1].extra(&p, "addressEnd"),
            Some(&Value::Uint(0x80))
        );
        let send = ivs
            .iter()
            .find(|iv| iv.itype.state == StateCode::mpi(MpiOp::Send))
            .unwrap();
        assert_eq!(send.itype.bebits, BeBits::Complete);
    }

    #[test]
    fn clock_records_pass_through() {
        let clock = RawEvent::new(
            EventCode::GlobalClock,
            LocalTime(42),
            ClockPayload {
                global: ute_core::time::Time(40),
            }
            .to_bytes(),
        );
        let (p, bytes, _) = convert(vec![clock]);
        let ivs = decode(&p, &bytes);
        assert_eq!(ivs.len(), 1);
        assert_eq!(ivs[0].itype.state, StateCode::CLOCK);
        assert_eq!(ivs[0].start, 42);
        assert_eq!(ivs[0].duration, 0);
        assert_eq!(ivs[0].extra(&p, "globalTime"), Some(&Value::Uint(40)));
    }

    #[test]
    fn point_system_events_do_not_split_states() {
        let sys = RawEvent::new(
            EventCode::Syscall,
            LocalTime(50),
            DispatchPayload {
                thread: LogicalThreadId(0),
                cpu: CpuId(0),
            }
            .to_bytes(),
        );
        let (p, bytes, _) = convert(vec![
            dispatch(0, 0, 0, true),
            mpi(MpiOp::Send, true, 0, 10, 0, 0),
            sys,
            mpi(MpiOp::Send, false, 0, 100, 64, 1),
            dispatch(0, 0, 120, false),
        ]);
        let ivs = decode(&p, &bytes);
        let send_pieces = ivs
            .iter()
            .filter(|iv| iv.itype.state == StateCode::mpi(MpiOp::Send))
            .count();
        assert_eq!(send_pieces, 1, "syscall must not split the MPI interval");
        assert!(ivs.iter().any(|iv| iv.itype.state == StateCode::SYSCALL));
    }

    #[test]
    fn unmatched_end_is_corrupt() {
        let events = vec![
            dispatch(0, 0, 0, true),
            mpi(MpiOp::Send, false, 0, 10, 0, 0),
        ];
        let profile = Profile::standard();
        let file = RawTraceFile::new(NodeId(0), events);
        let markers = MarkerMap::default();
        assert!(convert_node(&file, &table(), &profile, &markers, FramePolicy::default()).is_err());
    }

    #[test]
    fn open_states_force_closed_at_eof() {
        let (p, bytes, stats) = convert(vec![
            dispatch(0, 0, 0, true),
            mpi(MpiOp::Recv, true, 0, 10, 0, 0),
            // trace ends with the call (and Running beneath it) open
        ]);
        let ivs = decode(&p, &bytes);
        assert!(stats.force_closed >= 1);
        let recv = ivs
            .iter()
            .find(|iv| iv.itype.state == StateCode::mpi(MpiOp::Recv))
            .unwrap();
        assert_eq!(recv.itype.bebits, BeBits::Complete);
    }

    #[test]
    fn output_is_end_time_ordered() {
        let (p, bytes, _) = convert(vec![
            dispatch(0, 0, 0, true),
            mpi(MpiOp::Send, true, 0, 10, 0, 0),
            mpi(MpiOp::Send, false, 0, 20, 1, 1),
            mpi(MpiOp::Recv, true, 0, 30, 0, 0),
            dispatch(0, 0, 35, false),
            dispatch(0, 0, 80, true),
            mpi(MpiOp::Recv, false, 0, 90, 1, 2),
            dispatch(0, 0, 95, false),
        ]);
        let ivs = decode(&p, &bytes);
        for w in ivs.windows(2) {
            assert!(w[0].end() <= w[1].end());
        }
    }
}

#[cfg(test)]
mod lenient_tests {
    use super::*;
    use ute_core::ids::{Pid, SystemThreadId, TaskId, ThreadType};
    use ute_format::file::IntervalFileReader;
    use ute_format::thread_table::ThreadEntry;

    fn table() -> ThreadTable {
        let mut t = ThreadTable::new();
        t.register(ThreadEntry {
            task: TaskId(0),
            pid: Pid(1),
            system_tid: SystemThreadId(1),
            node: NodeId(0),
            logical: LogicalThreadId(0),
            ttype: ThreadType::Mpi,
        })
        .unwrap();
        t
    }

    fn mpi_end(op: MpiOp, t: u16, at: u64) -> RawEvent {
        let mut p = MpiPayload::bare(LogicalThreadId(t), 0);
        p.bytes = 64;
        p.seq = 9;
        RawEvent::new(EventCode::MpiEnd(op), LocalTime(at), p.to_bytes())
    }

    fn undispatch(t: u16, cpu: u16, at: u64) -> RawEvent {
        RawEvent::new(
            EventCode::ThreadUndispatch,
            LocalTime(at),
            DispatchPayload {
                thread: LogicalThreadId(t),
                cpu: CpuId(cpu),
            }
            .to_bytes(),
        )
    }

    fn run(events: Vec<RawEvent>, lenient: bool) -> Result<(Profile, ConvertOutput)> {
        let profile = Profile::standard();
        let file = RawTraceFile::new(NodeId(0), events);
        let markers = MarkerMap::default();
        let out = convert_node_opts(
            &file,
            &table(),
            &profile,
            &markers,
            &ConvertOptions {
                policy: FramePolicy::default(),
                lenient,
                ..ConvertOptions::default()
            },
        )?;
        Ok((profile, out))
    }

    #[test]
    fn partial_trace_end_without_begin_clips_to_trace_start() {
        // A delayed-start trace opening in the middle of a Recv: the first
        // event is the undispatch of the blocked thread, then later the
        // Recv end. Strict mode rejects it; lenient mode clips.
        let events = vec![
            undispatch(0, 1, 1_000),
            RawEvent::new(
                EventCode::ThreadDispatch,
                LocalTime(2_000),
                DispatchPayload {
                    thread: LogicalThreadId(0),
                    cpu: CpuId(1),
                }
                .to_bytes(),
            ),
            mpi_end(MpiOp::Recv, 0, 2_500),
        ];
        assert!(run(events.clone(), false).is_err());
        let (p, out) = run(events, true).unwrap();
        assert!(out.stats.clipped_starts >= 2); // undispatch + recv end
        let r = IntervalFileReader::open(&out.interval_file, &p).unwrap();
        let ivs: Vec<Interval> = r.intervals().map(|x| x.unwrap()).collect();
        let recv = ivs
            .iter()
            .find(|iv| iv.itype.state == StateCode::mpi(MpiOp::Recv))
            .unwrap();
        // Clipped piece: an End from the trace's first timestamp.
        assert_eq!(recv.itype.bebits, BeBits::End);
        assert_eq!(recv.start, 1_000);
        assert_eq!(recv.end(), 2_500);
        // The pre-trace Running burst was also synthesized.
        assert!(ivs
            .iter()
            .any(|iv| iv.itype.state == StateCode::RUNNING && iv.start == 1_000));
    }

    #[test]
    fn lenient_double_dispatch_treated_as_migration() {
        let d = |cpu: u16, at: u64| {
            RawEvent::new(
                EventCode::ThreadDispatch,
                LocalTime(at),
                DispatchPayload {
                    thread: LogicalThreadId(0),
                    cpu: CpuId(cpu),
                }
                .to_bytes(),
            )
        };
        let events = vec![d(0, 10), d(1, 50), undispatch(0, 1, 90)];
        assert!(run(events.clone(), false).is_err());
        let (p, out) = run(events, true).unwrap();
        let r = IntervalFileReader::open(&out.interval_file, &p).unwrap();
        let runnings: Vec<Interval> = r
            .intervals()
            .map(|x| x.unwrap())
            .filter(|iv| iv.itype.state == StateCode::RUNNING)
            .collect();
        // Two Running bursts: [10,50] on cpu0, [50,90] on cpu1.
        assert_eq!(runnings.len(), 2);
        assert_eq!(runnings[0].cpu, CpuId(0));
        assert_eq!(runnings[1].cpu, CpuId(1));
    }
}

#[cfg(test)]
mod lenient_marker_io_tests {
    use super::*;
    use ute_core::ids::{Pid, SystemThreadId, TaskId, ThreadType};
    use ute_format::file::IntervalFileReader;
    use ute_format::thread_table::ThreadEntry;

    #[test]
    fn lenient_marker_and_io_ends_clip_to_trace_start() {
        let mut table = ThreadTable::new();
        table
            .register(ThreadEntry {
                task: TaskId(0),
                pid: Pid(1),
                system_tid: SystemThreadId(1),
                node: NodeId(0),
                logical: LogicalThreadId(0),
                ttype: ThreadType::Mpi,
            })
            .unwrap();
        let d = |on: bool, at: u64| {
            RawEvent::new(
                if on {
                    EventCode::ThreadDispatch
                } else {
                    EventCode::ThreadUndispatch
                },
                LocalTime(at),
                DispatchPayload {
                    thread: LogicalThreadId(0),
                    cpu: CpuId(0),
                }
                .to_bytes(),
            )
        };
        // Trace opens inside marker 1 and an IO; both close mid-trace.
        let events = vec![
            d(true, 1_000),
            RawEvent::new(
                EventCode::IoEnd,
                LocalTime(1_500),
                DispatchPayload {
                    thread: LogicalThreadId(0),
                    cpu: CpuId(0),
                }
                .to_bytes(),
            ),
            RawEvent::new(
                EventCode::MarkerEnd,
                LocalTime(2_000),
                MarkerPayload {
                    thread: LogicalThreadId(0),
                    local_id: 1,
                    address: 0x80,
                }
                .to_bytes(),
            ),
            d(false, 2_500),
        ];
        let profile = Profile::standard();
        let file = RawTraceFile::new(NodeId(0), events);
        let markers = MarkerMap::default();
        let strict = convert_node(&file, &table, &profile, &markers, FramePolicy::default());
        assert!(strict.is_err());
        let out = convert_node_opts(
            &file,
            &table,
            &profile,
            &markers,
            &ConvertOptions {
                policy: FramePolicy::default(),
                lenient: true,
                ..ConvertOptions::default()
            },
        )
        .unwrap();
        assert_eq!(out.stats.clipped_starts, 2);
        let r = IntervalFileReader::open(&out.interval_file, &profile).unwrap();
        let ivs: Vec<Interval> = r.intervals().map(|x| x.unwrap()).collect();
        let io = ivs
            .iter()
            .find(|iv| iv.itype.state == StateCode::IO)
            .unwrap();
        assert_eq!(
            (io.start, io.end(), io.itype.bebits),
            (1_000, 1_500, BeBits::End)
        );
        let marker = ivs
            .iter()
            .find(|iv| iv.itype.state == StateCode::MARKER)
            .unwrap();
        assert_eq!(marker.itype.bebits, BeBits::End);
        assert_eq!(marker.end(), 2_000);
        // Unknown pre-trace marker id falls back to 0.
        assert_eq!(
            marker.extra(&profile, "markerId"),
            Some(&ute_format::value::Value::Uint(0))
        );
    }
}
