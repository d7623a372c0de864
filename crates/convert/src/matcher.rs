//! The per-node event→interval state machine, as a transition table.
//!
//! Per thread the matcher keeps a stack of open states over the implicit
//! *Running* bottom state. Pieces are closed (emitted) whenever:
//!
//! * the thread is descheduled (the top state's piece closes; the states
//!   beneath have none open);
//! * a nested state begins (the enclosing state's current piece closes);
//! * the state itself ends (its final piece closes — `End`, or `Complete`
//!   if it never lost the CPU).
//!
//! The bracketed states (MPI call, marker, I/O) are rows (`StateKind`)
//! driven by one `open_state`, one `close_state` and one `close_piece`.
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
use ute_rawtrace::view::{RawEventView, RawTraceView, SalvagedViews};

use crate::marker::MarkerMap;
use crate::node_threads;

/// One node's raw records as the converter reads them: views over the
/// file's bytes — validated whole ([`RawTraceView`]) or salvaged
/// ([`SalvagedViews`]) — or, through the same loop, decoded events
/// ([`RawTraceFile`], the owned adapter).
pub trait RawRecords: Sync {
    /// The node that cut the records.
    fn node(&self) -> NodeId;
    /// The records, in cut order.
    fn records(&self) -> impl Iterator<Item = RawEventView<'_>>;
}

impl RawRecords for RawTraceView<'_> {
    fn node(&self) -> NodeId {
        self.node
    }
    fn records(&self) -> impl Iterator<Item = RawEventView<'_>> {
        self.events()
    }
}

impl RawRecords for SalvagedViews<'_> {
    fn node(&self) -> NodeId {
        self.node
    }
    fn records(&self) -> impl Iterator<Item = RawEventView<'_>> {
        self.events.iter().copied()
    }
}

impl RawRecords for RawTraceFile {
    fn node(&self) -> NodeId {
        self.node
    }
    fn records(&self) -> impl Iterator<Item = RawEventView<'_>> {
        self.events.iter().map(RawEvent::view)
    }
}

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
#[derive(Debug, Clone, Copy, Default)]
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

/// Where an emitted record's extra field takes its value from. The
/// profile's field names are resolved once (`fills`, by name index), so
/// no record compares a name.
#[derive(Clone, Copy)]
enum Fill {
    /// A field every record has (`start`, `cpu`, ...): not an extra.
    Core,
    Uint(fn(&StateExtras) -> u64),
    /// `reqSeqs`: the converter records no request list.
    EmptyVec,
    /// No source: a record that demands the field is an error naming it.
    Unknown,
}

fn fills(profile: &Profile) -> Vec<Fill> {
    let fill = |name: &String| match name.as_str() {
        "recType" | "start" | "dura" | "cpu" | "node" | "thread" => Fill::Core,
        "rank" => Fill::Uint(|x| x.rank.unwrap_or(0) as u64),
        "peer" => Fill::Uint(|x| x.peer.unwrap_or(u32::MAX) as u64),
        "tag" => Fill::Uint(|x| x.tag.unwrap_or(0) as u64),
        "msgSizeSent" => Fill::Uint(|x| x.sent.unwrap_or(0)),
        "msgSizeRecvd" => Fill::Uint(|x| x.recvd.unwrap_or(0)),
        // `globalTime` rides in the seq slot (clock records).
        "seq" | "globalTime" => Fill::Uint(|x| x.seq.unwrap_or(0)),
        "address" => Fill::Uint(|x| x.address.unwrap_or(0)),
        "addressEnd" => Fill::Uint(|x| x.address_end.unwrap_or(0)),
        "markerId" => Fill::Uint(|x| x.marker_id.unwrap_or(0) as u64),
        "reqSeqs" => Fill::EmptyVec,
        _ => Fill::Unknown,
    };
    profile.field_names.iter().map(fill).collect()
}

/// One row of the transition table: a bracketed state, and what differs
/// between the three — its state code and what its end event says when
/// it cannot close the state it should. A row's extras are built and
/// completed in its arms of [`Matcher::step`], where the payload is.
#[derive(Debug, Clone, Copy)]
enum StateKind {
    Mpi(MpiOp),
    Marker,
    Io,
}

impl StateKind {
    fn state(self) -> StateCode {
        match self {
            StateKind::Mpi(op) => StateCode::mpi(op),
            StateKind::Marker => StateCode::MARKER,
            StateKind::Io => StateCode::IO,
        }
    }

    fn end_without_begin(self, thread: LogicalThreadId) -> UteError {
        UteError::corrupt(match self {
            StateKind::Mpi(op) => format!("{op}: end without begin on thread {thread}"),
            StateKind::Marker => format!("marker end without begin on thread {thread}"),
            StateKind::Io => format!("IoEnd without IoStart on thread {thread}"),
        })
    }

    fn closed_another_state(self, open: StateCode) -> UteError {
        UteError::corrupt(match self {
            StateKind::Mpi(op) => format!("mismatched end: open state {open} closed by {op}"),
            StateKind::Marker => format!("marker end closed a {open} state"),
            StateKind::Io => "IoEnd closed a non-IO state".to_string(),
        })
    }

    /// Where the last piece starts when the end arrives at `now` with the
    /// thread descheduled: corrupt, except that an I/O end is taken as an
    /// empty piece at its own time (inherited behaviour, kept as it was).
    fn end_while_descheduled(self, now: LocalTime) -> Result<LocalTime> {
        let what = match self {
            StateKind::Mpi(op) => op.name(),
            StateKind::Marker => "marker",
            StateKind::Io => return Ok(now),
        };
        let text = format!("{what} ended while its thread was descheduled");
        Err(UteError::corrupt(text))
    }
}

fn mpi_extras(p: &MpiPayload, op: MpiOp) -> StateExtras {
    StateExtras {
        rank: Some(p.rank),
        peer: Some(p.peer),
        tag: Some(p.tag),
        sent: (op.is_p2p_send() || op.is_collective()).then_some(p.bytes),
        recvd: op.is_p2p_recv().then_some(p.bytes),
        seq: Some(p.seq),
        address: Some(p.address),
        ..StateExtras::default()
    }
}

/// One node's matcher, less the per-thread cursors it advances: what
/// every transition reads, and where the pieces go.
struct Matcher<'a> {
    writer: IntervalFileWriter<'a>,
    /// The record each piece is filled into before the writer encodes
    /// it: one per node, its extras cleared and refilled in place.
    scratch: Interval,
    profile: &'a Profile,
    fills: Vec<Fill>,
    node: NodeId,
    table: &'a ThreadTable,
    markers: &'a MarkerMap,
    /// Where an end without a begin is clipped to (lenient mode); `None`
    /// makes it, and a dispatch out of turn, corrupt.
    clip_to: Option<LocalTime>,
    stats: ConvertStats,
}

type Cursors = HashMap<LogicalThreadId, ThreadCursor>;

/// One event on one thread: what a transition emits is the thread's, till now.
struct Event<'m, 'a> {
    m: &'m mut Matcher<'a>,
    thread: LogicalThreadId,
    now: LocalTime,
}

impl Event<'_, '_> {
    fn emit(
        &mut self,
        state: StateCode,
        bebits: BeBits,
        start: LocalTime,
        cpu: CpuId,
        extras: &StateExtras,
    ) -> Result<()> {
        let m = &mut *self.m;
        let itype = IntervalType { state, bebits };
        let iv = &mut m.scratch;
        iv.itype = itype;
        iv.start = start.ticks();
        iv.duration = self.now.ticks().saturating_sub(start.ticks());
        iv.cpu = cpu;
        iv.thread = self.thread;
        iv.extras.clear();
        // Fill the fields the profile demands for this state. A type
        // without a spec gets no extras: the writer then rejects it.
        let spec = m.profile.specs.get(&itype.to_u32());
        for f in spec.map_or(&[][..], |spec| &spec.fields[..]) {
            let name_idx = f.name_idx as usize;
            let v = match m.fills.get(name_idx).unwrap_or(&Fill::Unknown) {
                Fill::Core => continue,
                Fill::Uint(of) => Value::Uint(of(extras)),
                Fill::EmptyVec => Value::UintVec(Vec::new().into()),
                Fill::Unknown => {
                    let name = m.profile.field_names.get(name_idx);
                    return Err(UteError::Invalid(format!(
                        "converter does not know how to fill field {}",
                        name.map_or("", String::as_str)
                    )));
                }
            };
            iv.extras.push((f.name_idx, v));
        }
        m.writer.push(iv)?;
        m.stats.intervals_out += 1;
        Ok(())
    }

    /// A record without extras: a point event, a burst of Running.
    fn emit_whole(&mut self, state: StateCode, start: LocalTime, cpu: CpuId) -> Result<()> {
        self.emit(state, BeBits::Complete, start, cpu, &StateExtras::default())
    }
}

impl OpenState {
    /// The one piece rule: closes the current piece, if there is one (a
    /// descheduled state has none). Which piece it was follows from
    /// whether the state emitted one before and whether this is its last.
    fn close_piece(&mut self, ev: &mut Event, last: bool, cpu: CpuId) -> Result<()> {
        let Some(start) = self.piece_start.take() else {
            return Ok(());
        };
        let bebits = match (self.emitted, last) {
            (false, false) => BeBits::Begin,
            (true, false) => BeBits::Continuation,
            (true, true) => BeBits::End,
            (false, true) => BeBits::Complete,
        };
        self.emitted = true;
        ev.emit(self.state, bebits, start, cpu, &self.extras)
    }
}

impl ThreadCursor {
    fn cpu(&self) -> CpuId {
        self.cpu.unwrap_or(CpuId(0))
    }

    /// Running bursts are independent complete intervals: the "state"
    /// conceptually spans gaps but each burst stands alone.
    fn close_running(&mut self, ev: &mut Event) -> Result<()> {
        match self.running_since.take() {
            Some(since) => ev.emit_whole(StateCode::RUNNING, since, self.cpu()),
            None => Ok(()),
        }
    }

    /// Closes the piece of the top open state (or Running), because a
    /// nested state begins or the thread is descheduled.
    fn pause_top(&mut self, ev: &mut Event) -> Result<()> {
        let cpu = self.cpu();
        match self.stack.last_mut() {
            Some(open) => open.close_piece(ev, false, cpu),
            None => self.close_running(ev),
        }
    }

    /// Resumes the top open state (or Running), after a dispatch or after
    /// a nested state ended.
    fn resume_top(&mut self, now: LocalTime) {
        if self.cpu.is_none() {
            return;
        }
        match self.stack.last_mut() {
            Some(open) => open.piece_start = Some(now),
            None => self.running_since = Some(now),
        }
    }

    fn dispatch(&mut self, ev: &mut Event, cpu: CpuId) -> Result<()> {
        if self.cpu.is_some() {
            if ev.m.clip_to.is_none() {
                let thread = ev.thread;
                return Err(UteError::corrupt(format!(
                    "thread {thread} dispatched while already running"
                )));
            }
            // Partial trace lost the undispatch: treat as migration.
            self.pause_top(ev)?;
        }
        self.cpu = Some(cpu);
        self.resume_top(ev.now);
        Ok(())
    }

    fn undispatch(&mut self, ev: &mut Event, cpu: CpuId) -> Result<()> {
        if self.cpu.is_none() {
            let Some(trace_start) = ev.m.clip_to else {
                let thread = ev.thread;
                return Err(UteError::corrupt(format!(
                    "thread {thread} undispatched while not running"
                )));
            };
            // Thread was running since before the trace started.
            ev.m.stats.clipped_starts += 1;
            self.cpu = Some(cpu);
            self.running_since = Some(trace_start);
        }
        self.pause_top(ev)?;
        self.cpu = None;
        Ok(())
    }

    /// A begin event: whatever was on top closes a piece, and the new
    /// state opens its first.
    fn open_state(&mut self, ev: &mut Event, kind: StateKind, extras: StateExtras) -> Result<()> {
        self.pause_top(ev)?;
        self.stack.push(OpenState {
            state: kind.state(),
            piece_start: Some(ev.now),
            emitted: false,
            extras,
        });
        ev.m.stats.max_stack = ev.m.stats.max_stack.max(self.stack.len() as u64);
        Ok(())
    }

    /// An end event: the top state must be of `kind`; its last piece
    /// closes and whatever is beneath resumes. `complete` turns the extras
    /// the state opened with (`None`: a clipped end) into its last piece's.
    fn close_state(
        &mut self,
        ev: &mut Event,
        kind: StateKind,
        complete: impl FnOnce(&Matcher, Option<StateExtras>) -> StateExtras,
    ) -> Result<()> {
        let mut open = match (self.stack.pop(), ev.m.clip_to) {
            (Some(open), _) if open.state != kind.state() => {
                return Err(kind.closed_another_state(open.state))
            }
            (Some(open), _) => OpenState {
                extras: complete(ev.m, Some(open.extras)),
                ..open
            },
            // The begin predates the (delayed) trace: a last piece from
            // the trace start, its Begin piece never seen.
            (None, Some(trace_start)) => {
                ev.m.stats.clipped_starts += 1;
                OpenState {
                    state: kind.state(),
                    piece_start: Some(trace_start.min(ev.now)),
                    emitted: true,
                    extras: complete(ev.m, None),
                }
            }
            (None, None) => return Err(kind.end_without_begin(ev.thread)),
        };
        if open.piece_start.is_none() {
            open.piece_start = Some(kind.end_while_descheduled(ev.now)?);
        }
        open.close_piece(ev, true, self.cpu())?;
        self.resume_top(ev.now);
        Ok(())
    }
}

impl Matcher<'_> {
    /// The rank of `thread`'s task and, if that task defined it, the
    /// unified id of its marker `local_id`.
    fn unify(&self, thread: LogicalThreadId, local_id: u32) -> (u32, Option<u32>) {
        let entry = self.table.lookup(self.node, thread);
        let rank = entry.map_or(u32::MAX, |e| e.task.raw());
        (rank, self.markers.unify(rank, local_id))
    }

    /// Applies one event: decode its payload, dispatch on its row. The
    /// payload is borrowed, so the caller may own events or view them.
    fn step(
        &mut self,
        cursors: &mut Cursors,
        code: EventCode,
        now: LocalTime,
        payload: &[u8],
    ) -> Result<()> {
        match code {
            EventCode::TraceStart | EventCode::TraceStop | EventCode::MarkerDef => Ok(()),

            EventCode::GlobalClock => {
                let p = ClockPayload::from_bytes(payload)?;
                // Clock records ride along as zero-duration CLOCK intervals on
                // pseudo-thread 0; `seq` carries the global timestamp into the
                // profile's globalTime field.
                let extras = StateExtras {
                    seq: Some(p.global.ticks()),
                    ..StateExtras::default()
                };
                let (m, thread) = (self, LogicalThreadId(0));
                let mut ev = Event { m, thread, now };
                ev.emit(StateCode::CLOCK, BeBits::Complete, now, CpuId(0), &extras)
            }

            EventCode::MpiBegin(op) => {
                let p = MpiPayload::from_bytes(payload)?;
                let (cur, ev) = &mut on(self, cursors, p.thread, now);
                cur.open_state(ev, StateKind::Mpi(op), mpi_extras(&p, op))
            }
            EventCode::MpiEnd(op) => {
                let p = MpiPayload::from_bytes(payload)?;
                let (cur, ev) = &mut on(self, cursors, p.thread, now);
                // The end event carries the completed call's arguments.
                cur.close_state(ev, StateKind::Mpi(op), |_, _| mpi_extras(&p, op))
            }

            EventCode::MarkerBegin => {
                let p = MarkerPayload::from_bytes(payload)?;
                let (rank, unified) = self.unify(p.thread, p.local_id);
                let unified = unified.ok_or_else(|| {
                    UteError::corrupt(format!(
                        "marker begin for undefined id {} (rank {rank})",
                        p.local_id
                    ))
                })?;
                let extras = StateExtras {
                    marker_id: Some(unified),
                    address: Some(p.address),
                    ..StateExtras::default()
                };
                let (cur, ev) = &mut on(self, cursors, p.thread, now);
                cur.open_state(ev, StateKind::Marker, extras)
            }
            EventCode::MarkerEnd => {
                let p = MarkerPayload::from_bytes(payload)?;
                // A marker opened before the trace started has the id its
                // task defined since, else 0.
                let clipped = |m: &Matcher| StateExtras {
                    marker_id: m.unify(p.thread, p.local_id).1.or(Some(0)),
                    ..StateExtras::default()
                };
                let (cur, ev) = &mut on(self, cursors, p.thread, now);
                cur.close_state(ev, StateKind::Marker, |m, opened_with| StateExtras {
                    address_end: Some(p.address),
                    ..opened_with.unwrap_or_else(|| clipped(m))
                })
            }

            // The events that say only which thread, on which CPU.
            EventCode::ThreadDispatch
            | EventCode::ThreadUndispatch
            | EventCode::IoStart
            | EventCode::IoEnd
            | EventCode::Syscall
            | EventCode::PageFault
            | EventCode::Interrupt => {
                let p = DispatchPayload::from_bytes(payload)?;
                let (cur, ev) = &mut on(self, cursors, p.thread, now);
                match code {
                    EventCode::ThreadDispatch => cur.dispatch(ev, p.cpu),
                    EventCode::ThreadUndispatch => cur.undispatch(ev, p.cpu),
                    EventCode::IoStart => cur.open_state(ev, StateKind::Io, StateExtras::default()),
                    EventCode::IoEnd => {
                        cur.close_state(ev, StateKind::Io, |_, e| e.unwrap_or_default())
                    }
                    // Point system events become zero-duration complete
                    // intervals without splitting the enclosing state.
                    EventCode::Syscall => ev.emit_whole(StateCode::SYSCALL, now, cur.cpu()),
                    EventCode::PageFault => ev.emit_whole(StateCode::PAGE_FAULT, now, cur.cpu()),
                    _ => ev.emit_whole(StateCode::INTERRUPT, now, cur.cpu()),
                }
            }
        }
    }
}

/// The cursor of `thread` and the event at `now` its transitions emit into.
fn on<'m, 'a>(
    m: &'m mut Matcher<'a>,
    cursors: &'m mut Cursors,
    thread: LogicalThreadId,
    now: LocalTime,
) -> (&'m mut ThreadCursor, Event<'m, 'a>) {
    (cursors.entry(thread).or_default(), Event { m, thread, now })
}

/// Converts one node's raw trace into a per-node interval file
/// (strict mode; see [`convert_node_opts`] for partial traces).
pub fn convert_node<R: RawRecords>(
    file: &R,
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

/// Converts one node's raw trace with explicit options: the one
/// matcher loop, over views of the file's bytes or of decoded events.
pub fn convert_node_opts<R: RawRecords>(
    file: &R,
    threads: &ThreadTable,
    profile: &Profile,
    markers: &MarkerMap,
    opts: &ConvertOptions,
) -> Result<ConvertOutput> {
    let node = file.node();
    let _span = ute_obs::Span::enter("convert", format!("convert node {}", node.raw()));
    let table = node_threads(threads, node);
    let writer = IntervalFileWriter::new(
        profile,
        MASK_PER_NODE,
        node.raw(),
        &table,
        markers.table(),
        opts.policy,
    );
    let trace_start = file.records().next().map_or(LocalTime(0), |e| e.timestamp);
    let mut m = Matcher {
        writer,
        scratch: Interval::basic(
            IntervalType::complete(StateCode::RUNNING),
            0,
            0,
            CpuId(0),
            node,
            LogicalThreadId(0),
        ),
        profile,
        fills: fills(profile),
        node,
        table: &table,
        markers,
        clip_to: opts.lenient.then_some(trace_start),
        stats: ConvertStats::default(),
    };
    let mut cursors = Cursors::new();
    let mut last_time = LocalTime(0);
    for ev in file.records() {
        m.stats.events_in += 1;
        last_time = last_time.max(ev.timestamp);
        m.step(&mut cursors, ev.code, ev.timestamp, ev.payload)?;
    }
    // Force-close anything still open at the end of the trace: on each
    // thread its Running burst, then its stack from the top, every piece
    // a last one.
    let mut leftover: Vec<LogicalThreadId> = cursors.keys().copied().collect();
    leftover.sort();
    let before = m.stats.intervals_out;
    for thread in leftover {
        let (cur, ev) = &mut on(&mut m, &mut cursors, thread, last_time);
        cur.close_running(ev)?;
        while let Some(mut open) = cur.stack.pop() {
            open.close_piece(ev, true, cur.cpu())?;
        }
    }
    let stats = &mut m.stats;
    stats.force_closed = stats.intervals_out - before;
    ute_obs::counter("convert/records_in").add(stats.events_in);
    ute_obs::counter("convert/intervals_out").add(stats.intervals_out);
    ute_obs::counter("convert/force_closed").add(stats.force_closed);
    if opts.salvage && stats.force_closed > 0 {
        ute_obs::counter("salvage/intervals_truncated").add(stats.force_closed);
    }
    ute_obs::counter("convert/clipped_starts").add(stats.clipped_starts);
    ute_obs::gauge("convert/match_stack_max").set_max(stats.max_stack as f64);
    Ok(ConvertOutput {
        node,
        interval_file: m.writer.finish(),
        stats: m.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ute_core::ids::{Pid, SystemThreadId, TaskId, ThreadType};
    use ute_format::file::IntervalFileReader;
    use ute_format::thread_table::ThreadEntry;
    use ute_rawtrace::record::RawEvent;

    pub(super) fn table() -> ThreadTable {
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
    use super::tests::table;
    use super::*;
    use ute_format::file::IntervalFileReader;
    use ute_rawtrace::record::RawEvent;

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
    use ute_format::file::IntervalFileReader;
    use ute_rawtrace::record::RawEvent;

    #[test]
    fn lenient_marker_and_io_ends_clip_to_trace_start() {
        let table = tests::table();
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
