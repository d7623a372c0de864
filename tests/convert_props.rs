//! Property tests for the event→interval converter: for *any* valid
//! per-thread activity history, the produced pieces must reassemble into
//! exactly the original calls, and the pieces of each state must tile the
//! thread's dispatched time inside that state.

use proptest::prelude::*;

use ute::convert::{
    convert_job_pooled, convert_node, convert_node_opts, ConvertOptions, ConvertStats, MarkerMap,
};
use ute::core::bebits::{count_states, BeBits};
use ute::core::event::{EventCode, MpiOp};
use ute::core::ids::{CpuId, LogicalThreadId, NodeId, Pid, SystemThreadId, TaskId, ThreadType};
use ute::core::time::LocalTime;
use ute::format::codecio::read_thread_table_file;
use ute::format::datatype::FieldType;
use ute::format::file::{FramePolicy, IntervalFileReader};
use ute::format::profile::{FieldSpec, Profile};
use ute::format::record::{Interval, IntervalType};
use ute::format::state::StateCode;
use ute::format::thread_table::{ThreadEntry, ThreadTable};
use ute::format::value::Value;
use ute::rawtrace::file::RawTraceFile;
use ute::rawtrace::record::{
    DispatchPayload, MarkerDefPayload, MarkerPayload, MpiPayload, RawEvent,
};
use ute::store::fnv64;

/// One abstract action of the generated history.
#[derive(Debug, Clone, Copy)]
enum Act {
    /// Deschedule then re-dispatch (possibly on another CPU).
    Yield { cpu: u16 },
    /// A complete MPI call with a deschedule inside iff `blocked`.
    Call { op_idx: u8, blocked: bool },
    /// Plain running time.
    Run,
}

fn arb_act() -> impl Strategy<Value = Act> {
    prop_oneof![
        (0u16..4).prop_map(|cpu| Act::Yield { cpu }),
        (0u8..4, any::<bool>()).prop_map(|(op_idx, blocked)| Act::Call { op_idx, blocked }),
        Just(Act::Run),
    ]
}

const OPS: [MpiOp; 4] = [MpiOp::Send, MpiOp::Recv, MpiOp::Barrier, MpiOp::Allreduce];

/// Renders a history into a raw event stream, returning the stream plus
/// the ground truth: number of calls per op and total in-call time.
fn render(acts: &[Act]) -> (Vec<RawEvent>, [usize; 4], u64) {
    let thread = LogicalThreadId(0);
    let mut events = Vec::new();
    let mut t = 0u64;
    let mut cpu = 0u16;
    let step = |t: &mut u64| {
        *t += 10;
        *t
    };
    let dispatch = |on: bool, cpu: u16, at: u64| {
        RawEvent::new(
            if on {
                EventCode::ThreadDispatch
            } else {
                EventCode::ThreadUndispatch
            },
            LocalTime(at),
            DispatchPayload {
                thread,
                cpu: CpuId(cpu),
            }
            .to_bytes(),
        )
    };
    let mpi = |op: MpiOp, begin: bool, at: u64| {
        RawEvent::new(
            if begin {
                EventCode::MpiBegin(op)
            } else {
                EventCode::MpiEnd(op)
            },
            LocalTime(at),
            MpiPayload::bare(thread, 0).to_bytes(),
        )
    };
    events.push(dispatch(true, cpu, step(&mut t)));
    let mut calls = [0usize; 4];
    let mut in_call = 0u64;
    for act in acts {
        match *act {
            Act::Yield { cpu: next } => {
                events.push(dispatch(false, cpu, step(&mut t)));
                cpu = next;
                events.push(dispatch(true, cpu, step(&mut t)));
            }
            Act::Run => {
                t += 25;
            }
            Act::Call { op_idx, blocked } => {
                let op = OPS[op_idx as usize];
                calls[op_idx as usize] += 1;
                let begin_at = step(&mut t);
                events.push(mpi(op, true, begin_at));
                if blocked {
                    events.push(dispatch(false, cpu, step(&mut t)));
                    // blocked gap does not count as in-call CPU time
                    let off_at = t;
                    t += 100;
                    events.push(dispatch(true, cpu, step(&mut t)));
                    let end_at = step(&mut t);
                    events.push(mpi(op, false, end_at));
                    in_call += (off_at - begin_at) + (end_at - (off_at + 100 + 10));
                } else {
                    let end_at = step(&mut t);
                    events.push(mpi(op, false, end_at));
                    in_call += end_at - begin_at;
                }
            }
        }
    }
    events.push(dispatch(false, cpu, step(&mut t)));
    (events, calls, in_call)
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn pieces_reassemble_and_tile(acts in prop::collection::vec(arb_act(), 0..40)) {
        let (events, calls, in_call) = render(&acts);
        let profile = Profile::standard();
        let file = RawTraceFile::new(NodeId(0), events);
        let markers = MarkerMap::default();
        let out = convert_node(&file, &table(), &profile, &markers, FramePolicy::tiny()).unwrap();
        let r = IntervalFileReader::open(&out.interval_file, &profile).unwrap();
        let ivs: Vec<Interval> = r.intervals().map(|x| x.unwrap()).collect();

        // 1. Per MPI op: piece sequences are well-formed and count the
        //    exact number of calls the history made.
        for (i, op) in OPS.iter().enumerate() {
            let state = StateCode::mpi(*op);
            let seq: Vec<_> = ivs
                .iter()
                .filter(|iv| iv.itype.state == state)
                .map(|iv| iv.itype.bebits)
                .collect();
            let n = count_states(&seq);
            prop_assert_eq!(
                n,
                Some(calls[i]),
                "op {} pieces {:?}",
                op,
                seq
            );
        }

        // 2. The summed duration of MPI pieces equals the time the thread
        //    spent dispatched inside calls.
        let piece_time: u64 = ivs
            .iter()
            .filter(|iv| iv.itype.state.as_mpi().is_some())
            .map(|iv| iv.duration)
            .sum();
        prop_assert_eq!(piece_time, in_call);

        // 3. No two pieces on the thread overlap (they tile the timeline).
        let mut spans: Vec<(u64, u64)> = ivs
            .iter()
            .filter(|iv| iv.itype.state != StateCode::CLOCK && iv.duration > 0)
            .map(|iv| (iv.start, iv.end()))
            .collect();
        spans.sort_unstable();
        for w in spans.windows(2) {
            prop_assert!(
                w[0].1 <= w[1].0,
                "overlapping pieces {:?} and {:?}",
                w[0],
                w[1]
            );
        }
    }
}

// ---------------------------------------------------------------------
// The matcher's transition table (DESIGN "The matcher is a transition
// table"): every bracketed kind through every interruption, with the
// exact pieces and the exact error texts.

/// The three bracketed state kinds; `Mpi` stands for every MPI op.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Mpi,
    Marker,
    Io,
}

const KINDS: [Kind; 3] = [Kind::Mpi, Kind::Marker, Kind::Io];
const T0: LogicalThreadId = LogicalThreadId(0);

impl Kind {
    fn state(self) -> StateCode {
        match self {
            Kind::Mpi => StateCode::mpi(MpiOp::Recv),
            Kind::Marker => StateCode::MARKER,
            Kind::Io => StateCode::IO,
        }
    }

    /// A different kind, to nest inside or to be closed by mistake.
    fn other(self) -> Kind {
        match self {
            Kind::Mpi => Kind::Marker,
            Kind::Marker => Kind::Io,
            Kind::Io => Kind::Mpi,
        }
    }

    /// The begin (`open`) or end event of this kind at `at`; the end
    /// event's payload differs from the begin's where the format lets it.
    fn event(self, open: bool, at: u64) -> RawEvent {
        let at = LocalTime(at);
        match self {
            Kind::Mpi => {
                let mut p = MpiPayload::bare(T0, 0);
                p.peer = 1;
                if !open {
                    p.bytes = 2048;
                    p.seq = 7;
                }
                let code = if open {
                    EventCode::MpiBegin(MpiOp::Recv)
                } else {
                    EventCode::MpiEnd(MpiOp::Recv)
                };
                RawEvent::new(code, at, p.to_bytes())
            }
            Kind::Marker => RawEvent::new(
                if open {
                    EventCode::MarkerBegin
                } else {
                    EventCode::MarkerEnd
                },
                at,
                MarkerPayload {
                    thread: T0,
                    local_id: 1,
                    address: if open { 0x40 } else { 0x80 },
                }
                .to_bytes(),
            ),
            Kind::Io => on_thread(
                if open {
                    EventCode::IoStart
                } else {
                    EventCode::IoEnd
                },
                at.ticks(),
            ),
        }
    }

    fn begin(self, at: u64) -> RawEvent {
        self.event(true, at)
    }

    fn end(self, at: u64) -> RawEvent {
        self.event(false, at)
    }
}

/// An event whose payload is just (thread 0, cpu 0).
fn on_thread(code: EventCode, at: u64) -> RawEvent {
    RawEvent::new(
        code,
        LocalTime(at),
        DispatchPayload {
            thread: T0,
            cpu: CpuId(0),
        }
        .to_bytes(),
    )
}

fn on(at: u64) -> RawEvent {
    on_thread(EventCode::ThreadDispatch, at)
}

fn off(at: u64) -> RawEvent {
    on_thread(EventCode::ThreadUndispatch, at)
}

/// One emitted piece: `(state, bebits, start, end)`.
type Piece = (StateCode, BeBits, u64, u64);

/// Converts thread 0's `events` (marker 1 is defined first, at the first
/// event's timestamp) and returns the pieces in file order, or the error
/// text.
fn pieces_of(
    profile: &Profile,
    mut events: Vec<RawEvent>,
    lenient: bool,
) -> Result<(Vec<Interval>, ConvertStats), String> {
    let def = RawEvent::new(
        EventCode::MarkerDef,
        events[0].timestamp,
        MarkerDefPayload {
            local_id: 1,
            rank: 0,
            name: "Phase".into(),
        }
        .to_bytes(),
    );
    events.insert(0, def);
    let file = RawTraceFile::new(NodeId(0), events);
    let markers = MarkerMap::build(std::slice::from_ref(&file)).unwrap();
    let opts = ConvertOptions {
        lenient,
        ..ConvertOptions::default()
    };
    let out =
        convert_node_opts(&file, &table(), profile, &markers, &opts).map_err(|e| e.to_string())?;
    let r = IntervalFileReader::open(&out.interval_file, profile).unwrap();
    Ok((r.intervals().map(|x| x.unwrap()).collect(), out.stats))
}

fn as_pieces(ivs: &[Interval]) -> Vec<Piece> {
    ivs.iter()
        .map(|iv| (iv.itype.state, iv.itype.bebits, iv.start, iv.end()))
        .collect()
}

fn pieces(events: Vec<RawEvent>, lenient: bool) -> Result<Vec<Piece>, String> {
    let (ivs, _) = pieces_of(&Profile::standard(), events, lenient)?;
    Ok(as_pieces(&ivs))
}

fn running(start: u64, end: u64) -> Piece {
    (StateCode::RUNNING, BeBits::Complete, start, end)
}

#[test]
fn transition_table_pieces() {
    use BeBits::{Begin, Complete, Continuation, End};
    for k in KINDS {
        let s = k.state();
        let o = k.other();
        let strict = |events| pieces(events, false);

        // Uninterrupted: the only piece.
        assert_eq!(
            strict(vec![on(0), k.begin(10), k.end(30), off(40)]).unwrap(),
            [running(0, 10), (s, Complete, 10, 30), running(30, 40)],
            "{k:?} uninterrupted"
        );
        // Descheduled once: first and last piece.
        assert_eq!(
            strict(vec![
                on(0),
                k.begin(10),
                off(20),
                on(30),
                k.end(40),
                off(50)
            ])
            .unwrap(),
            [
                running(0, 10),
                (s, Begin, 10, 20),
                (s, End, 30, 40),
                running(40, 50)
            ],
            "{k:?} descheduled once"
        );
        // Descheduled twice: an interior piece between them.
        assert_eq!(
            strict(vec![
                on(0),
                k.begin(10),
                off(20),
                on(30),
                off(40),
                on(50),
                k.end(60),
                off(70)
            ])
            .unwrap(),
            [
                running(0, 10),
                (s, Begin, 10, 20),
                (s, Continuation, 30, 40),
                (s, End, 50, 60),
                running(60, 70)
            ],
            "{k:?} descheduled twice"
        );
        // Nested inside another state: the inner begin closes a piece of
        // the outer, the inner end resumes it.
        assert_eq!(
            strict(vec![
                on(0),
                o.begin(10),
                k.begin(20),
                k.end(30),
                o.end(40),
                off(50)
            ])
            .unwrap(),
            [
                running(0, 10),
                (o.state(), Begin, 10, 20),
                (s, Complete, 20, 30),
                (o.state(), End, 30, 40),
                running(40, 50)
            ],
            "{k:?} nested in {o:?}"
        );
        // Open at end of trace: force-closed at the last timestamp, as
        // the only piece or as the last one.
        let sys = |at| on_thread(EventCode::Syscall, at);
        assert_eq!(
            strict(vec![on(0), k.begin(10), sys(25)]).unwrap(),
            [
                running(0, 10),
                (StateCode::SYSCALL, Complete, 25, 25),
                (s, Complete, 10, 25)
            ],
            "{k:?} open at end of trace"
        );
        let (ivs, stats) = pieces_of(
            &Profile::standard(),
            vec![on(0), k.begin(10), off(20), on(30), sys(35)],
            false,
        )
        .unwrap();
        assert_eq!(
            as_pieces(&ivs),
            [
                running(0, 10),
                (s, Begin, 10, 20),
                (StateCode::SYSCALL, Complete, 35, 35),
                (s, End, 30, 35)
            ],
            "{k:?} open at end of trace after a deschedule"
        );
        assert_eq!((stats.force_closed, stats.max_stack), (1, 1), "{k:?}");
        // End without begin, lenient: clipped to the trace start as a
        // last piece, and counted.
        let (ivs, stats) =
            pieces_of(&Profile::standard(), vec![on(5), k.end(10), off(20)], true).unwrap();
        assert_eq!(
            as_pieces(&ivs),
            [(s, End, 5, 10), running(10, 20)],
            "{k:?} lenient end without begin"
        );
        assert_eq!(stats.clipped_starts, 1, "{k:?}");
    }
    // Lenient bookkeeping can leave a Running burst open beneath an open
    // state (an undispatch whose dispatch the trace lost): at the end of
    // the trace the burst closes first, then the stack.
    assert_eq!(
        pieces(
            vec![
                on(0),
                Kind::Io.begin(10),
                off(20),
                off(30),
                on(40),
                on_thread(EventCode::Syscall, 50)
            ],
            true
        )
        .unwrap(),
        [
            running(0, 10),
            (StateCode::IO, BeBits::Begin, 10, 20),
            (StateCode::SYSCALL, BeBits::Complete, 50, 50),
            running(0, 50),
            (StateCode::IO, BeBits::End, 40, 50)
        ]
    );
    // The one row that differs by kind: an end that arrives while the
    // thread is descheduled is corrupt for MPI and markers (below) but
    // an empty last piece at the end's own time for I/O.
    assert_eq!(
        pieces(
            vec![on(0), Kind::Io.begin(10), off(20), Kind::Io.end(30)],
            false
        )
        .unwrap(),
        [
            running(0, 10),
            (StateCode::IO, BeBits::Begin, 10, 20),
            (StateCode::IO, BeBits::End, 30, 30)
        ]
    );
}

#[test]
fn transition_table_errors() {
    let err = |events| pieces(events, false).unwrap_err();
    let marker = StateCode::MARKER;
    let io = StateCode::IO;
    // End without begin.
    for (k, text) in [
        (
            Kind::Mpi,
            "corrupt MPI_Recv: end without begin on thread 0".to_string(),
        ),
        (
            Kind::Marker,
            "corrupt marker end without begin on thread 0".to_string(),
        ),
        (
            Kind::Io,
            "corrupt IoEnd without IoStart on thread 0".to_string(),
        ),
    ] {
        assert_eq!(err(vec![on(0), k.end(10)]), text);
    }
    // End closing the wrong kind.
    for (k, text) in [
        (
            Kind::Mpi,
            format!("corrupt mismatched end: open state {marker} closed by MPI_Recv"),
        ),
        (
            Kind::Marker,
            format!("corrupt marker end closed a {io} state"),
        ),
        (Kind::Io, "corrupt IoEnd closed a non-IO state".to_string()),
    ] {
        assert_eq!(err(vec![on(0), k.other().begin(10), k.end(20)]), text);
    }
    // An MPI end closing another MPI op is the same mismatch.
    let send_end = RawEvent::new(
        EventCode::MpiEnd(MpiOp::Send),
        LocalTime(20),
        MpiPayload::bare(T0, 0).to_bytes(),
    );
    assert_eq!(
        err(vec![on(0), Kind::Mpi.begin(10), send_end]),
        "corrupt mismatched end: open state MPI_Recv closed by MPI_Send"
    );
    // End while descheduled (I/O takes it at `now`: see the piece table).
    for (k, text) in [
        (
            Kind::Mpi,
            "corrupt MPI_Recv ended while its thread was descheduled",
        ),
        (
            Kind::Marker,
            "corrupt marker ended while its thread was descheduled",
        ),
    ] {
        assert_eq!(err(vec![on(0), k.begin(10), off(20), k.end(30)]), text);
    }
    // Dispatch bookkeeping.
    assert_eq!(
        err(vec![on(0), on(10)]),
        "corrupt thread 0 dispatched while already running"
    );
    assert_eq!(
        err(vec![off(10)]),
        "corrupt thread 0 undispatched while not running"
    );
    // A marker nobody defined.
    let undefined = RawEvent::new(
        EventCode::MarkerBegin,
        LocalTime(10),
        MarkerPayload {
            thread: T0,
            local_id: 9,
            address: 0,
        }
        .to_bytes(),
    );
    assert_eq!(
        err(vec![on(0), undefined]),
        "corrupt marker begin for undefined id 9 (rank 0)"
    );
    // A profile asking for a field the converter has no source for.
    let mut profile = Profile::standard();
    let bogus = profile.intern_field_name("bogus");
    let running_type = IntervalType {
        state: StateCode::RUNNING,
        bebits: BeBits::Complete,
    };
    profile
        .specs
        .get_mut(&running_type.to_u32())
        .unwrap()
        .fields
        .push(FieldSpec::scalar(bogus, FieldType::U32));
    assert_eq!(
        pieces_of(&profile, vec![on(0), off(10)], false).unwrap_err(),
        "invalid request: converter does not know how to fill field bogus"
    );
}

#[test]
fn extras_are_built_at_begin_and_completed_at_end() {
    let p = Profile::standard();
    let uint = |iv: &Interval, name: &str| match iv.extra(&p, name) {
        Some(Value::Uint(v)) => Some(*v),
        _ => None,
    };
    let split = |k: Kind| {
        let (ivs, _) = pieces_of(
            &p,
            vec![on(0), k.begin(10), off(20), on(30), k.end(40), off(50)],
            false,
        )
        .unwrap();
        let mut of_kind = ivs.into_iter().filter(|iv| iv.itype.state == k.state());
        (of_kind.next().unwrap(), of_kind.next().unwrap())
    };
    // MPI: the begin event's arguments on the pieces before the end, the
    // end event's (the completed call's) on the last.
    let (first, last) = split(Kind::Mpi);
    assert_eq!(uint(&first, "msgSizeRecvd"), Some(0));
    assert_eq!(uint(&first, "seq"), Some(0));
    assert_eq!(uint(&last, "msgSizeRecvd"), Some(2048));
    assert_eq!(uint(&last, "seq"), Some(7));
    assert_eq!(uint(&last, "peer"), Some(1));
    // Marker: unified id and begin address throughout, the end address
    // on the last piece only.
    let (first, last) = split(Kind::Marker);
    for piece in [&first, &last] {
        assert_eq!(uint(piece, "markerId"), Some(1));
        assert_eq!(uint(piece, "address"), Some(0x40));
    }
    assert_eq!(uint(&first, "addressEnd"), Some(0));
    assert_eq!(uint(&last, "addressEnd"), Some(0x80));
    // A clipped marker end keeps its unified id; an undefined one is 0.
    let (ivs, _) = pieces_of(&p, vec![on(5), Kind::Marker.end(10)], true).unwrap();
    assert_eq!(uint(&ivs[0], "markerId"), Some(1));
    assert_eq!(uint(&ivs[0], "addressEnd"), Some(0x80));
}

// ---------------------------------------------------------------------
// Golden outputs: what `ute convert` produces for whole workloads, as
// hashes recorded from the commit before the matcher became a table.

/// Traces `workload` with the CLI into a fresh directory, converts the
/// files as `ute convert [--strict]` would at `--jobs 2`, and digests
/// every interval file and every counter.
fn convert_digest(name: &str, trace_args: &[&str], salvage: bool) -> (u64, [u64; 5]) {
    let dir =
        std::env::temp_dir().join(format!("ute_convert_golden_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut argv: Vec<String> = vec!["trace".into(), "--out".into(), dir.display().to_string()];
    argv.extend(trace_args.iter().map(|s| s.to_string()));
    ute::cli::run(&argv).unwrap();
    let mut files = Vec::new();
    for node in 0u16.. {
        let p = dir.join(RawTraceFile::file_name("trace", NodeId(node)));
        if !p.exists() {
            break;
        }
        files.push(if salvage {
            RawTraceFile::read_from_salvage(&p).unwrap().0
        } else {
            RawTraceFile::read_from(&p).unwrap()
        });
    }
    let threads = read_thread_table_file(&dir.join("threads.utt")).unwrap();
    let profile = Profile::read_from(&dir.join("profile.ute")).unwrap();
    let opts = ConvertOptions {
        lenient: salvage,
        salvage,
        ..ConvertOptions::default()
    };
    let outputs = convert_job_pooled(&files, &threads, &profile, &opts, 2).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let mut digest = Vec::new();
    let mut totals = [0u64; 5];
    for o in &outputs {
        let s = o.stats;
        let stats = [
            s.events_in,
            s.intervals_out,
            s.force_closed,
            s.clipped_starts,
            s.max_stack,
        ];
        digest.extend_from_slice(&fnv64(&o.interval_file).to_le_bytes());
        for (total, v) in totals.iter_mut().zip(stats) {
            digest.extend_from_slice(&v.to_le_bytes());
            *total += v;
        }
    }
    (fnv64(&digest), totals)
}

#[test]
fn whole_workload_outputs_are_the_recorded_ones() {
    // (name, `ute trace` arguments, salvage) and, per case, (digest,
    // summed [events_in, intervals_out, force_closed, clipped_starts,
    // max_stack]).
    let cases: [(&str, &[&str], bool); 5] = [
        (
            "scaling400",
            &["--workload", "scaling", "--iterations", "400"],
            false,
        ),
        ("sppm", &["--workload", "sppm"], false),
        ("flash", &["--workload", "flash"], false),
        ("scenario7", &["--workload", "scenario:7"], false),
        (
            "scaling_fault3",
            &["--workload", "scaling", "--fault-seed", "3"],
            true,
        ),
    ];
    let recorded: [(u64, [u64; 5]); 5] = [
        (17527198003544791826, [16512, 13452, 0, 0, 8]),
        (13790532455566985843, [612, 516, 0, 0, 8]),
        (3266846055090510812, [1172, 950, 0, 0, 12]),
        (15409754291863165576, [245, 208, 0, 0, 6]),
        (7267010224317015917, [5947, 4796, 2, 0, 6]),
    ];
    let got = cases.map(|(name, trace_args, salvage)| convert_digest(name, trace_args, salvage));
    assert_eq!(got, recorded);
}
