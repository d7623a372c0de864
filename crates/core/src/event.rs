//! Trace event codes.
//!
//! Every raw trace record starts with a *hookword* identifying the event
//! type and the record length (§2.1). The 16-bit event-type space is split
//! into system events (thread dispatch, global-clock samples, I/O, page
//! faults), user-marker events, and MPI events. MPI events come in
//! begin/end pairs cut by the PMPI-style wrappers around each call.

use std::fmt;

/// One end of a message, keyed job-wide by `(sender rank, seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageEnd {
    Send((u64, u64)),
    Recv((u64, u64)),
}

/// The sends seen so far by key, to pair each receive with its send.
#[derive(Default)]
pub struct Messages<S>(std::collections::HashMap<(u64, u64), S>);

impl<S> Messages<S> {
    /// Takes one piece's `end`: a send stores `send()` under its key, a
    /// receive gets the send stored under its key, if any.
    pub fn pair(&mut self, end: Option<MessageEnd>, send: impl FnOnce() -> S) -> Option<&S> {
        match end? {
            MessageEnd::Send(key) => {
                self.0.insert(key, send());
                None
            }
            MessageEnd::Recv(key) => self.0.get(&key),
        }
    }
}

/// MPI operations modelled by the tracing environment.
///
/// The set covers the point-to-point and collective calls exercised by the
/// paper's workloads (sPPM, FLASH) plus the non-blocking completions needed
/// for realistic interval splitting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MpiOp {
    Init,
    Finalize,
    Send,
    Recv,
    Isend,
    Irecv,
    Wait,
    Waitall,
    Sendrecv,
    Barrier,
    Bcast,
    Reduce,
    Allreduce,
    Alltoall,
    Gather,
    Scatter,
    Allgather,
}

impl MpiOp {
    /// All modelled operations, in code order.
    pub const ALL: [MpiOp; 17] = [
        MpiOp::Init,
        MpiOp::Finalize,
        MpiOp::Send,
        MpiOp::Recv,
        MpiOp::Isend,
        MpiOp::Irecv,
        MpiOp::Wait,
        MpiOp::Waitall,
        MpiOp::Sendrecv,
        MpiOp::Barrier,
        MpiOp::Bcast,
        MpiOp::Reduce,
        MpiOp::Allreduce,
        MpiOp::Alltoall,
        MpiOp::Gather,
        MpiOp::Scatter,
        MpiOp::Allgather,
    ];

    /// Numeric sub-code within the MPI event-type block.
    pub fn code(self) -> u16 {
        match self {
            MpiOp::Init => 0,
            MpiOp::Finalize => 1,
            MpiOp::Send => 2,
            MpiOp::Recv => 3,
            MpiOp::Isend => 4,
            MpiOp::Irecv => 5,
            MpiOp::Wait => 6,
            MpiOp::Waitall => 7,
            MpiOp::Sendrecv => 8,
            MpiOp::Barrier => 9,
            MpiOp::Bcast => 10,
            MpiOp::Reduce => 11,
            MpiOp::Allreduce => 12,
            MpiOp::Alltoall => 13,
            MpiOp::Gather => 14,
            MpiOp::Scatter => 15,
            MpiOp::Allgather => 16,
        }
    }

    /// Inverse of [`MpiOp::code`].
    pub fn from_code(code: u16) -> Option<MpiOp> {
        MpiOp::ALL.get(code as usize).copied()
    }

    /// The standard routine name, e.g. `"MPI_Send"`.
    pub fn name(self) -> &'static str {
        match self {
            MpiOp::Init => "MPI_Init",
            MpiOp::Finalize => "MPI_Finalize",
            MpiOp::Send => "MPI_Send",
            MpiOp::Recv => "MPI_Recv",
            MpiOp::Isend => "MPI_Isend",
            MpiOp::Irecv => "MPI_Irecv",
            MpiOp::Wait => "MPI_Wait",
            MpiOp::Waitall => "MPI_Waitall",
            MpiOp::Sendrecv => "MPI_Sendrecv",
            MpiOp::Barrier => "MPI_Barrier",
            MpiOp::Bcast => "MPI_Bcast",
            MpiOp::Reduce => "MPI_Reduce",
            MpiOp::Allreduce => "MPI_Allreduce",
            MpiOp::Alltoall => "MPI_Alltoall",
            MpiOp::Gather => "MPI_Gather",
            MpiOp::Scatter => "MPI_Scatter",
            MpiOp::Allgather => "MPI_Allgather",
        }
    }

    /// Whether this call sends point-to-point payload bytes.
    pub fn is_p2p_send(self) -> bool {
        matches!(self, MpiOp::Send | MpiOp::Isend | MpiOp::Sendrecv)
    }

    /// Whether this call receives point-to-point payload bytes.
    pub fn is_p2p_recv(self) -> bool {
        matches!(self, MpiOp::Recv | MpiOp::Irecv | MpiOp::Sendrecv)
    }

    /// The message end a piece of this call is — the one matching rule
    /// of SLOG arrows, late-sender and the critical path. A piece that
    /// ends the call with `seq > 0` is a send keyed on its `rank`, or a
    /// receive (`Recv`, `Irecv`, the `Wait` completing one) keyed on its
    /// `peer`, the sender. `Sendrecv`'s `seq` numbers its outgoing
    /// message, so it is only a send. A missing rank or peer is no end.
    pub fn message_end(
        self,
        ends: bool,
        rank: Option<u64>,
        peer: Option<u64>,
        seq: u64,
    ) -> Option<MessageEnd> {
        let key = |who: Option<u64>| who.filter(|_| ends && seq > 0).map(|w| (w, seq));
        match self {
            _ if self.is_p2p_send() => key(rank).map(MessageEnd::Send),
            MpiOp::Recv | MpiOp::Irecv | MpiOp::Wait => key(peer).map(MessageEnd::Recv),
            _ => None,
        }
    }

    /// Whether this is a collective operation over a communicator.
    pub fn is_collective(self) -> bool {
        matches!(
            self,
            MpiOp::Barrier
                | MpiOp::Bcast
                | MpiOp::Reduce
                | MpiOp::Allreduce
                | MpiOp::Alltoall
                | MpiOp::Gather
                | MpiOp::Scatter
                | MpiOp::Allgather
        )
    }
}

impl fmt::Display for MpiOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Base of the MPI block in the 16-bit event-type space. MPI begin events
/// are `MPI_BASE + 2*code`, end events are `MPI_BASE + 2*code + 1`.
pub const MPI_BASE: u16 = 0x1000;

/// A 16-bit trace event type, as stored in the hookword.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventCode {
    /// Tracing was (re)started on this node.
    TraceStart,
    /// Tracing was stopped on this node.
    TraceStop,
    /// A thread was dispatched onto a CPU.
    ThreadDispatch,
    /// A thread was descheduled from a CPU.
    ThreadUndispatch,
    /// A (global timestamp, local timestamp) clock-sample record (§2.2).
    GlobalClock,
    /// A user-marker string was defined and assigned a task-local id.
    MarkerDef,
    /// Begin of a user-marked region.
    MarkerBegin,
    /// End of a user-marked region.
    MarkerEnd,
    /// A system call executed on behalf of a thread.
    Syscall,
    /// A page fault was serviced.
    PageFault,
    /// Start of an I/O operation.
    IoStart,
    /// End of an I/O operation.
    IoEnd,
    /// A hardware interrupt was handled.
    Interrupt,
    /// Begin of an MPI call.
    MpiBegin(MpiOp),
    /// End of an MPI call.
    MpiEnd(MpiOp),
}

impl EventCode {
    /// Encodes to the 16-bit on-disk event type.
    pub fn to_u16(self) -> u16 {
        match self {
            EventCode::TraceStart => 0x0001,
            EventCode::TraceStop => 0x0002,
            EventCode::ThreadDispatch => 0x0010,
            EventCode::ThreadUndispatch => 0x0011,
            EventCode::GlobalClock => 0x0020,
            EventCode::MarkerDef => 0x0030,
            EventCode::MarkerBegin => 0x0031,
            EventCode::MarkerEnd => 0x0032,
            EventCode::Syscall => 0x0040,
            EventCode::PageFault => 0x0041,
            EventCode::IoStart => 0x0042,
            EventCode::IoEnd => 0x0043,
            EventCode::Interrupt => 0x0044,
            EventCode::MpiBegin(op) => MPI_BASE + 2 * op.code(),
            EventCode::MpiEnd(op) => MPI_BASE + 2 * op.code() + 1,
        }
    }

    /// Decodes the 16-bit on-disk event type; `None` for unknown codes.
    pub fn from_u16(v: u16) -> Option<EventCode> {
        match v {
            0x0001 => Some(EventCode::TraceStart),
            0x0002 => Some(EventCode::TraceStop),
            0x0010 => Some(EventCode::ThreadDispatch),
            0x0011 => Some(EventCode::ThreadUndispatch),
            0x0020 => Some(EventCode::GlobalClock),
            0x0030 => Some(EventCode::MarkerDef),
            0x0031 => Some(EventCode::MarkerBegin),
            0x0032 => Some(EventCode::MarkerEnd),
            0x0040 => Some(EventCode::Syscall),
            0x0041 => Some(EventCode::PageFault),
            0x0042 => Some(EventCode::IoStart),
            0x0043 => Some(EventCode::IoEnd),
            0x0044 => Some(EventCode::Interrupt),
            v if v >= MPI_BASE => {
                let rel = v - MPI_BASE;
                let op = MpiOp::from_code(rel / 2)?;
                if rel.is_multiple_of(2) {
                    Some(EventCode::MpiBegin(op))
                } else {
                    Some(EventCode::MpiEnd(op))
                }
            }
            _ => None,
        }
    }

    /// The event class, used by the trace facility's enable mask.
    pub fn class(self) -> EventClass {
        match self {
            EventCode::TraceStart | EventCode::TraceStop => EventClass::Control,
            EventCode::ThreadDispatch | EventCode::ThreadUndispatch => EventClass::Dispatch,
            EventCode::GlobalClock => EventClass::Clock,
            EventCode::MarkerDef | EventCode::MarkerBegin | EventCode::MarkerEnd => {
                EventClass::Marker
            }
            EventCode::Syscall
            | EventCode::PageFault
            | EventCode::IoStart
            | EventCode::IoEnd
            | EventCode::Interrupt => EventClass::System,
            EventCode::MpiBegin(_) | EventCode::MpiEnd(_) => EventClass::Mpi,
        }
    }
}

impl fmt::Display for EventCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventCode::MpiBegin(op) => write!(f, "{}:begin", op),
            EventCode::MpiEnd(op) => write!(f, "{}:end", op),
            other => write!(f, "{:?}", other),
        }
    }
}

/// Coarse event classes selectable in the trace facility's enable mask
/// ("events to be traced", §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventClass {
    /// Trace start/stop bookkeeping; always enabled.
    Control,
    /// Thread dispatch/undispatch events.
    Dispatch,
    /// Periodic global-clock samples.
    Clock,
    /// User-defined marker events.
    Marker,
    /// Kernel activity: syscalls, page faults, I/O, interrupts.
    System,
    /// MPI call begin/end events.
    Mpi,
}

impl EventClass {
    /// Bit position of this class in the enable mask.
    pub fn bit(self) -> u8 {
        match self {
            EventClass::Control => 0,
            EventClass::Dispatch => 1,
            EventClass::Clock => 2,
            EventClass::Marker => 3,
            EventClass::System => 4,
            EventClass::Mpi => 5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpi_op_code_round_trip() {
        for op in MpiOp::ALL {
            assert_eq!(MpiOp::from_code(op.code()), Some(op), "{op}");
        }
        assert_eq!(MpiOp::from_code(17), None);
    }

    #[test]
    fn event_code_round_trip() {
        let mut codes = vec![
            EventCode::TraceStart,
            EventCode::TraceStop,
            EventCode::ThreadDispatch,
            EventCode::ThreadUndispatch,
            EventCode::GlobalClock,
            EventCode::MarkerDef,
            EventCode::MarkerBegin,
            EventCode::MarkerEnd,
            EventCode::Syscall,
            EventCode::PageFault,
            EventCode::IoStart,
            EventCode::IoEnd,
            EventCode::Interrupt,
        ];
        for op in MpiOp::ALL {
            codes.push(EventCode::MpiBegin(op));
            codes.push(EventCode::MpiEnd(op));
        }
        let mut seen = std::collections::HashSet::new();
        for c in codes {
            let raw = c.to_u16();
            assert!(seen.insert(raw), "duplicate raw code {raw:#06x} for {c}");
            assert_eq!(EventCode::from_u16(raw), Some(c));
        }
    }

    #[test]
    fn unknown_codes_rejected() {
        assert_eq!(EventCode::from_u16(0x0000), None);
        assert_eq!(EventCode::from_u16(0x0fff), None);
        // Past the last MPI op.
        assert_eq!(EventCode::from_u16(MPI_BASE + 2 * 17), None);
    }

    #[test]
    fn begin_end_pairing() {
        for op in MpiOp::ALL {
            let b = EventCode::MpiBegin(op).to_u16();
            let e = EventCode::MpiEnd(op).to_u16();
            assert_eq!(e, b + 1);
            assert_eq!(b % 2, 0);
        }
    }

    #[test]
    fn classes() {
        assert_eq!(EventCode::ThreadDispatch.class(), EventClass::Dispatch);
        assert_eq!(EventCode::GlobalClock.class(), EventClass::Clock);
        assert_eq!(EventCode::MpiBegin(MpiOp::Send).class(), EventClass::Mpi);
        assert_eq!(EventCode::PageFault.class(), EventClass::System);
        // All class bits are distinct.
        let bits: std::collections::HashSet<u8> = [
            EventClass::Control,
            EventClass::Dispatch,
            EventClass::Clock,
            EventClass::Marker,
            EventClass::System,
            EventClass::Mpi,
        ]
        .iter()
        .map(|c| c.bit())
        .collect();
        assert_eq!(bits.len(), 6);
    }

    #[test]
    fn p2p_and_collective_predicates() {
        assert!(MpiOp::Send.is_p2p_send());
        assert!(MpiOp::Sendrecv.is_p2p_send() && MpiOp::Sendrecv.is_p2p_recv());
        assert!(!MpiOp::Barrier.is_p2p_send());
        assert!(MpiOp::Allreduce.is_collective());
        assert!(!MpiOp::Wait.is_collective());
    }

    #[test]
    fn message_ends_pair_on_sender_rank_and_seq() {
        use MessageEnd::{Recv, Send};
        let (r, p) = (Some(3), Some(5));
        assert_eq!(MpiOp::Isend.message_end(true, r, p, 7), Some(Send((3, 7))));
        assert_eq!(
            MpiOp::Sendrecv.message_end(true, r, p, 7),
            Some(Send((3, 7)))
        );
        for op in [MpiOp::Recv, MpiOp::Irecv, MpiOp::Wait] {
            assert_eq!(op.message_end(true, r, p, 7), Some(Recv((5, 7))));
        }
        // Not an end: a piece before the call ends, no seq, a missing
        // rank or peer, a call that moves no message.
        assert_eq!(MpiOp::Send.message_end(false, r, p, 7), None);
        assert_eq!(MpiOp::Send.message_end(true, r, p, 0), None);
        assert_eq!(MpiOp::Send.message_end(true, None, p, 7), None);
        assert_eq!(MpiOp::Recv.message_end(true, r, None, 7), None);
        assert_eq!(MpiOp::Barrier.message_end(true, r, p, 7), None);
    }
}
