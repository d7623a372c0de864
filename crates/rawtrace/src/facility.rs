//! The per-node tracing facility handle.
//!
//! This is what the simulator's node (or an instrumented program) holds:
//! the node's trace buffer behind typed cut methods for every record the
//! wrappers produce. Each cut encodes its fixed-layout payload on the
//! stack and the buffer copies it into the node's file in place, so
//! cutting a record allocates nothing. One thread drives a facility
//! (`&mut self`, no lock). It also owns:
//!
//! * the per-node **point-to-point sequence counter** — "The tracing
//!   library also adds a unique sequence number to each point-to-point
//!   message passing event record so that utilities can match sends with
//!   corresponding receives" (§2.1);
//! * the **task-local marker registry** — "To minimize overhead, the
//!   tracing library assigns an identifier for the string without any
//!   cross-task communication" (§3.1), which is why the same string can
//!   receive different ids in different tasks and the convert utility must
//!   re-unify them.

use std::collections::HashMap;

use ute_core::error::Result;
use ute_core::event::{EventCode, MpiOp};
use ute_core::ids::{CpuId, LogicalThreadId, NodeId};
use ute_core::time::{LocalTime, Time};

use crate::buffer::{TraceBuffer, TraceOptions};
use crate::record::{ClockPayload, DispatchPayload, MarkerDefPayload, MarkerPayload, MpiPayload};

/// The per-node tracing facility, driven by one thread.
pub struct TraceFacility {
    buffer: TraceBuffer,
    /// Next point-to-point sequence number on this node, per task rank
    /// (each task numbers its own sends).
    next_seq: HashMap<u32, u64>,
    /// Task-local marker ids, per rank: marker string → local id. Ids are
    /// assigned in call order per task (1, 2, ...), so identical strings
    /// may receive different ids in different tasks.
    marker_ids: HashMap<u32, HashMap<String, u32>>,
}

impl TraceFacility {
    /// Creates the facility for one node. A fault plan in `opts` is
    /// narrowed to this node's buffer-level faults.
    pub fn new(node: NodeId, opts: TraceOptions) -> TraceFacility {
        TraceFacility {
            buffer: TraceBuffer::with_node(opts, node.raw()),
            next_seq: HashMap::new(),
            marker_ids: HashMap::new(),
        }
    }

    /// Allocates the next point-to-point sequence number for a sending
    /// task. The pair (sender rank, seq) is unique job-wide.
    pub fn next_seq(&mut self, rank: u32) -> u64 {
        let c = self.next_seq.entry(rank).or_insert(0);
        *c += 1;
        *c
    }

    /// Defines (or looks up) a user marker string for a task, cutting a
    /// MarkerDef record on first definition. Returns the task-local id.
    /// A lookup allocates nothing; a first definition allocates the key
    /// and the record's payload.
    pub fn define_marker(&mut self, now: LocalTime, rank: u32, name: &str) -> Result<u32> {
        let ids = self.marker_ids.entry(rank).or_default();
        if let Some(&id) = ids.get(name) {
            return Ok(id);
        }
        let id = ids.len() as u32 + 1;
        ids.insert(name.to_string(), id);
        let payload = MarkerDefPayload {
            local_id: id,
            rank,
            name: name.to_string(),
        };
        self.buffer
            .cut(EventCode::MarkerDef, now, &payload.to_bytes(), false)?;
        Ok(id)
    }

    /// Cuts a trace start/stop control record.
    pub fn cut_control(&mut self, now: LocalTime, start: bool) -> Result<bool> {
        let code = if start {
            EventCode::TraceStart
        } else {
            EventCode::TraceStop
        };
        self.buffer.cut(code, now, &[], false)
    }

    /// Cuts a thread dispatch record.
    pub fn cut_dispatch(
        &mut self,
        now: LocalTime,
        thread: LogicalThreadId,
        cpu: CpuId,
        on: bool,
    ) -> Result<bool> {
        let code = if on {
            EventCode::ThreadDispatch
        } else {
            EventCode::ThreadUndispatch
        };
        let payload = DispatchPayload { thread, cpu }.to_bytes();
        self.buffer.cut(code, now, &payload, false)
    }

    /// Cuts a global-clock record pairing `global` with the record's own
    /// local timestamp `now`.
    pub fn cut_clock(&mut self, now: LocalTime, global: Time) -> Result<bool> {
        let payload = ClockPayload { global }.to_bytes();
        self.buffer
            .cut(EventCode::GlobalClock, now, &payload, false)
    }

    /// Cuts a marker begin/end record.
    pub fn cut_marker(
        &mut self,
        now: LocalTime,
        thread: LogicalThreadId,
        local_id: u32,
        address: u64,
        begin: bool,
    ) -> Result<bool> {
        let code = if begin {
            EventCode::MarkerBegin
        } else {
            EventCode::MarkerEnd
        };
        let payload = MarkerPayload {
            thread,
            local_id,
            address,
        };
        self.buffer.cut(code, now, &payload.to_bytes(), false)
    }

    /// Cuts an MPI begin/end record (wrapper cost applies).
    pub fn cut_mpi(
        &mut self,
        now: LocalTime,
        op: MpiOp,
        begin: bool,
        payload: MpiPayload,
    ) -> Result<bool> {
        let code = if begin {
            EventCode::MpiBegin(op)
        } else {
            EventCode::MpiEnd(op)
        };
        self.buffer.cut(code, now, &payload.to_bytes(), true)
    }

    /// Cuts a system-activity record (syscall, page fault, I/O, interrupt).
    pub fn cut_system(
        &mut self,
        now: LocalTime,
        code: EventCode,
        thread: LogicalThreadId,
    ) -> Result<bool> {
        let payload = DispatchPayload {
            thread,
            cpu: CpuId(0),
        };
        self.buffer.cut(code, now, &payload.to_bytes(), false)
    }

    /// Total records cut so far.
    pub fn records_cut(&self) -> u64 {
        self.buffer.ledger.records_cut
    }

    /// Total modelled tracing overhead charged so far.
    pub fn overhead(&self) -> ute_core::time::Duration {
        self.buffer.ledger.total
    }

    /// Finishes tracing: the node's raw file, encoded, as
    /// [`crate::RawTraceFile::to_bytes`] would write its records.
    pub fn finish(self) -> Vec<u8> {
        self.buffer.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::RawTraceFile;

    fn facility() -> TraceFacility {
        TraceFacility::new(NodeId(1), TraceOptions::default())
    }

    #[test]
    fn seq_numbers_are_per_rank_and_increasing() {
        let mut f = facility();
        assert_eq!(f.next_seq(0), 1);
        assert_eq!(f.next_seq(0), 2);
        assert_eq!(f.next_seq(1), 1);
        assert_eq!(f.next_seq(0), 3);
    }

    #[test]
    fn marker_definition_is_task_local_and_cut_once() {
        let mut f = facility();
        let a = f.define_marker(LocalTime(1), 0, "Initial Phase").unwrap();
        let a2 = f.define_marker(LocalTime(2), 0, "Initial Phase").unwrap();
        assert_eq!(a, a2);
        // Different task defining the same string after another marker gets
        // a *different* id — the cross-task collision §3.1 describes.
        f.define_marker(LocalTime(3), 1, "Other").unwrap();
        let b = f.define_marker(LocalTime(4), 1, "Initial Phase").unwrap();
        assert_ne!(a, b);
        let file = RawTraceFile::from_bytes(&f.finish()).unwrap();
        let defs: Vec<_> = file
            .events
            .iter()
            .filter(|e| e.code == EventCode::MarkerDef)
            .collect();
        assert_eq!(defs.len(), 3); // one per unique (rank, string)
    }

    #[test]
    fn typed_cuts_produce_decodable_records() {
        let mut f = facility();
        f.cut_control(LocalTime(0), true).unwrap();
        f.cut_dispatch(LocalTime(5), LogicalThreadId(2), CpuId(1), true)
            .unwrap();
        f.cut_clock(LocalTime(10), Time(9)).unwrap();
        f.cut_mpi(
            LocalTime(20),
            MpiOp::Send,
            true,
            MpiPayload::bare(LogicalThreadId(2), 0),
        )
        .unwrap();
        f.cut_system(LocalTime(30), EventCode::PageFault, LogicalThreadId(2))
            .unwrap();
        let file = RawTraceFile::from_bytes(&f.finish()).unwrap();
        assert_eq!(file.events.len(), 5);
        assert_eq!(file.events[0].code, EventCode::TraceStart);
        let d = DispatchPayload::from_bytes(&file.events[1].payload).unwrap();
        assert_eq!(d.cpu, CpuId(1));
        let c = ClockPayload::from_bytes(&file.events[2].payload).unwrap();
        assert_eq!(c.global, Time(9));
        assert_eq!(file.events[3].code, EventCode::MpiBegin(MpiOp::Send));
    }

    #[test]
    fn overhead_accumulates_per_cut() {
        let mut f = facility();
        f.cut_control(LocalTime(0), true).unwrap();
        let after_one = f.overhead();
        f.cut_mpi(
            LocalTime(1),
            MpiOp::Barrier,
            true,
            MpiPayload::bare(LogicalThreadId(0), 0),
        )
        .unwrap();
        assert!(f.overhead() > after_one);
        assert_eq!(f.records_cut(), 2);
    }
}
