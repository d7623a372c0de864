//! Raw event records and their typed payloads.
//!
//! A raw record is `hookword ‖ local timestamp ‖ payload`. The payload
//! layout depends on the event type; this module defines the payloads the
//! wrappers cut. §2.1 describes a typical record as "three words of data in
//! addition to a one-word record header ... and a one-word timestamp" —
//! our payloads are in that ballpark (dispatch: 8 bytes, MPI: 24 bytes).

use ute_core::codec::{ByteReader, ByteWriter};
use ute_core::error::Result;
use ute_core::event::EventCode;
use ute_core::ids::{CpuId, LogicalThreadId};
use ute_core::time::{LocalTime, Time};

use crate::hookword::Hookword;
use crate::view::RawEventView;

/// One raw trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawEvent {
    /// The event type.
    pub code: EventCode,
    /// Local-clock timestamp at which the event was cut.
    pub timestamp: LocalTime,
    /// Type-specific payload bytes.
    pub payload: Vec<u8>,
}

impl RawEvent {
    /// Builds an event with a raw payload.
    pub fn new(code: EventCode, timestamp: LocalTime, payload: impl Into<Vec<u8>>) -> RawEvent {
        RawEvent {
            code,
            timestamp,
            payload: payload.into(),
        }
    }

    /// Total encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        crate::hookword::FIXED_PREFIX + self.payload.len()
    }

    /// Appends the record to a writer.
    pub fn encode(&self, w: &mut ByteWriter) -> Result<()> {
        put_record(w, self.code, self.timestamp, &self.payload)
    }

    /// Borrows the event as a view, the shape the converter reads.
    pub fn view(&self) -> RawEventView<'_> {
        RawEventView {
            code: self.code,
            timestamp: self.timestamp,
            payload: &self.payload,
        }
    }

    /// Reads one record from a reader — the owned layer over the
    /// zero-copy [`crate::view::decode_view`], which holds the single
    /// copy of the bounds rules.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<RawEvent> {
        Ok(crate::view::decode_view(r)?.to_owned())
    }
}

/// Appends one record — hookword, timestamp, payload — to `w`: the one
/// encoder of the record layout, under owned events and the trace
/// buffer's cuts alike.
pub(crate) fn put_record(
    w: &mut ByteWriter,
    code: EventCode,
    timestamp: LocalTime,
    payload: &[u8],
) -> Result<()> {
    let hook = Hookword::new(code, payload.len())?;
    w.put_u32(hook.to_u32());
    w.put_u64(timestamp.ticks());
    w.put_bytes(payload);
    Ok(())
}

/// Concatenates little-endian fields into a fixed-layout payload on the
/// stack, so a typed cut encodes with no heap allocation.
fn pack<const N: usize>(fields: &[&[u8]]) -> [u8; N] {
    let mut out = [0; N];
    let mut at = 0;
    for f in fields {
        out[at..at + f.len()].copy_from_slice(f);
        at += f.len();
    }
    debug_assert_eq!(at, N, "payload layout");
    out
}

/// Payload of [`EventCode::ThreadDispatch`] / [`EventCode::ThreadUndispatch`]:
/// which thread went on/off which processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchPayload {
    /// The thread being (un)dispatched.
    pub thread: LogicalThreadId,
    /// The processor involved.
    pub cpu: CpuId,
}

impl DispatchPayload {
    /// Encodes to payload bytes, on the stack.
    pub fn to_bytes(self) -> [u8; 4] {
        pack(&[
            &self.thread.raw().to_le_bytes(),
            &self.cpu.raw().to_le_bytes(),
        ])
    }

    /// Decodes from payload bytes.
    pub fn from_bytes(b: &[u8]) -> Result<DispatchPayload> {
        let mut r = ByteReader::new(b);
        Ok(DispatchPayload {
            thread: LogicalThreadId(r.get_u16()?),
            cpu: CpuId(r.get_u16()?),
        })
    }
}

/// Payload of [`EventCode::GlobalClock`]: the global timestamp sampled by
/// the node's clock thread. The paired local timestamp is the record's own
/// timestamp field, so the pair (G, L) is exactly one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockPayload {
    /// The switch-adapter global timestamp.
    pub global: Time,
}

impl ClockPayload {
    /// Encodes to payload bytes, on the stack.
    pub fn to_bytes(self) -> [u8; 8] {
        self.global.ticks().to_le_bytes()
    }

    /// Decodes from payload bytes.
    pub fn from_bytes(b: &[u8]) -> Result<ClockPayload> {
        let mut r = ByteReader::new(b);
        Ok(ClockPayload {
            global: Time(r.get_u64()?),
        })
    }
}

/// Payload of [`EventCode::MarkerDef`]: a user-marker string definition and
/// the task-local identifier the tracing library assigned "without any
/// cross-task communication" (§3.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarkerDefPayload {
    /// Task-local marker id (NOT unique across tasks — the convert utility
    /// re-assigns unique ids, §3.1).
    pub local_id: u32,
    /// The defining task's MPI rank (ids are task-local).
    pub rank: u32,
    /// The user-specified marker string.
    pub name: String,
}

impl MarkerDefPayload {
    /// Encodes to payload bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(10 + self.name.len());
        w.put_u32(self.local_id);
        w.put_u32(self.rank);
        w.put_str(&self.name);
        w.into_bytes()
    }

    /// Decodes from payload bytes.
    pub fn from_bytes(b: &[u8]) -> Result<MarkerDefPayload> {
        let mut r = ByteReader::new(b);
        Ok(MarkerDefPayload {
            local_id: r.get_u32()?,
            rank: r.get_u32()?,
            name: r.get_str()?,
        })
    }
}

/// Payload of [`EventCode::MarkerBegin`] / [`EventCode::MarkerEnd`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkerPayload {
    /// The thread entering/leaving the marked region.
    pub thread: LogicalThreadId,
    /// Task-local marker id from the matching [`MarkerDefPayload`].
    pub local_id: u32,
    /// Instruction address of the marker call site, "suitable for a source
    /// code browser" (§2.3.2).
    pub address: u64,
}

impl MarkerPayload {
    /// Encodes to payload bytes, on the stack.
    pub fn to_bytes(self) -> [u8; 14] {
        pack(&[
            &self.thread.raw().to_le_bytes(),
            &self.local_id.to_le_bytes(),
            &self.address.to_le_bytes(),
        ])
    }

    /// Decodes from payload bytes.
    pub fn from_bytes(b: &[u8]) -> Result<MarkerPayload> {
        let mut r = ByteReader::new(b);
        Ok(MarkerPayload {
            thread: LogicalThreadId(r.get_u16()?),
            local_id: r.get_u32()?,
            address: r.get_u64()?,
        })
    }
}

/// Payload of MPI begin/end events: the call arguments the wrappers record.
///
/// For point-to-point calls `peer`/`tag`/`bytes`/`seq` are meaningful; the
/// tracing library "adds a unique sequence number to each point-to-point
/// message passing event record so that utilities can match sends with
/// corresponding receives" (§2.1). For collectives `bytes` is the per-task
/// contribution and `peer` is the root (or `u32::MAX` for rootless ops).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MpiPayload {
    /// The thread making the call.
    pub thread: LogicalThreadId,
    /// Calling task's MPI rank.
    pub rank: u32,
    /// Peer rank (p2p), root rank (rooted collective), or `u32::MAX`.
    pub peer: u32,
    /// Message tag (p2p) or 0.
    pub tag: u32,
    /// Payload bytes sent/received by this task in this call.
    pub bytes: u64,
    /// Point-to-point sequence number; 0 for non-p2p calls.
    pub seq: u64,
    /// Instruction address of the call site.
    pub address: u64,
}

impl MpiPayload {
    /// A payload with every argument zeroed except thread and rank.
    pub fn bare(thread: LogicalThreadId, rank: u32) -> MpiPayload {
        MpiPayload {
            thread,
            rank,
            peer: u32::MAX,
            tag: 0,
            bytes: 0,
            seq: 0,
            address: 0,
        }
    }

    /// Encodes to payload bytes, on the stack.
    pub fn to_bytes(self) -> [u8; 38] {
        pack(&[
            &self.thread.raw().to_le_bytes(),
            &self.rank.to_le_bytes(),
            &self.peer.to_le_bytes(),
            &self.tag.to_le_bytes(),
            &self.bytes.to_le_bytes(),
            &self.seq.to_le_bytes(),
            &self.address.to_le_bytes(),
        ])
    }

    /// Decodes from payload bytes.
    pub fn from_bytes(b: &[u8]) -> Result<MpiPayload> {
        let mut r = ByteReader::new(b);
        Ok(MpiPayload {
            thread: LogicalThreadId(r.get_u16()?),
            rank: r.get_u32()?,
            peer: r.get_u32()?,
            tag: r.get_u32()?,
            bytes: r.get_u64()?,
            seq: r.get_u64()?,
            address: r.get_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ute_core::error::UteError;
    use ute_core::event::MpiOp;

    #[test]
    fn raw_event_round_trip() {
        let ev = RawEvent::new(
            EventCode::MpiBegin(MpiOp::Send),
            LocalTime(123_456_789),
            vec![1, 2, 3, 4, 5],
        );
        let mut w = ByteWriter::new();
        ev.encode(&mut w).unwrap();
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), ev.encoded_len());
        let mut r = ByteReader::new(&bytes);
        assert_eq!(RawEvent::decode(&mut r).unwrap(), ev);
        assert!(r.is_empty());
    }

    #[test]
    fn decode_reports_offset_of_bad_hookword() {
        let good = RawEvent::new(EventCode::TraceStart, LocalTime(1), vec![]);
        let mut w = ByteWriter::new();
        good.encode(&mut w).unwrap();
        w.put_u32(0x0abc_0010); // corrupt second record
        w.put_u64(0);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        RawEvent::decode(&mut r).unwrap();
        match RawEvent::decode(&mut r).unwrap_err() {
            UteError::Corrupt { offset, .. } => assert_eq!(offset, Some(12)),
            other => panic!("wrong error {other}"),
        }
    }

    #[test]
    fn dispatch_payload_round_trip() {
        let p = DispatchPayload {
            thread: LogicalThreadId(42),
            cpu: CpuId(7),
        };
        assert_eq!(DispatchPayload::from_bytes(&p.to_bytes()).unwrap(), p);
    }

    #[test]
    fn clock_payload_round_trip() {
        let p = ClockPayload {
            global: Time(0xdead_beef_cafe),
        };
        assert_eq!(ClockPayload::from_bytes(&p.to_bytes()).unwrap(), p);
    }

    #[test]
    fn marker_payloads_round_trip() {
        let d = MarkerDefPayload {
            local_id: 3,
            rank: 1,
            name: "Initial Phase".into(),
        };
        assert_eq!(MarkerDefPayload::from_bytes(&d.to_bytes()).unwrap(), d);
        let m = MarkerPayload {
            thread: LogicalThreadId(1),
            local_id: 3,
            address: 0x1000_2000,
        };
        assert_eq!(MarkerPayload::from_bytes(&m.to_bytes()).unwrap(), m);
    }

    #[test]
    fn mpi_payload_round_trip() {
        let p = MpiPayload {
            thread: LogicalThreadId(0),
            rank: 3,
            peer: 1,
            tag: 99,
            bytes: 1 << 20,
            seq: 77,
            address: 0xabcd,
        };
        assert_eq!(MpiPayload::from_bytes(&p.to_bytes()).unwrap(), p);
    }

    #[test]
    fn truncated_payload_rejected() {
        let p = MpiPayload::bare(LogicalThreadId(0), 1).to_bytes();
        assert!(MpiPayload::from_bytes(&p[..p.len() - 1]).is_err());
        assert!(DispatchPayload::from_bytes(&[1]).is_err());
    }
}
