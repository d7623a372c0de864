//! Interval records (§2.3.2).
//!
//! "An interval record includes a number of common fields: record type,
//! start time, duration, processor ID, node ID, and logical thread ID."
//! Additional fields per record type (MPI arguments, marker ids, the
//! global timestamp of clock records) are defined by the profile.
//!
//! On disk, "each interval record is associated with a one-byte record
//! length. A zero length indicates a record with more than 255 bytes. In
//! such a case, the actual record length is stored in the next two bytes.
//! Thus, a program reader can always find the next interval record without
//! examining the current record in detail."

use ute_core::bebits::BeBits;
use ute_core::codec::{ByteReader, ByteWriter};
use ute_core::error::{Result, UteError};
use ute_core::ids::{CpuId, LogicalThreadId, NodeId};

use crate::profile::Profile;
use crate::state::StateCode;
use crate::value::{decode_value, encode_value, encoded_len, Value};

/// An interval type: "the event type and two bits called bebits" (§2.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IntervalType {
    /// The state this interval belongs to.
    pub state: StateCode,
    /// Whether the record is a complete interval or a begin /
    /// continuation / end piece.
    pub bebits: BeBits,
}

impl IntervalType {
    /// A complete (uninterrupted) interval of a state.
    pub fn complete(state: StateCode) -> IntervalType {
        IntervalType {
            state,
            bebits: BeBits::Complete,
        }
    }

    /// Packs to the on-disk 32-bit record type: state code shifted left
    /// over the two bebits.
    pub fn to_u32(self) -> u32 {
        ((self.state.0 as u32) << 2) | self.bebits.to_bits() as u32
    }

    /// Unpacks the on-disk record type.
    pub fn from_u32(v: u32) -> Result<IntervalType> {
        if v >> 18 != 0 {
            return Err(UteError::corrupt(format!(
                "interval type {v:#010x} exceeds 16-bit state space"
            )));
        }
        let bebits = BeBits::from_bits((v & 0b11) as u8).ok_or_else(|| {
            UteError::corrupt(format!("interval type {v:#010x} has invalid bebits"))
        })?;
        Ok(IntervalType {
            state: StateCode((v >> 2) as u16),
            bebits,
        })
    }
}

/// A decoded interval record.
#[derive(Debug, Clone, PartialEq)]
pub struct Interval {
    /// State + bebits.
    pub itype: IntervalType,
    /// Start timestamp in ticks. Local ticks in per-node files, global
    /// ticks after merging.
    pub start: u64,
    /// Duration in ticks (same axis as `start`).
    pub duration: u64,
    /// Processor the thread was dispatched on during this piece.
    pub cpu: CpuId,
    /// Producing node. In per-node files this field is masked out on disk
    /// and filled in by the reader from the file header.
    pub node: NodeId,
    /// Logical thread id within the node.
    pub thread: LogicalThreadId,
    /// Extra fields in profile order: (field name index, value).
    ///
    /// Kept on the heap, exact-sized by [`crate::RecordView::to_interval`]:
    /// an earlier revision held six entries inline, which removed the
    /// per-record allocation but grew `Interval` to 304 bytes — and the
    /// differential bench showed the k-way merge and reorder buffer paying
    /// ~40% more wall time moving the fat struct than the allocation ever
    /// cost. The merge has since stopped moving `Interval`s at all (it
    /// carries [`crate::Retimed`] views); what still does — the converter's
    /// matcher, `Vec<Interval>` consumers such as `ute stats` — sorts and
    /// grows vectors of them, so the struct stays at 56 bytes.
    pub extras: Extras,
}

/// The extras container: `(field name index, value)` pairs.
pub type Extras = Vec<(u16, Value)>;

impl Interval {
    /// A record with no extra fields.
    pub fn basic(
        itype: IntervalType,
        start: u64,
        duration: u64,
        cpu: CpuId,
        node: NodeId,
        thread: LogicalThreadId,
    ) -> Interval {
        Interval {
            itype,
            start,
            duration,
            cpu,
            node,
            thread,
            extras: Extras::new(),
        }
    }

    /// End timestamp (`start + duration`). Records in an interval file are
    /// ordered by this (§3.1).
    #[inline]
    pub fn end(&self) -> u64 {
        // Saturating: a corrupt record decoded in salvage mode must not
        // overflow here before validation can reject it.
        self.start.saturating_add(self.duration)
    }

    /// Adds an extra field by name, interning through the profile.
    ///
    /// Panics when the field is unknown — convenient for tests and
    /// builders over [`Profile::standard`]. Production paths handling
    /// untrusted profiles should use [`Interval::try_with_extra`].
    pub fn with_extra(self, profile: &Profile, name: &str, v: Value) -> Interval {
        self.try_with_extra(profile, name, v)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Interval::with_extra`]: unknown field names become a
    /// typed [`UteError::NotFound`] instead of a panic.
    pub fn try_with_extra(mut self, profile: &Profile, name: &str, v: Value) -> Result<Interval> {
        let idx = profile
            .field_name_index(name)
            .ok_or_else(|| UteError::NotFound(format!("field {name} not in profile")))?;
        self.extras.push((idx, v));
        Ok(self)
    }

    /// Looks up an extra field by name.
    pub fn extra<'a>(&'a self, profile: &Profile, name: &str) -> Option<&'a Value> {
        let idx = profile.field_name_index(name)?;
        self.extras.iter().find(|(i, _)| *i == idx).map(|(_, v)| v)
    }

    /// Encodes the record body per the profile spec and selection mask
    /// (no length prefix).
    pub fn encode_body(&self, profile: &Profile, mask: u32) -> Result<Vec<u8>> {
        let spec = profile.spec_for(self.itype).ok_or_else(|| {
            UteError::NotFound(format!(
                "record spec for {} ({:#010x})",
                self.itype.state,
                self.itype.to_u32()
            ))
        })?;
        let mut w = ByteWriter::with_capacity(64);
        for f in &spec.fields {
            if !f.present_in(mask) {
                continue;
            }
            let name = profile
                .field_names
                .get(f.name_idx as usize)
                .ok_or_else(|| UteError::corrupt("field name index out of range"))?;
            let owned;
            let value: &Value = match name.as_str() {
                "recType" => {
                    owned = Value::Uint(self.itype.to_u32() as u64);
                    &owned
                }
                "start" => {
                    owned = Value::Uint(self.start);
                    &owned
                }
                "dura" => {
                    owned = Value::Uint(self.duration);
                    &owned
                }
                "cpu" => {
                    owned = Value::Uint(self.cpu.raw() as u64);
                    &owned
                }
                "node" => {
                    owned = Value::Uint(self.node.raw() as u64);
                    &owned
                }
                "thread" => {
                    owned = Value::Uint(self.thread.raw() as u64);
                    &owned
                }
                _ => self
                    .extras
                    .iter()
                    .find(|(i, _)| *i == f.name_idx)
                    .map(|(_, v)| v)
                    .ok_or_else(|| {
                        UteError::Invalid(format!(
                            "interval of type {} missing required field {name}",
                            self.itype.state
                        ))
                    })?,
            };
            encode_value(&mut w, f.ftype, f.vector, f.counter_len, value)?;
        }
        Ok(w.into_bytes())
    }

    /// Decodes a record body. `default_node` supplies the node id when the
    /// `node` field is masked out (per-node files).
    pub fn decode_body(
        profile: &Profile,
        mask: u32,
        body: &[u8],
        default_node: NodeId,
    ) -> Result<Interval> {
        let mut r = ByteReader::new(body);
        let itype_raw = r.get_u32()?;
        let itype = IntervalType::from_u32(itype_raw)?;
        let spec = profile.spec_for(itype).ok_or_else(|| {
            UteError::NotFound(format!("record spec for interval type {itype_raw:#010x}"))
        })?;
        let mut out = Interval::basic(itype, 0, 0, CpuId(0), default_node, LogicalThreadId(0));
        let mut fields = spec.fields.iter();
        // First field is recType, already consumed.
        let first = fields
            .next()
            .ok_or_else(|| UteError::corrupt("record spec has no fields"))?;
        if !first.present_in(mask) {
            return Err(UteError::corrupt("recType field masked out"));
        }
        for f in fields {
            if !f.present_in(mask) {
                continue;
            }
            let v = decode_value(&mut r, f.ftype, f.vector, f.counter_len)?;
            let name = profile
                .field_names
                .get(f.name_idx as usize)
                .ok_or_else(|| UteError::corrupt("field name index out of range"))?;
            match name.as_str() {
                "start" => out.start = v.as_uint().unwrap_or(0),
                "dura" => out.duration = v.as_uint().unwrap_or(0),
                "cpu" => out.cpu = CpuId(v.as_uint().unwrap_or(0) as u16),
                "node" => out.node = NodeId(v.as_uint().unwrap_or(0) as u16),
                "thread" => out.thread = LogicalThreadId(v.as_uint().unwrap_or(0) as u16),
                _ => out.extras.push((f.name_idx, v)),
            }
        }
        if !r.is_empty() {
            return Err(UteError::corrupt(format!(
                "record body has {} trailing bytes",
                r.remaining()
            )));
        }
        Ok(out)
    }

    /// Size of the encoded body, used for frame accounting.
    pub fn body_len(&self, profile: &Profile, mask: u32) -> Result<usize> {
        let spec = profile
            .spec_for(self.itype)
            .ok_or_else(|| UteError::NotFound("record spec".into()))?;
        let mut total = 0usize;
        for f in &spec.fields {
            if !f.present_in(mask) {
                continue;
            }
            let name = &profile.field_names[f.name_idx as usize];
            let v = match name.as_str() {
                "recType" | "start" | "dura" | "cpu" | "node" | "thread" => Value::Uint(0),
                _ => self
                    .extras
                    .iter()
                    .find(|(i, _)| *i == f.name_idx)
                    .map(|(_, v)| v.clone())
                    .unwrap_or(Value::Uint(0)),
            };
            total += encoded_len(f.ftype, f.vector, f.counter_len, &v);
        }
        Ok(total)
    }
}

/// Writes a record body with its length prefix (§2.3.2 escape: one byte,
/// or zero followed by a two-byte length for bodies over 255 bytes).
pub fn write_record(w: &mut ByteWriter, body: &[u8]) -> Result<()> {
    if body.len() > u16::MAX as usize {
        return Err(UteError::Invalid(format!(
            "record body of {} bytes exceeds 65535",
            body.len()
        )));
    }
    write_record_len(w, body.len());
    w.put_bytes(body);
    Ok(())
}

/// The length prefix of a record body of `len` bytes, `len` ≤ 65535.
#[inline]
pub(crate) fn write_record_len(w: &mut ByteWriter, len: usize) {
    if len <= u8::MAX as usize && len > 0 {
        w.put_u8(len as u8);
    } else {
        w.put_u8(0);
        w.put_u16(len as u16);
    }
}

/// Reads a record body (handles the length escape).
pub fn read_record<'a>(r: &mut ByteReader<'a>) -> Result<&'a [u8]> {
    let len = r.get_u8()? as usize;
    let len = if len == 0 { r.get_u16()? as usize } else { len };
    r.get_bytes(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{MASK_MERGED, MASK_PER_NODE};
    use ute_core::event::MpiOp;

    fn send_interval(profile: &Profile) -> Interval {
        Interval::basic(
            IntervalType::complete(StateCode::mpi(MpiOp::Send)),
            1_000,
            250,
            CpuId(3),
            NodeId(2),
            LogicalThreadId(5),
        )
        .with_extra(profile, "rank", Value::Uint(4))
        .with_extra(profile, "peer", Value::Uint(1))
        .with_extra(profile, "tag", Value::Uint(99))
        .with_extra(profile, "msgSizeSent", Value::Uint(65536))
        .with_extra(profile, "seq", Value::Uint(7))
        .with_extra(profile, "address", Value::Uint(0xdead))
    }

    #[test]
    fn interval_type_round_trip() {
        for state in StateCode::standard_states() {
            for bebits in [
                BeBits::Complete,
                BeBits::Begin,
                BeBits::Continuation,
                BeBits::End,
            ] {
                let t = IntervalType { state, bebits };
                assert_eq!(IntervalType::from_u32(t.to_u32()).unwrap(), t);
            }
        }
        assert!(IntervalType::from_u32(u32::MAX).is_err());
    }

    #[test]
    fn record_round_trip_merged_mask() {
        let p = Profile::standard();
        let iv = send_interval(&p);
        let body = iv.encode_body(&p, MASK_MERGED).unwrap();
        assert_eq!(body.len(), iv.body_len(&p, MASK_MERGED).unwrap());
        let back = Interval::decode_body(&p, MASK_MERGED, &body, NodeId(0)).unwrap();
        assert_eq!(back, iv);
    }

    #[test]
    fn per_node_mask_omits_node_field() {
        let p = Profile::standard();
        let iv = send_interval(&p);
        let merged = iv.encode_body(&p, MASK_MERGED).unwrap();
        let per_node = iv.encode_body(&p, MASK_PER_NODE).unwrap();
        assert_eq!(merged.len() - per_node.len(), 2); // the u16 node field
                                                      // Reader restores the node from context.
        let back = Interval::decode_body(&p, MASK_PER_NODE, &per_node, NodeId(2)).unwrap();
        assert_eq!(back, iv);
        // Wrong default node shows up (proving the field really is absent).
        let other = Interval::decode_body(&p, MASK_PER_NODE, &per_node, NodeId(9)).unwrap();
        assert_eq!(other.node, NodeId(9));
    }

    #[test]
    fn missing_required_extra_is_an_error() {
        let p = Profile::standard();
        let iv = Interval::basic(
            IntervalType::complete(StateCode::mpi(MpiOp::Send)),
            0,
            1,
            CpuId(0),
            NodeId(0),
            LogicalThreadId(0),
        );
        assert!(iv.encode_body(&p, MASK_MERGED).is_err());
    }

    #[test]
    fn vector_field_round_trips_in_record() {
        let p = Profile::standard();
        let iv = Interval::basic(
            IntervalType::complete(StateCode::mpi(MpiOp::Waitall)),
            10,
            5,
            CpuId(0),
            NodeId(1),
            LogicalThreadId(2),
        )
        .with_extra(&p, "rank", Value::Uint(0))
        .with_extra(&p, "reqSeqs", Value::UintVec(vec![3, 4, 5, 6].into()))
        .with_extra(&p, "address", Value::Uint(0));
        let body = iv.encode_body(&p, MASK_MERGED).unwrap();
        let back = Interval::decode_body(&p, MASK_MERGED, &body, NodeId(0)).unwrap();
        assert_eq!(
            back.extra(&p, "reqSeqs"),
            Some(&Value::UintVec(vec![3, 4, 5, 6].into()))
        );
    }

    #[test]
    fn length_prefix_escape() {
        let mut w = ByteWriter::new();
        let small = vec![7u8; 200];
        let large = vec![8u8; 300];
        write_record(&mut w, &small).unwrap();
        write_record(&mut w, &large).unwrap();
        write_record(&mut w, &[]).unwrap();
        let bytes = w.into_bytes();
        // small: 1 + 200; large: 3 + 300; empty: 3 + 0.
        assert_eq!(bytes.len(), 201 + 303 + 3);
        let mut r = ByteReader::new(&bytes);
        assert_eq!(read_record(&mut r).unwrap(), &small[..]);
        assert_eq!(read_record(&mut r).unwrap(), &large[..]);
        assert_eq!(read_record(&mut r).unwrap(), &[] as &[u8]);
        assert!(r.is_empty());
    }

    #[test]
    fn reader_skips_unknown_records_via_length() {
        // The length prefix lets a reader hop over records it cannot
        // decode — write garbage with a valid prefix, then a real record.
        let p = Profile::standard();
        let iv = send_interval(&p);
        let mut w = ByteWriter::new();
        write_record(&mut w, &[0xff; 40]).unwrap();
        write_record(&mut w, &iv.encode_body(&p, MASK_MERGED).unwrap()).unwrap();
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let _garbage = read_record(&mut r).unwrap();
        let body = read_record(&mut r).unwrap();
        let back = Interval::decode_body(&p, MASK_MERGED, body, NodeId(0)).unwrap();
        assert_eq!(back, iv);
    }

    #[test]
    fn get_item_by_name_reads_straight_from_bytes() {
        // Figure 5's core operation.
        let p = Profile::standard();
        let iv = send_interval(&p);
        let body = iv.encode_body(&p, MASK_MERGED).unwrap();
        let sent = p
            .get_item_by_name(MASK_MERGED, &body, "msgSizeSent")
            .unwrap();
        assert_eq!(sent, Some(Value::Uint(65536)));
        let start = p.get_item_by_name(MASK_MERGED, &body, "start").unwrap();
        assert_eq!(start, Some(Value::Uint(1_000)));
        let rectype = p.get_item_by_name(MASK_MERGED, &body, "recType").unwrap();
        assert_eq!(rectype, Some(Value::Uint(iv.itype.to_u32() as u64)));
        // A field this record type doesn't have.
        let none = p.get_item_by_name(MASK_MERGED, &body, "markerId").unwrap();
        assert_eq!(none, None);
        // An unknown name.
        let none = p.get_item_by_name(MASK_MERGED, &body, "nope").unwrap();
        assert_eq!(none, None);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let p = Profile::standard();
        let iv = send_interval(&p);
        let mut body = iv.encode_body(&p, MASK_MERGED).unwrap();
        body.push(0);
        assert!(Interval::decode_body(&p, MASK_MERGED, &body, NodeId(0)).is_err());
    }

    #[test]
    fn end_is_start_plus_duration() {
        let p = Profile::standard();
        let iv = send_interval(&p);
        assert_eq!(iv.end(), 1_250);
        drop(p);
    }
}
