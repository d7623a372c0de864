//! Precompiled per-record-type field plans for the hot encode/decode path.
//!
//! [`Interval::encode_body`] and [`Interval::decode_body`] resolve every
//! field of every record by *name* — a string match per field per record,
//! plus a heap-allocated body per encode. At millions of records per
//! second that lookup dominates the pipeline. A [`PlanSet`] does the name
//! resolution, mask filtering, and length precomputation **once** per
//! `(profile, mask)` pair; after that, encoding a record is a straight
//! walk over enum-dispatched fields written directly into the caller's
//! buffer, and reading one is a [`RecordView`] over the plan's
//! [`Layout`] — fields loaded from known places, an [`Interval`] built
//! only for the caller that asks for one.
//!
//! The plans are a pure acceleration layer: for every record they produce
//! exactly the bytes (and exactly the decoded [`Interval`]) the reference
//! string-matching path produces — property-tested in this module and
//! cross-checked end-to-end by the `fast-vs-reference` oracle in
//! `ute-verify`. Record types the plan builder cannot resolve (a spec
//! naming a field index outside the profile's name table) simply get no
//! plan, and a body no view accepts is handed to the reference decoder,
//! which reports the same errors it always did.
//!
//! Compiling the plans of a pair takes about 77 µs and 70 KB, and every
//! interval file of a run is read or written under the same one or two
//! pairs, so [`PlanSet::shared`] compiles them once per process: the
//! first reader or writer of a pair compiles its set, every later one
//! gets the same [`Arc`] — and with it the same [`Layout`] ids, so a
//! writer's transcode cache holds one rule per record type, whichever
//! file a record came from.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use ute_core::codec::ByteWriter;
use ute_core::error::{Result, UteError};
use ute_core::ids::NodeId;

use crate::datatype::FieldType;
use crate::profile::Profile;
use crate::record::{write_record_len, Interval};
use crate::value::{encode_value, encoded_len, Value};
use crate::view::{Layout, RecordView};

/// Where a planned field's value comes from (encode) or goes (decode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// The record type word (`itype`); consumed before decode dispatch.
    RecType,
    /// `Interval::start`.
    Start,
    /// `Interval::duration`.
    Dura,
    /// `Interval::cpu`.
    Cpu,
    /// `Interval::node`.
    Node,
    /// `Interval::thread`.
    Thread,
    /// An extra field, matched by name index.
    Extra,
}

/// One mask-filtered field of a record plan.
#[derive(Debug, Clone)]
pub struct PlanField {
    /// Dispatch target.
    pub kind: FieldKind,
    /// Field name index in the profile (extras key).
    pub name_idx: u16,
    /// Field name, kept for error messages only.
    pub name: String,
    /// Element type.
    pub ftype: FieldType,
    /// Whether the field is a counted vector.
    pub vector: bool,
    /// Vector counter width in bytes.
    pub counter_len: u8,
}

/// The compiled plan for one record type under one selection mask.
#[derive(Debug, Clone)]
pub struct RecordPlan {
    /// The on-disk record type word this plan serves.
    pub itype_raw: u32,
    /// All mask-present fields in spec order (encode walks these).
    encode_fields: Vec<PlanField>,
    /// Body length when every present field is fixed-size.
    fixed_len: Option<usize>,
    /// Where a reader finds each field of a body, for every spec a
    /// [`RecordView`] can express.
    layout: Option<Layout>,
}

impl RecordPlan {
    /// All mask-present fields, type word first, in spec order.
    pub(crate) fn fields(&self) -> &[PlanField] {
        &self.encode_fields
    }

    /// Where a reader finds each field of a body under this plan.
    #[cfg(test)]
    pub(crate) fn layout(&self) -> Option<&Layout> {
        self.layout.as_ref()
    }

    /// Encoded body length of `iv` under this plan (cheap arithmetic; no
    /// allocation, no string matching).
    pub fn body_len(&self, iv: &Interval) -> Result<usize> {
        if let Some(n) = self.fixed_len {
            return Ok(n);
        }
        let mut total = 0usize;
        let mut cursor = 0usize;
        for f in &self.encode_fields {
            if f.kind == FieldKind::Extra {
                // Mirror the reference `body_len`: a missing extra counts
                // as Uint(0) here and only errors at encode time.
                let v = lookup_extra(iv, f.name_idx, &mut cursor);
                total += match v {
                    Some(v) => encoded_len(f.ftype, f.vector, f.counter_len, v),
                    None => encoded_len(f.ftype, f.vector, f.counter_len, &Value::Uint(0)),
                };
            } else {
                total += encoded_len(f.ftype, f.vector, f.counter_len, &Value::Uint(0));
            }
        }
        Ok(total)
    }

    /// Encodes `iv`'s body **with its record-length prefix** directly
    /// into `w` — the zero-intermediate-buffer replacement for
    /// `encode_body` + `write_record`. On any error the writer is
    /// restored to its starting position.
    pub fn encode_record_into(&self, iv: &Interval, w: &mut ByteWriter) -> Result<()> {
        let rollback = w.pos();
        if let Some(len) = self.fixed_len {
            if self.encode_fixed(iv, w, len) {
                return Ok(());
            }
            // A missing or type-mismatched extra: rewind and let the
            // general walk below produce the reference error.
            w.truncate(rollback);
        }
        match self.encode_record_inner(iv, w) {
            Ok(()) => Ok(()),
            Err(e) => {
                w.truncate(rollback);
                Err(e)
            }
        }
    }

    /// The all-scalar encode walk: length prefix then direct puts, no
    /// `Value` construction for the common slots. Returns `false` —
    /// having written a prefix the caller must rewind — on any condition
    /// the general walk reports as an error (missing extra, value that
    /// does not fit its field type), so error text stays byte-identical
    /// to the reference path.
    fn encode_fixed(&self, iv: &Interval, w: &mut ByteWriter, len: usize) -> bool {
        if len > u16::MAX as usize {
            return false; // general walk reports the oversize error
        }
        write_record_len(w, len);
        let mut cursor = 0usize;
        for f in &self.encode_fields {
            let x: u64 = match f.kind {
                FieldKind::RecType => iv.itype.to_u32() as u64,
                FieldKind::Start => iv.start,
                FieldKind::Dura => iv.duration,
                FieldKind::Cpu => iv.cpu.raw() as u64,
                FieldKind::Node => iv.node.raw() as u64,
                FieldKind::Thread => iv.thread.raw() as u64,
                FieldKind::Extra => match lookup_extra(iv, f.name_idx, &mut cursor) {
                    Some(Value::Uint(x)) => *x,
                    Some(Value::Int(x)) if f.ftype == FieldType::I64 => {
                        w.put_i64(*x);
                        continue;
                    }
                    Some(Value::Float(x)) if f.ftype == FieldType::F64 => {
                        w.put_f64(*x);
                        continue;
                    }
                    _ => return false,
                },
            };
            match f.ftype {
                FieldType::U8 | FieldType::Char => w.put_u8(x as u8),
                FieldType::U16 => w.put_u16(x as u16),
                FieldType::U32 => w.put_u32(x as u32),
                FieldType::U64 => w.put_u64(x),
                // An unsigned value in an I64/F64 slot: the reference
                // walk rejects it.
                FieldType::I64 | FieldType::F64 => return false,
            }
        }
        true
    }

    fn encode_record_inner(&self, iv: &Interval, w: &mut ByteWriter) -> Result<()> {
        let len = self.body_len(iv)?;
        if len > u16::MAX as usize {
            return Err(UteError::Invalid(format!(
                "record body of {len} bytes exceeds 65535"
            )));
        }
        write_record_len(w, len);
        let body_at = w.pos();
        let mut cursor = 0usize;
        for f in &self.encode_fields {
            let owned;
            let value: &Value = match f.kind {
                FieldKind::RecType => {
                    owned = Value::Uint(iv.itype.to_u32() as u64);
                    &owned
                }
                FieldKind::Start => {
                    owned = Value::Uint(iv.start);
                    &owned
                }
                FieldKind::Dura => {
                    owned = Value::Uint(iv.duration);
                    &owned
                }
                FieldKind::Cpu => {
                    owned = Value::Uint(iv.cpu.raw() as u64);
                    &owned
                }
                FieldKind::Node => {
                    owned = Value::Uint(iv.node.raw() as u64);
                    &owned
                }
                FieldKind::Thread => {
                    owned = Value::Uint(iv.thread.raw() as u64);
                    &owned
                }
                FieldKind::Extra => lookup_extra(iv, f.name_idx, &mut cursor).ok_or_else(|| {
                    UteError::Invalid(format!(
                        "interval of type {} missing required field {}",
                        iv.itype.state, f.name
                    ))
                })?,
            };
            encode_value(w, f.ftype, f.vector, f.counter_len, value)?;
        }
        let written = (w.pos() - body_at) as usize;
        if written != len {
            return Err(UteError::Invalid(format!(
                "planned body length {len} but encoded {written} bytes"
            )));
        }
        Ok(())
    }
}

/// Finds an extra by name index. `cursor` exploits that both the
/// converter and the decoder push extras in spec order, so the common
/// case is a single comparison; out-of-order extras fall back to a
/// linear scan without disturbing the cursor.
#[inline]
fn lookup_extra<'a>(iv: &'a Interval, name_idx: u16, cursor: &mut usize) -> Option<&'a Value> {
    if let Some((i, v)) = iv.extras.get(*cursor) {
        if *i == name_idx {
            *cursor += 1;
            return Some(v);
        }
    }
    iv.extras
        .iter()
        .find(|(i, _)| *i == name_idx)
        .map(|(_, v)| v)
}

/// All record plans for one `(profile, mask)` pair, keyed by the on-disk
/// record type word.
pub struct PlanSet {
    plans: Vec<RecordPlan>,
    /// Open-addressed hash index over `plans`: `(type word, plan index)`,
    /// [`NO_PLAN`] marking a free slot. Interleaved threads make nearly
    /// every record of a stream a different type from the one before it,
    /// so the lookup has to be cheap on a miss of any "last type" guess.
    index: Vec<(u32, u32)>,
}

const NO_PLAN: u32 = u32::MAX;

/// The plan sets [`PlanSet::shared`] hands out: `(mask, profile, plans)`,
/// least recently used first. An entry is keyed by a copy of the whole
/// profile, compared by content, so a profile edited or read from another
/// file is another key and never finds plans it did not compile.
static SHARED: Mutex<Vec<(u32, Profile, Arc<PlanSet>)>> = Mutex::new(Vec::new());

/// Pairs [`SHARED`] keeps. A run reads and writes under one profile and
/// two masks; `ute fuzz`, which opens headers with random masks, evicts.
const SHARED_PAIRS: usize = 8;

/// Plan sets compiled in this process ([`PlanSet::compiled`]).
static COMPILED: AtomicU64 = AtomicU64::new(0);

/// Slot a type word hashes to in an index of `len` (a power of two) slots.
#[inline]
fn index_slot(itype_raw: u32, len: usize) -> usize {
    (itype_raw.wrapping_mul(0x9E37_79B1) >> 7) as usize & (len - 1)
}

impl PlanSet {
    /// Compiles plans for every resolvable record spec in the profile.
    /// Specs referencing out-of-range field names get no plan; users fall
    /// back to the reference path for those (and its exact errors).
    pub fn build(profile: &Profile, mask: u32) -> PlanSet {
        COMPILED.fetch_add(1, Ordering::Relaxed);
        let mut plans = Vec::with_capacity(profile.specs.len());
        'spec: for (&itype_raw, spec) in &profile.specs {
            let mut encode_fields = Vec::with_capacity(spec.fields.len());
            let mut fixed_len = Some(0usize);
            if spec.fields.is_empty() {
                continue; // reference path reports "record spec has no fields"
            }
            for f in &spec.fields {
                if !f.present_in(mask) {
                    continue;
                }
                let Some(name) = profile.field_names.get(f.name_idx as usize) else {
                    continue 'spec; // unresolvable: reference path errors
                };
                let kind = match name.as_str() {
                    "recType" => FieldKind::RecType,
                    "start" => FieldKind::Start,
                    "dura" => FieldKind::Dura,
                    "cpu" => FieldKind::Cpu,
                    "node" => FieldKind::Node,
                    "thread" => FieldKind::Thread,
                    _ => FieldKind::Extra,
                };
                if f.vector {
                    fixed_len = None;
                } else if let Some(n) = fixed_len.as_mut() {
                    *n += f.ftype.elem_len() as usize;
                }
                encode_fields.push(PlanField {
                    kind,
                    name_idx: f.name_idx,
                    name: name.clone(),
                    ftype: f.ftype,
                    vector: f.vector,
                    counter_len: f.counter_len,
                });
            }
            // The reference decoder wants the type word on disk.
            let layout = if spec.fields[0].present_in(mask) {
                Layout::after_type_word(&encode_fields[1..])
            } else {
                None
            };
            plans.push(RecordPlan {
                itype_raw,
                encode_fields,
                fixed_len,
                layout,
            });
        }
        // At most half full, so a probe ends after a slot or two.
        let mut index = vec![(0, NO_PLAN); (plans.len() * 2).next_power_of_two()];
        for (i, p) in plans.iter().enumerate() {
            let mut at = index_slot(p.itype_raw, index.len());
            while index[at].1 != NO_PLAN {
                at = (at + 1) & (index.len() - 1);
            }
            index[at] = (p.itype_raw, i as u32);
        }
        PlanSet { plans, index }
    }

    /// The plans of `(profile, mask)`, compiled by the first caller in the
    /// process that asks for them: the same set as
    /// [`PlanSet::build`]'s, shared by every reader and writer of the pair.
    pub fn shared(profile: &Profile, mask: u32) -> Arc<PlanSet> {
        // Compiling under the lock: workers opening files at once wait
        // for one compile rather than each doing their own. A panic
        // mid-update leaves a table short of an entry, never a wrong one.
        let mut table = SHARED.lock().unwrap_or_else(PoisonError::into_inner);
        let hit = table
            .iter()
            .position(|(m, p, _)| *m == mask && p == profile);
        let entry = match hit {
            Some(at) => table.remove(at),
            None => {
                if table.len() == SHARED_PAIRS {
                    table.remove(0);
                }
                let plans = Arc::new(PlanSet::build(profile, mask));
                (mask, profile.clone(), plans)
            }
        };
        let plans = Arc::clone(&entry.2);
        table.push(entry);
        plans
    }

    /// Plan sets compiled in this process so far: what a test reads to
    /// see that files of one `(profile, mask)` pair share theirs.
    #[doc(hidden)]
    pub fn compiled() -> u64 {
        COMPILED.load(Ordering::Relaxed)
    }

    /// The plan for a record type word, if one was compiled.
    #[inline]
    pub fn plan(&self, itype_raw: u32) -> Option<&RecordPlan> {
        let mut at = index_slot(itype_raw, self.index.len());
        loop {
            let (key, i) = self.index[at];
            if i == NO_PLAN {
                return None;
            }
            if key == itype_raw {
                return Some(&self.plans[i as usize]);
            }
            at = (at + 1) & (self.index.len() - 1);
        }
    }

    /// Views a record body in place through the plan its type word
    /// selects. `None` when no view serves it; the reference decoder
    /// then says whether that is the body's fault.
    #[inline]
    pub fn view<'a>(&'a self, body: &'a [u8], default_node: NodeId) -> Option<RecordView<'a>> {
        let word = u32::from_le_bytes(*body.first_chunk()?);
        RecordView::new(self.plan(word)?.layout.as_ref()?, body, default_node)
    }

    /// Number of compiled plans (diagnostics).
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// True when no specs could be compiled.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{MASK_MERGED, MASK_PER_NODE};
    use crate::record::{write_record, IntervalType};
    use crate::state::StateCode;
    use crate::view::RecordFields;
    use ute_core::bebits::BeBits;
    use ute_core::event::MpiOp;
    use ute_core::ids::{CpuId, LogicalThreadId};

    fn sample_intervals(p: &Profile) -> Vec<Interval> {
        let mut out = vec![Interval::basic(
            IntervalType::complete(StateCode::RUNNING),
            5,
            10,
            CpuId(1),
            NodeId(3),
            LogicalThreadId(2),
        )];
        out.push(
            Interval::basic(
                IntervalType {
                    state: StateCode::mpi(MpiOp::Send),
                    bebits: BeBits::Begin,
                },
                1_000,
                250,
                CpuId(3),
                NodeId(2),
                LogicalThreadId(5),
            )
            .with_extra(p, "rank", Value::Uint(4))
            .with_extra(p, "peer", Value::Uint(1))
            .with_extra(p, "tag", Value::Uint(99))
            .with_extra(p, "msgSizeSent", Value::Uint(65536))
            .with_extra(p, "seq", Value::Uint(7))
            .with_extra(p, "address", Value::Uint(0xdead)),
        );
        out.push(
            Interval::basic(
                IntervalType::complete(StateCode::mpi(MpiOp::Waitall)),
                10,
                5,
                CpuId(0),
                NodeId(1),
                LogicalThreadId(2),
            )
            .with_extra(p, "rank", Value::Uint(0))
            .with_extra(p, "reqSeqs", Value::UintVec(vec![3, 4, 5, 6].into()))
            .with_extra(p, "address", Value::Uint(0)),
        );
        out
    }

    #[test]
    fn plan_encode_matches_reference_bytes() {
        let p = Profile::standard();
        for mask in [MASK_PER_NODE, MASK_MERGED] {
            let plans = PlanSet::build(&p, mask);
            for iv in sample_intervals(&p) {
                let body = iv.encode_body(&p, mask).unwrap();
                let mut reference = ByteWriter::new();
                write_record(&mut reference, &body).unwrap();
                let mut fast = ByteWriter::new();
                let plan = plans.plan(iv.itype.to_u32()).unwrap();
                plan.encode_record_into(&iv, &mut fast).unwrap();
                assert_eq!(fast.as_bytes(), reference.as_bytes(), "mask {mask}");
                assert_eq!(plan.body_len(&iv).unwrap(), body.len());
            }
        }
    }

    #[test]
    fn plan_decode_matches_reference_interval() {
        let p = Profile::standard();
        for (mask, default_node) in [(MASK_PER_NODE, NodeId(2)), (MASK_MERGED, NodeId(0))] {
            let plans = PlanSet::build(&p, mask);
            for iv in sample_intervals(&p) {
                let body = iv.encode_body(&p, mask).unwrap();
                let reference = Interval::decode_body(&p, mask, &body, default_node).unwrap();
                let view = plans.view(&body, default_node).unwrap();
                assert_eq!(view.to_interval(), reference);
                assert_eq!(view.itype(), reference.itype);
                assert_eq!(view.start(), reference.start);
                assert_eq!(view.duration(), reference.duration);
                assert_eq!(view.cpu(), reference.cpu);
                assert_eq!(view.node(), reference.node);
                assert_eq!(view.thread(), reference.thread);
                for name in ["rank", "seq", "address", "reqSeqs", "markerId"] {
                    assert_eq!(
                        view.extra_uint(p.field_name_index(name).unwrap()),
                        reference.extra(&p, name).and_then(Value::as_uint),
                        "{name}"
                    );
                }
            }
        }
    }

    #[test]
    fn plan_rejects_what_reference_rejects() {
        let p = Profile::standard();
        let plans = PlanSet::build(&p, MASK_MERGED);
        // Missing required extra.
        let iv = Interval::basic(
            IntervalType::complete(StateCode::mpi(MpiOp::Send)),
            0,
            1,
            CpuId(0),
            NodeId(0),
            LogicalThreadId(0),
        );
        let plan = plans.plan(iv.itype.to_u32()).unwrap();
        let mut w = ByteWriter::new();
        w.put_u8(0xAA); // pre-existing content must survive the rollback
        assert!(plan.encode_record_into(&iv, &mut w).is_err());
        assert_eq!(w.as_bytes(), &[0xAA]);
        // Trailing bytes.
        let good = sample_intervals(&p).remove(1);
        let mut body = good.encode_body(&p, MASK_MERGED).unwrap();
        body.push(0);
        assert!(plans.view(&body, NodeId(0)).is_none());
        // A vector whose counter promises more than the body holds.
        let waitall = sample_intervals(&p).remove(2);
        let mut body = waitall.encode_body(&p, MASK_MERGED).unwrap();
        assert!(plans.view(&body, NodeId(0)).is_some());
        body.truncate(body.len() - 1);
        assert!(plans.view(&body, NodeId(0)).is_none());
        assert!(Interval::decode_body(&p, MASK_MERGED, &body, NodeId(0)).is_err());
    }

    #[test]
    fn the_shared_table_hands_one_set_per_pair_and_stays_bounded() {
        let p = Profile::standard();
        let first = PlanSet::shared(&p, MASK_MERGED);
        assert!(Arc::ptr_eq(&first, &PlanSet::shared(&p, MASK_MERGED)));
        for mask in 0..4 * SHARED_PAIRS as u32 {
            PlanSet::shared(&p, mask);
            assert!(SHARED.lock().unwrap().len() <= SHARED_PAIRS);
        }
    }

    #[test]
    fn lookup_serves_every_standard_spec() {
        let p = Profile::standard();
        let plans = PlanSet::build(&p, MASK_MERGED);
        assert_eq!(plans.len(), p.specs.len());
        for &itype_raw in p.specs.keys() {
            assert!(plans.plan(itype_raw).is_some());
        }
        assert!(plans.plan(0xffff_0000).is_none());
    }
}
