//! Reading interval records in place (§2.4, Figure 5).
//!
//! The paper's read API pulls fields straight off the record bytes; the
//! length prefix exists so "a program reader can always find the next
//! interval record without examining the current record in detail". A
//! [`RecordView`] is that idea with the name resolution done once: the
//! [`crate::plan::RecordPlan`] of a record type carries a [`Layout`] —
//! where each field sits and what type it has — and a view is that
//! layout plus a body it has been checked against. The check is
//! everything a decode checks (the type word unpacks, the type has a
//! plan, every vector's counter and payload lie inside the body, text is
//! UTF-8, and the fields fill the body exactly); after it every accessor
//! is a load at a known place, nothing is allocated, and a consumer that
//! wants three fields pays for three.
//!
//! A body that fails the check gets no view and no error of the view's
//! own: the caller hands it to the reference decoder
//! ([`Interval::decode_body`]), which says what is wrong with it in the
//! words it always has — so nothing that fails a decode passes a view,
//! and no error text has a second author. The same goes for the few
//! specs a layout does not express (a field name outside the profile, a
//! masked-out type word, a vector of signed integers). [`Record`] is the
//! sum of the two outcomes and [`RecordDecoder`] the one place that
//! chooses between them; both interval-file readers walk their frames
//! through it.
//!
//! [`RecordFields`] is what a consumer that only reads fields asks of a
//! record, whichever of these forms it is in; [`Retimed`] is a record on
//! its way from one file into another under a new start and duration —
//! what the merge moves instead of decoded [`Interval`]s.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ute_core::codec::ByteReader;
use ute_core::error::{Result, UteError};
use ute_core::ids::{CpuId, LogicalThreadId, NodeId};

use crate::datatype::FieldType;
use crate::file::MERGED_NODE;
use crate::frame::FrameEntry;
use crate::plan::{FieldKind, PlanField, PlanSet};
use crate::profile::Profile;
use crate::record::{read_record, Interval, IntervalType};
use crate::value::Value;

/// Where one field sits in a record body: `off` bytes from the start,
/// counting every scalar and vector counter before it, plus the payloads
/// of the `nvec` vector fields before it, whose sizes the body says.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    pub(crate) off: u32,
    pub(crate) nvec: u8,
    pub(crate) ftype: FieldType,
    /// Width of the vector counter; 0 for a scalar field.
    pub(crate) counter_len: u8,
}

impl Slot {
    /// A bare place in a body — `off` static bytes and the payloads of
    /// `nvec` vectors in — for marking where a span of fields ends.
    pub(crate) fn place(off: u32, nvec: u8) -> Slot {
        Slot {
            off,
            nvec,
            ftype: FieldType::U8,
            counter_len: 0,
        }
    }

    /// Element count of this vector field, whose counter is at `at`.
    #[inline]
    fn count(self, body: &[u8], at: usize) -> Option<usize> {
        Some(match self.counter_len {
            1 => *body.get(at)? as usize,
            2 => u16::from_le_bytes(*body.get(at..)?.first_chunk()?) as usize,
            _ => u32::from_le_bytes(*body.get(at..)?.first_chunk()?) as usize,
        })
    }

    /// The field at `at` as the [`Value`] a decode produces for it.
    fn value(self, body: &[u8], at: usize) -> Value {
        let w = self.ftype.elem_len() as usize;
        if self.counter_len == 0 {
            return match self.ftype {
                FieldType::I64 => Value::Int(i64::from_le_bytes(bytes(body, at))),
                FieldType::F64 => Value::Float(f64::from_le_bytes(bytes(body, at))),
                t => Value::Uint(scalar(t, body, at)),
            };
        }
        let n = self.count(body, at).expect("counter checked by the view");
        let from = at + self.counter_len as usize;
        let payload = &body[from..from + n * w];
        match self.ftype {
            FieldType::Char => Value::Str(
                std::str::from_utf8(payload)
                    .expect("text checked by the view")
                    .into(),
            ),
            FieldType::F64 => Value::FloatVec(
                payload
                    .chunks_exact(8)
                    .map(|c| f64::from_le_bytes(bytes(c, 0)))
                    .collect(),
            ),
            _ => Value::UintVec(
                payload
                    .chunks_exact(w)
                    .map(|c| scalar(self.ftype, c, 0))
                    .collect(),
            ),
        }
    }

    /// `self.value(..).as_uint()` without building the `Value`.
    #[inline]
    fn uint(self, body: &[u8], at: usize) -> Option<u64> {
        match (self.counter_len, self.ftype) {
            (0, FieldType::I64) => u64::try_from(i64::from_le_bytes(bytes(body, at))).ok(),
            (0, FieldType::F64) => None,
            (0, t) => Some(scalar(t, body, at)),
            _ => None,
        }
    }

    /// `self.value(..).as_float()` without building the `Value`.
    #[inline]
    fn float(self, body: &[u8], at: usize) -> Option<f64> {
        match (self.counter_len, self.ftype) {
            (0, FieldType::I64) => Some(i64::from_le_bytes(bytes(body, at)) as f64),
            (0, FieldType::F64) => Some(f64::from_le_bytes(bytes(body, at))),
            (0, t) => Some(scalar(t, body, at) as f64),
            _ => None,
        }
    }
}

/// An unsigned scalar of type `t` at `at`, widened.
#[inline]
fn scalar(t: FieldType, body: &[u8], at: usize) -> u64 {
    match t.elem_len() {
        1 => body[at] as u64,
        2 => u16::from_le_bytes(bytes(body, at)) as u64,
        4 => u32::from_le_bytes(bytes(body, at)) as u64,
        _ => u64::from_le_bytes(bytes(body, at)),
    }
}

/// `N` bytes of `body` at `at`. A view only asks for places its check
/// found inside the body.
#[inline]
fn bytes<const N: usize>(body: &[u8], at: usize) -> [u8; N] {
    *body[at..]
        .first_chunk()
        .expect("field inside the checked body")
}

/// One field after the type word: what the decoder makes of it and where
/// it sits.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaidField {
    pub(crate) kind: FieldKind,
    pub(crate) name_idx: u16,
    pub(crate) slot: Slot,
}

impl LaidField {
    /// Whether a decode files this field under `Interval::extras` (a
    /// later field named recType decodes as an extra).
    pub(crate) fn is_extra(&self) -> bool {
        matches!(self.kind, FieldKind::RecType | FieldKind::Extra)
    }
}

/// Field places of one record type under one mask.
///
/// A common slot names the *last* field of that name and `extras` keeps
/// spec order — what the reference decoder's field-by-field walk leaves
/// behind in the struct.
#[derive(Debug, Clone)]
pub(crate) struct Layout {
    /// Unique among the layouts of this process (clones share it, and the
    /// content it stands for): what a writer keys its transcode rules by.
    id: u64,
    /// Bytes of the type word, every scalar and every vector counter.
    static_len: usize,
    start: Option<Slot>,
    dura: Option<Slot>,
    cpu: Option<Slot>,
    node: Option<Slot>,
    thread: Option<Slot>,
    /// Every other field after the type word: (field name index, slot).
    extras: Vec<(u16, Slot)>,
    /// Position in `extras` of the first extra with each field name
    /// index ([`NO_EXTRA`]: none), so a lookup by name index is a load.
    extra_at: Vec<u8>,
    /// Every field after the type word, in body order, with what the
    /// decoder makes of it: what a transcode rule is compiled from. The
    /// accessors above read the narrower tables.
    fields: Vec<LaidField>,
    /// The vector fields, in body order.
    vectors: Vec<Slot>,
}

const NO_EXTRA: u8 = u8::MAX;

/// The next [`Layout::id`]. A ticket counter: it publishes nothing else.
static NEXT_LAYOUT_ID: AtomicU64 = AtomicU64::new(0);

impl Layout {
    /// Lays out the mask-present fields that follow the type word (which
    /// the decoder reads as 4 bytes whatever the spec calls it). `None`
    /// when some field decodes to an error whatever the bytes: a vector
    /// of signed integers, a counter that is not 1, 2 or 4 bytes wide.
    pub(crate) fn after_type_word(fields: &[PlanField]) -> Option<Layout> {
        let mut layout = Layout {
            id: NEXT_LAYOUT_ID.fetch_add(1, Ordering::Relaxed),
            static_len: 0,
            start: None,
            dura: None,
            cpu: None,
            node: None,
            thread: None,
            extras: Vec::new(),
            extra_at: Vec::new(),
            fields: Vec::with_capacity(fields.len()),
            vectors: Vec::new(),
        };
        let mut off = 4u32;
        for f in fields {
            let slot = Slot {
                off,
                nvec: u8::try_from(layout.vectors.len()).ok()?,
                ftype: f.ftype,
                counter_len: if f.vector { f.counter_len } else { 0 },
            };
            if f.vector {
                if f.ftype == FieldType::I64 || !matches!(f.counter_len, 1 | 2 | 4) {
                    return None;
                }
                layout.vectors.push(slot);
                off += f.counter_len as u32;
            } else {
                off += f.ftype.elem_len() as u32;
            }
            layout.fields.push(LaidField {
                kind: f.kind,
                name_idx: f.name_idx,
                slot,
            });
            match f.kind {
                FieldKind::Start => layout.start = Some(slot),
                FieldKind::Dura => layout.dura = Some(slot),
                FieldKind::Cpu => layout.cpu = Some(slot),
                FieldKind::Node => layout.node = Some(slot),
                FieldKind::Thread => layout.thread = Some(slot),
                // A later field named recType decodes as an extra.
                FieldKind::RecType | FieldKind::Extra => {
                    let idx = f.name_idx as usize;
                    if layout.extra_at.len() <= idx {
                        layout.extra_at.resize(idx + 1, NO_EXTRA);
                    }
                    // A spec holds at most 255 fields on disk, so the
                    // position fits a byte.
                    let at = u8::try_from(layout.extras.len()).ok()?;
                    if at == NO_EXTRA {
                        return None;
                    }
                    if layout.extra_at[idx] == NO_EXTRA {
                        layout.extra_at[idx] = at;
                    }
                    layout.extras.push((f.name_idx, slot));
                }
            }
        }
        layout.static_len = off as usize;
        Some(layout)
    }

    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    pub(crate) fn fields(&self) -> &[LaidField] {
        &self.fields
    }

    /// The place just past the last field: where the body ends.
    pub(crate) fn end(&self) -> Slot {
        Slot::place(self.static_len as u32, self.vectors.len() as u8)
    }
}

/// A validated, borrowed view of one record body — the interval-file
/// twin of `ute_rawtrace::RawRecordView`.
#[derive(Debug, Clone, Copy)]
pub struct RecordView<'a> {
    layout: &'a Layout,
    body: &'a [u8],
    itype: IntervalType,
    default_node: NodeId,
}

impl<'a> RecordView<'a> {
    /// Checks `body` against `layout`; `None` when a decode of it would
    /// fail.
    #[inline]
    pub(crate) fn new(
        layout: &'a Layout,
        body: &'a [u8],
        default_node: NodeId,
    ) -> Option<RecordView<'a>> {
        let itype = IntervalType::from_u32(u32::from_le_bytes(*body.first_chunk()?)).ok()?;
        let mut len = layout.static_len;
        for v in &layout.vectors {
            // `len` so far is this vector's `off` plus the payloads
            // before it, which puts its counter at:
            let at = v.off as usize + (len - layout.static_len);
            let from = at + v.counter_len as usize;
            let size = v
                .count(body, at)?
                .checked_mul(v.ftype.elem_len() as usize)?;
            let payload = body.get(from..from.checked_add(size)?)?;
            if v.ftype == FieldType::Char && std::str::from_utf8(payload).is_err() {
                return None;
            }
            len += size;
        }
        (len == body.len()).then_some(RecordView {
            layout,
            body,
            itype,
            default_node,
        })
    }

    pub(crate) fn layout(&self) -> &'a Layout {
        self.layout
    }

    pub(crate) fn body(&self) -> &'a [u8] {
        self.body
    }

    /// Where `slot`'s field starts in this body.
    #[inline]
    pub(crate) fn at(&self, slot: Slot) -> usize {
        let mut shift = 0;
        for v in &self.layout.vectors[..slot.nvec as usize] {
            let n = v
                .count(self.body, v.off as usize + shift)
                .expect("counter checked by the view");
            shift += n * v.ftype.elem_len() as usize;
        }
        slot.off as usize + shift
    }

    #[inline]
    fn common(&self, slot: Option<Slot>) -> Option<u64> {
        slot.map(|s| s.uint(self.body, self.at(s)).unwrap_or(0))
    }

    #[inline]
    fn extra_slot(&self, name_idx: u16) -> Option<Slot> {
        let at = *self.layout.extra_at.get(name_idx as usize)?;
        Some(self.layout.extras.get(at as usize)?.1)
    }

    /// Materialises the record: exactly the [`Interval`] the reference
    /// decoder produces for these bytes.
    pub fn to_interval(&self) -> Interval {
        let mut out = Interval::basic(
            self.itype,
            self.start(),
            self.duration(),
            self.cpu(),
            self.node(),
            self.thread(),
        );
        out.extras = Vec::with_capacity(self.layout.extras.len());
        for &(idx, slot) in &self.layout.extras {
            out.extras.push((idx, slot.value(self.body, self.at(slot))));
        }
        out
    }
}

/// What a consumer that only reads fields asks of a record, whatever
/// form the record is in. `extra_uint(i)` / `extra_f64(i)` are
/// `Interval::extras`' first entry with name index `i`, as an unsigned
/// integer / a float ([`Value::as_uint`] / [`Value::as_float`]).
pub trait RecordFields {
    /// State + bebits.
    fn itype(&self) -> IntervalType;
    /// Start timestamp, ticks.
    fn start(&self) -> u64;
    /// Duration, ticks.
    fn duration(&self) -> u64;
    /// End timestamp (saturating, as [`Interval::end`]).
    #[inline]
    fn end(&self) -> u64 {
        self.start().saturating_add(self.duration())
    }
    /// Processor id.
    fn cpu(&self) -> CpuId;
    /// Node id.
    fn node(&self) -> NodeId;
    /// Logical thread id.
    fn thread(&self) -> LogicalThreadId;
    /// The first extra field with this name index, as an unsigned
    /// integer.
    fn extra_uint(&self, name_idx: u16) -> Option<u64>;
    /// The first extra field with this name index, as a float: scalars
    /// have one, vectors and text do not.
    fn extra_f64(&self, name_idx: u16) -> Option<f64>;
}

/// `span` — the least start and greatest end of some records, ticks —
/// widened to take in `rec`.
pub fn widen_span(span: Option<(u64, u64)>, rec: &impl RecordFields) -> Option<(u64, u64)> {
    let (start, end) = (rec.start(), rec.end());
    Some(span.map_or((start, end), |(s, e)| (s.min(start), e.max(end))))
}

/// Implements [`RecordFields`] for `$ty` by handing each accessor call
/// to `$via!(self, call)`, which names the record that answers it.
macro_rules! forward_fields {
    ($ty:ty $(, $g:ident)?; $via:ident) => {
        impl<$($g: RecordFields + ?Sized)?> RecordFields for $ty {
            #[inline] fn itype(&self) -> IntervalType { $via!(self, itype()) }
            #[inline] fn start(&self) -> u64 { $via!(self, start()) }
            #[inline] fn duration(&self) -> u64 { $via!(self, duration()) }
            #[inline] fn cpu(&self) -> CpuId { $via!(self, cpu()) }
            #[inline] fn node(&self) -> NodeId { $via!(self, node()) }
            #[inline] fn thread(&self) -> LogicalThreadId { $via!(self, thread()) }
            #[inline] fn extra_uint(&self, i: u16) -> Option<u64> { $via!(self, extra_uint(i)) }
            #[inline] fn extra_f64(&self, i: u16) -> Option<f64> { $via!(self, extra_f64(i)) }
        }
    };
}

/// A borrowed record answers as the record: what lets a slice of
/// records be handed to a consumer of an iterator of them.
macro_rules! referent {
    ($self:ident, $($call:tt)*) => {
        (**$self).$($call)*
    };
}
forward_fields!(&R, R; referent);

impl RecordFields for Interval {
    #[inline]
    fn itype(&self) -> IntervalType {
        self.itype
    }
    #[inline]
    fn start(&self) -> u64 {
        self.start
    }
    #[inline]
    fn duration(&self) -> u64 {
        self.duration
    }
    #[inline]
    fn cpu(&self) -> CpuId {
        self.cpu
    }
    #[inline]
    fn node(&self) -> NodeId {
        self.node
    }
    #[inline]
    fn thread(&self) -> LogicalThreadId {
        self.thread
    }
    #[inline]
    fn extra_uint(&self, name_idx: u16) -> Option<u64> {
        let (_, v) = self.extras.iter().find(|(i, _)| *i == name_idx)?;
        v.as_uint()
    }
    #[inline]
    fn extra_f64(&self, name_idx: u16) -> Option<f64> {
        let (_, v) = self.extras.iter().find(|(i, _)| *i == name_idx)?;
        v.as_float()
    }
}

/// A view's accessors: each a load at the place its layout names.
impl RecordFields for RecordView<'_> {
    #[inline]
    fn itype(&self) -> IntervalType {
        self.itype
    }
    #[inline]
    fn start(&self) -> u64 {
        self.common(self.layout.start).unwrap_or(0)
    }
    #[inline]
    fn duration(&self) -> u64 {
        self.common(self.layout.dura).unwrap_or(0)
    }
    #[inline]
    fn cpu(&self) -> CpuId {
        CpuId(self.common(self.layout.cpu).unwrap_or(0) as u16)
    }
    /// The record's own field, or the file's node when the field is
    /// masked out (per-node files).
    #[inline]
    fn node(&self) -> NodeId {
        match self.common(self.layout.node) {
            Some(n) => NodeId(n as u16),
            None => self.default_node,
        }
    }
    #[inline]
    fn thread(&self) -> LogicalThreadId {
        LogicalThreadId(self.common(self.layout.thread).unwrap_or(0) as u16)
    }
    #[inline]
    fn extra_uint(&self, name_idx: u16) -> Option<u64> {
        let slot = self.extra_slot(name_idx)?;
        slot.uint(self.body, self.at(slot))
    }
    #[inline]
    fn extra_f64(&self, name_idx: u16) -> Option<f64> {
        let slot = self.extra_slot(name_idx)?;
        slot.float(self.body, self.at(slot))
    }
}

/// One record read off its body: viewed in place, or — a record type no
/// layout expresses — decoded. The decoded arm is boxed so that the
/// common one sets the size: a `Record` is moved far more often than the
/// rare arm is built.
#[derive(Debug)]
pub enum Record<'a> {
    /// Fields read on demand.
    View(RecordView<'a>),
    /// Decoded by the reference decoder.
    Owned(Box<Interval>),
}

/// Forwards a [`RecordFields`] accessor to whichever arm holds the record.
macro_rules! either_arm {
    ($self:ident, $($call:tt)*) => {
        match $self {
            Record::View(r) => r.$($call)*,
            Record::Owned(r) => r.$($call)*,
        }
    };
}
forward_fields!(Record<'_>; either_arm);

impl Record<'_> {
    /// The decoded record.
    pub fn into_interval(self) -> Interval {
        match self {
            Record::View(v) => v.to_interval(),
            Record::Owned(iv) => *iv,
        }
    }
}

/// A record on its way into another file: what was read, and the start
/// and duration it is to be written with. Every other field is the
/// source's, so nothing is decoded until something asks for an
/// [`Interval`], and [`crate::file::IntervalFileWriter::push_retimed`]
/// writes one by copying the source's bytes around the two new numbers.
#[derive(Debug)]
pub struct Retimed<'a> {
    rec: Record<'a>,
    start: u64,
    duration: u64,
}

impl<'a> Retimed<'a> {
    /// `rec` with a new start and duration.
    #[inline]
    pub fn new(rec: Record<'a>, start: u64, duration: u64) -> Retimed<'a> {
        Retimed {
            rec,
            start,
            duration,
        }
    }

    /// The source record when it is a view (its start and duration are
    /// the ones read, not the ones to write).
    #[inline]
    pub(crate) fn source_view(&self) -> Option<&RecordView<'a>> {
        match &self.rec {
            Record::View(v) => Some(v),
            Record::Owned(_) => None,
        }
    }

    /// The record as decoded, under its new start and duration.
    pub fn to_interval(&self) -> Interval {
        let mut iv = match &self.rec {
            Record::View(v) => v.to_interval(),
            Record::Owned(iv) => (**iv).clone(),
        };
        iv.start = self.start;
        iv.duration = self.duration;
        iv
    }

    /// [`Retimed::to_interval`], consuming the record.
    pub fn into_interval(self) -> Interval {
        let mut iv = self.rec.into_interval();
        iv.start = self.start;
        iv.duration = self.duration;
        iv
    }
}

impl RecordFields for Retimed<'_> {
    #[inline]
    fn itype(&self) -> IntervalType {
        self.rec.itype()
    }
    #[inline]
    fn start(&self) -> u64 {
        self.start
    }
    #[inline]
    fn duration(&self) -> u64 {
        self.duration
    }
    #[inline]
    fn cpu(&self) -> CpuId {
        self.rec.cpu()
    }
    #[inline]
    fn node(&self) -> NodeId {
        self.rec.node()
    }
    #[inline]
    fn thread(&self) -> LogicalThreadId {
        self.rec.thread()
    }
    #[inline]
    fn extra_uint(&self, name_idx: u16) -> Option<u64> {
        self.rec.extra_uint(name_idx)
    }
    #[inline]
    fn extra_f64(&self, name_idx: u16) -> Option<f64> {
        self.rec.extra_f64(name_idx)
    }
}

/// Everything needed to read the records of one interval file: the
/// profile and mask it was written under, the plans shared for them,
/// and the node its per-node records belong to.
pub(crate) struct RecordDecoder<'p> {
    profile: &'p Profile,
    mask: u32,
    plans: Arc<PlanSet>,
    default_node: NodeId,
}

impl<'p> RecordDecoder<'p> {
    /// `node` is the file header's node field ([`MERGED_NODE`] for
    /// merged files, whose records carry their own).
    pub(crate) fn new(profile: &'p Profile, mask: u32, node: u16) -> RecordDecoder<'p> {
        RecordDecoder {
            profile,
            mask,
            plans: PlanSet::shared(profile, mask),
            default_node: NodeId(if node == MERGED_NODE { 0 } else { node }),
        }
    }

    /// Reads one record body: a view when it passes a view's check,
    /// otherwise whatever the reference decoder makes of it.
    #[inline]
    pub(crate) fn read<'a>(&'a self, body: &'a [u8]) -> Result<Record<'a>> {
        match self.plans.view(body, self.default_node) {
            Some(v) => Ok(Record::View(v)),
            None => self.decode(body).map(|iv| Record::Owned(Box::new(iv))),
        }
    }

    #[cold]
    fn decode(&self, body: &[u8]) -> Result<Interval> {
        Interval::decode_body(self.profile, self.mask, body, self.default_node)
    }

    /// Walks the records of the frame `entry` names in the file `data`
    /// and checks that they fill it: `nrecords` records in exactly
    /// `size` bytes.
    pub(crate) fn walk_frame<'a>(
        &'a self,
        data: &'a [u8],
        entry: &FrameEntry,
        mut f: impl FnMut(Record<'a>),
    ) -> Result<()> {
        let mut r = ByteReader::new(data);
        r.seek(entry.offset)?;
        for _ in 0..entry.nrecords {
            f(self.read(read_record(&mut r)?)?);
        }
        if r.pos() - entry.offset != entry.size {
            return Err(UteError::corrupt_at(
                "frame size disagrees with its records",
                entry.offset,
            ));
        }
        Ok(())
    }
}
