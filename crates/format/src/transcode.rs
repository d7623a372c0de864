//! Writing a record into one file out of the bytes of another.
//!
//! The merge changes two numbers of every record — start and duration —
//! and, going from a per-node mask to the merged one, adds the `node`
//! field. Everything else it writes is what it read. A [`Transcode`] is
//! that observation compiled once per (source [`Layout`], destination
//! [`RecordPlan`]) pair: a short list of spans to copy out of the source
//! body and numbers to put between them.
//!
//! The rule is defined by what it must equal: the bytes
//! [`RecordPlan::encode_record_into`] appends for the source's
//! [`RecordView::to_interval`] with the two numbers replaced. `compile`
//! walks the destination fields the way that encode does and gives up
//! (`None`) wherever a copy could differ from a decode followed by an
//! encode — a field the source lacks or holds twice, a type that differs
//! between the two sides, a common field wider than the `u16` an
//! [`crate::record::Interval`] keeps — and the writer then does decode
//! and encode, which is also where every error text comes from.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use ute_core::codec::ByteWriter;

use crate::datatype::FieldType;
use crate::plan::{FieldKind, PlanField, RecordPlan};
use crate::record::write_record_len;
use crate::view::{LaidField, Layout, RecordFields, RecordView, Slot};

#[derive(Debug, Clone, Copy)]
enum Op {
    /// The source body from where one field starts to where another does.
    Copy {
        from: Slot,
        to: Slot,
    },
    Start,
    Dura,
    /// The node the source file's header names, for a source without the
    /// field.
    Node,
}

/// How to write records of one source layout under one destination plan.
#[derive(Debug)]
pub(crate) struct Transcode {
    ops: Vec<Op>,
    /// The destination body's length, when no vector makes it vary.
    fixed_len: Option<usize>,
}

impl Transcode {
    pub(crate) fn compile(src: &Layout, dst: &RecordPlan) -> Option<Transcode> {
        let (first, rest) = dst.fields().split_first()?;
        if first.kind != FieldKind::RecType || first.vector || first.ftype != FieldType::U32 {
            return None;
        }
        // Source positions: 0 is the type word, i + 1 is `src.fields()[i]`.
        // A span is a range of positions; neighbours are joined.
        enum Step {
            Span(usize, usize),
            Put(Op),
        }
        let mut steps = vec![Step::Span(0, 1)];
        let copy = |steps: &mut Vec<Step>, i: usize| match steps.last_mut() {
            Some(Step::Span(_, to)) if *to == i + 1 => *to += 1,
            _ => steps.push(Step::Span(i + 1, i + 2)),
        };
        for d in rest {
            match d.kind {
                // Encodes as the type word again while the source decodes
                // it as an extra.
                FieldKind::RecType => return None,
                FieldKind::Start | FieldKind::Dura => {
                    if d.vector || d.ftype != FieldType::U64 {
                        return None;
                    }
                    steps.push(Step::Put(if d.kind == FieldKind::Start {
                        Op::Start
                    } else {
                        Op::Dura
                    }));
                }
                FieldKind::Cpu | FieldKind::Node | FieldKind::Thread => {
                    match first_two(src.fields(), |f| f.kind == d.kind) {
                        // An `Interval` keeps these as `u16`: a wider
                        // field would come back truncated.
                        [Some((i, f)), None] if same_shape(f, d) && d.ftype.elem_len() <= 2 => {
                            copy(&mut steps, i)
                        }
                        [None, _]
                            if d.kind == FieldKind::Node
                                && !d.vector
                                && d.ftype == FieldType::U16 =>
                        {
                            steps.push(Step::Put(Op::Node))
                        }
                        _ => return None,
                    }
                }
                FieldKind::Extra => {
                    match first_two(src.fields(), |f| f.is_extra() && f.name_idx == d.name_idx) {
                        [Some((i, f)), None] if same_shape(f, d) => copy(&mut steps, i),
                        _ => return None,
                    }
                }
            }
        }
        let place = |pos: usize| match pos.checked_sub(1) {
            None => Slot::place(0, 0),
            Some(i) => src.fields().get(i).map_or(src.end(), |f| f.slot),
        };
        let ops: Vec<Op> = steps
            .into_iter()
            .map(|s| match s {
                Step::Span(from, to) => Op::Copy {
                    from: place(from),
                    to: place(to),
                },
                Step::Put(op) => op,
            })
            .collect();
        let fixed_len = (src.end().nvec == 0).then(|| {
            ops.iter()
                .map(|op| match op {
                    Op::Copy { from, to } => (to.off - from.off) as usize,
                    Op::Start | Op::Dura => 8,
                    Op::Node => 2,
                })
                .sum()
        });
        Some(Transcode { ops, fixed_len })
    }

    /// Appends `view`'s record, length prefix included, under the given
    /// start and duration. `false`, with nothing written, for a body the
    /// destination cannot hold (over 65535 bytes).
    pub(crate) fn apply(
        &self,
        view: &RecordView<'_>,
        start: u64,
        duration: u64,
        w: &mut ByteWriter,
    ) -> bool {
        let len = self.fixed_len.unwrap_or_else(|| {
            self.ops
                .iter()
                .map(|op| match op {
                    Op::Copy { from, to } => view.at(*to) - view.at(*from),
                    Op::Start | Op::Dura => 8,
                    Op::Node => 2,
                })
                .sum()
        });
        if len > u16::MAX as usize {
            return false;
        }
        write_record_len(w, len);
        for op in &self.ops {
            match op {
                Op::Copy { from, to } => w.put_bytes(&view.body()[view.at(*from)..view.at(*to)]),
                Op::Start => w.put_u64(start),
                Op::Dura => w.put_u64(duration),
                Op::Node => w.put_u16(view.node().raw()),
            }
        }
        true
    }
}

/// The first two source fields `pred` picks, with their positions: a
/// rule copies a field only when it is the one of its kind.
fn first_two(
    fields: &[LaidField],
    pred: impl Fn(&LaidField) -> bool,
) -> [Option<(usize, &LaidField)>; 2] {
    let mut hits = fields.iter().enumerate().filter(|(_, f)| pred(f));
    [hits.next(), hits.next()]
}

/// Whether the two sides hold the field in the same bytes: element type,
/// scalar or vector, counter width.
fn same_shape(src: &LaidField, dst: &PlanField) -> bool {
    src.slot.ftype == dst.ftype
        && src.slot.counter_len == if dst.vector { dst.counter_len } else { 0 }
}

/// A writer's rules, by source layout. Built on first sight of a layout;
/// `None` remembers that the pair has no rule.
#[derive(Default)]
pub(crate) struct TranscodeCache {
    rules: HashMap<u64, Option<Transcode>, BuildHasherDefault<IdHasher>>,
}

impl TranscodeCache {
    pub(crate) fn rule(
        &mut self,
        src: &Layout,
        dst: impl FnOnce() -> Option<Transcode>,
    ) -> Option<&Transcode> {
        self.rules.entry(src.id()).or_insert_with(dst).as_ref()
    }
}

/// Hashes a [`Layout::id`]: a counter value this process handed out, so
/// there is no outside input to defend the table against.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanSet;
    use crate::profile::{FieldSpec, Profile, RecordSpec, MASK_MERGED, MASK_PER_NODE};
    use crate::record::IntervalType;
    use crate::state::StateCode;

    /// The rule for `itype` read under `src_mask` and written under
    /// `dst_mask`.
    fn rule(p: &Profile, itype_raw: u32, src_mask: u32, dst_mask: u32) -> Option<Transcode> {
        let src = PlanSet::build(p, src_mask);
        let dst = PlanSet::build(p, dst_mask);
        Transcode::compile(src.plan(itype_raw)?.layout()?, dst.plan(itype_raw)?)
    }

    /// The equality the rule must keep is tested where the bytes are
    /// (`tests/merge_path.rs`); here, that the standard profile never
    /// falls back — the merge would be right, and as slow as it was.
    #[test]
    fn every_standard_record_type_has_a_rule_between_any_two_masks() {
        let p = Profile::standard();
        for &itype_raw in p.specs.keys() {
            for src_mask in [MASK_PER_NODE, MASK_MERGED] {
                for dst_mask in [MASK_PER_NODE, MASK_MERGED] {
                    let rule = rule(&p, itype_raw, src_mask, dst_mask)
                        .unwrap_or_else(|| panic!("{itype_raw:#x} {src_mask} -> {dst_mask}"));
                    // Type word, the two numbers, the rest — cut in two
                    // where a node is left out, with one put between
                    // where it is added.
                    let ops = match (src_mask, dst_mask) {
                        (MASK_PER_NODE, MASK_MERGED) => 6,
                        (MASK_MERGED, MASK_PER_NODE) => 5,
                        _ => 4,
                    };
                    assert_eq!(rule.ops.len(), ops, "{:?}", rule.ops);
                }
            }
        }
    }

    #[test]
    fn a_field_an_interval_cannot_hold_whole_gets_no_rule() {
        let mut p = Profile::standard();
        let itype = IntervalType::complete(StateCode(0x70));
        let mut fields = p
            .spec_for(IntervalType::complete(StateCode::RUNNING))
            .unwrap()
            .fields
            .clone();
        let cpu = p.field_name_index("cpu").unwrap();
        let at = fields.iter().position(|f| f.name_idx == cpu).unwrap();
        fields[at] = FieldSpec::scalar(cpu, FieldType::U32);
        let name_idx = p.intern_record_name("WideCpu");
        p.add_record(RecordSpec {
            itype,
            name_idx,
            fields,
        });
        assert!(rule(&p, itype.to_u32(), MASK_PER_NODE, MASK_MERGED).is_none());
        let running = IntervalType::complete(StateCode::RUNNING).to_u32();
        assert!(rule(&p, running, MASK_PER_NODE, MASK_MERGED).is_some());
    }
}
