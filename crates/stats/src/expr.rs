//! Expressions over interval-record fields.
//!
//! Field names come from the description profile (`node`, `cpu`,
//! `thread`, `dura`, `msgSizeSent`, …). Time-valued fields (`start`,
//! `dura`, `end`) are exposed in *seconds*, matching the paper's example
//! `condition=(start < 2)` meaning "started during the first 2 seconds".
//! Two synthetic fields are provided: `state` (the numeric state code)
//! and `interesting` (1 for states other than Running/clock bookkeeping).
//! The builtin `bin(e, n)` maps a time expression to one of `n` equal
//! bins over the run's span.

use ute_core::error::UteError;
use ute_core::time::TICKS_PER_SEC;
use ute_format::profile::Profile;
use ute_format::RecordFields;

/// Evaluation context: the run's time span (for `bin`).
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalContext {
    /// Span start, seconds.
    pub span_start: f64,
    /// Span end, seconds.
    pub span_end: f64,
}

/// A parsed expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A numeric literal.
    Num(f64),
    /// A field reference by name.
    Field(String),
    /// A binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Unary negation.
    Neg(Box<Expr>),
    /// `bin(expr, n)`: which of `n` equal time bins `expr` falls in.
    TimeBin(Box<Expr>, u32),
}

/// Binary operators, loosest first in precedence climbing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Or,
    And,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Add,
    Sub,
    Mul,
    Div,
}

impl BinOp {
    /// Precedence level (higher binds tighter).
    pub fn precedence(self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 3,
            BinOp::Add | BinOp::Sub => 4,
            BinOp::Mul | BinOp::Div => 5,
        }
    }
}

fn truthy(v: f64) -> bool {
    v != 0.0
}

/// A field reference resolved against a profile: the common and
/// synthetic fields by kind, every other name by its index in the
/// profile's field-name table.
#[derive(Debug, Clone, PartialEq)]
enum FieldRef {
    Start,
    Dura,
    End,
    Node,
    Cpu,
    Thread,
    RecType,
    State,
    Interesting,
    /// An extra field, by name index; `None` when the profile does not
    /// know the name, which no record can then carry. The name is kept
    /// for the error message.
    Extra(Option<u16>, String),
}

/// A field named by an expression that the record at hand does not
/// carry. Cheap to return: a condition treats it as "does not match",
/// and only an `x`/`y` that has to report it pays for the message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissingField<'e>(&'e str);

impl MissingField<'_> {
    /// The error an `x` or `y` reports for this on `rec`.
    pub fn on(self, rec: &impl RecordFields) -> UteError {
        UteError::NotFound(format!(
            "field {} on a {} record",
            self.0,
            rec.itype().state
        ))
    }
}

/// An [`Expr`] with its field names resolved against one profile, so
/// evaluating it over a record compares no strings.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledExpr(Node);

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Num(f64),
    Field(FieldRef),
    Bin(BinOp, Box<Node>, Box<Node>),
    Neg(Box<Node>),
    TimeBin(Box<Node>, u32),
}

impl CompiledExpr {
    /// Evaluates against one record, in whatever form it is read.
    pub fn eval<'e>(
        &'e self,
        ctx: &EvalContext,
        iv: &impl RecordFields,
    ) -> std::result::Result<f64, MissingField<'e>> {
        self.0.eval(ctx, iv)
    }
}

impl Node {
    fn compile(e: &Expr, profile: &Profile) -> Node {
        let sub = |e: &Expr| Box::new(Node::compile(e, profile));
        match e {
            Expr::Num(v) => Node::Num(*v),
            Expr::Field(name) => Node::Field(match name.as_str() {
                "start" => FieldRef::Start,
                "dura" | "duration" => FieldRef::Dura,
                "end" => FieldRef::End,
                "node" => FieldRef::Node,
                "cpu" | "processor" => FieldRef::Cpu,
                "thread" => FieldRef::Thread,
                "recType" => FieldRef::RecType,
                "state" => FieldRef::State,
                "interesting" => FieldRef::Interesting,
                other => FieldRef::Extra(profile.field_name_index(other), name.clone()),
            }),
            Expr::Bin(op, a, b) => Node::Bin(*op, sub(a), sub(b)),
            Expr::Neg(e) => Node::Neg(sub(e)),
            Expr::TimeBin(e, n) => Node::TimeBin(sub(e), *n),
        }
    }

    fn eval<'e>(
        &'e self,
        ctx: &EvalContext,
        iv: &impl RecordFields,
    ) -> std::result::Result<f64, MissingField<'e>> {
        Ok(match self {
            Node::Num(v) => *v,
            Node::Field(field) => match field {
                FieldRef::Start => iv.start() as f64 / TICKS_PER_SEC as f64,
                FieldRef::Dura => iv.duration() as f64 / TICKS_PER_SEC as f64,
                FieldRef::End => iv.end() as f64 / TICKS_PER_SEC as f64,
                FieldRef::Node => iv.node().raw() as f64,
                FieldRef::Cpu => iv.cpu().raw() as f64,
                FieldRef::Thread => iv.thread().raw() as f64,
                FieldRef::RecType => iv.itype().to_u32() as f64,
                FieldRef::State => iv.itype().state.0 as f64,
                FieldRef::Interesting => iv.itype().state.is_interesting() as u8 as f64,
                FieldRef::Extra(idx, name) => idx
                    .and_then(|idx| iv.extra_f64(idx))
                    .ok_or(MissingField(name))?,
            },
            Node::Neg(e) => -e.eval(ctx, iv)?,
            Node::TimeBin(e, n) => {
                let t = e.eval(ctx, iv)?;
                let span = (ctx.span_end - ctx.span_start).max(f64::MIN_POSITIVE);
                let b = ((t - ctx.span_start) / span * *n as f64).floor();
                b.clamp(0.0, *n as f64 - 1.0)
            }
            Node::Bin(op, a, b) => {
                let x = a.eval(ctx, iv)?;
                match op {
                    // Short-circuiting boolean ops.
                    BinOp::And => (truthy(x) && truthy(b.eval(ctx, iv)?)) as u8 as f64,
                    BinOp::Or => (truthy(x) || truthy(b.eval(ctx, iv)?)) as u8 as f64,
                    _ => {
                        let y = b.eval(ctx, iv)?;
                        match op {
                            BinOp::Eq => (x == y) as u8 as f64,
                            BinOp::Ne => (x != y) as u8 as f64,
                            BinOp::Lt => (x < y) as u8 as f64,
                            BinOp::Le => (x <= y) as u8 as f64,
                            BinOp::Gt => (x > y) as u8 as f64,
                            BinOp::Ge => (x >= y) as u8 as f64,
                            BinOp::Add => x + y,
                            BinOp::Sub => x - y,
                            BinOp::Mul => x * y,
                            BinOp::Div => x / y,
                            BinOp::And | BinOp::Or => unreachable!(),
                        }
                    }
                }
            }
        })
    }
}

impl Expr {
    /// Resolves the expression's field names against `profile`.
    pub fn compile(&self, profile: &Profile) -> CompiledExpr {
        CompiledExpr(Node::compile(self, profile))
    }

    /// Convenience constructor for a field reference.
    pub fn field(name: &str) -> Expr {
        Expr::Field(name.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ute_core::error::Result;
    use ute_core::ids::{CpuId, LogicalThreadId, NodeId};
    use ute_format::record::{Interval, IntervalType};
    use ute_format::state::StateCode;
    use ute_format::value::Value;

    /// Compiles `e` and evaluates it against one record, as a table does.
    fn eval_on(e: &Expr, ctx: &EvalContext, p: &Profile, iv: &Interval) -> Result<f64> {
        e.compile(p).eval(ctx, iv).map_err(|missing| missing.on(iv))
    }

    fn iv(profile: &Profile) -> Interval {
        Interval::basic(
            IntervalType::complete(StateCode::mpi(ute_core::event::MpiOp::Send)),
            1_500_000_000, // 1.5 s
            250_000_000,   // 0.25 s
            CpuId(2),
            NodeId(1),
            LogicalThreadId(3),
        )
        .with_extra(profile, "rank", Value::Uint(4))
        .with_extra(profile, "peer", Value::Uint(0))
        .with_extra(profile, "tag", Value::Uint(9))
        .with_extra(profile, "msgSizeSent", Value::Uint(4096))
        .with_extra(profile, "seq", Value::Uint(1))
        .with_extra(profile, "address", Value::Uint(0))
    }

    fn eval(e: &Expr) -> f64 {
        let p = Profile::standard();
        let ctx = EvalContext {
            span_start: 0.0,
            span_end: 10.0,
        };
        eval_on(e, &ctx, &p, &iv(&p)).unwrap()
    }

    #[test]
    fn field_access_in_seconds() {
        assert_eq!(eval(&Expr::field("start")), 1.5);
        assert_eq!(eval(&Expr::field("dura")), 0.25);
        assert_eq!(eval(&Expr::field("end")), 1.75);
        assert_eq!(eval(&Expr::field("node")), 1.0);
        assert_eq!(eval(&Expr::field("cpu")), 2.0);
        assert_eq!(eval(&Expr::field("msgSizeSent")), 4096.0);
        assert_eq!(eval(&Expr::field("interesting")), 1.0);
    }

    #[test]
    fn arithmetic_and_comparison() {
        let e = Expr::Bin(
            BinOp::Lt,
            Box::new(Expr::field("start")),
            Box::new(Expr::Num(2.0)),
        );
        assert_eq!(eval(&e), 1.0);
        let e = Expr::Bin(
            BinOp::Add,
            Box::new(Expr::field("start")),
            Box::new(Expr::Neg(Box::new(Expr::Num(0.5)))),
        );
        assert_eq!(eval(&e), 1.0);
        let e = Expr::Bin(
            BinOp::And,
            Box::new(Expr::field("interesting")),
            Box::new(Expr::Bin(
                BinOp::Ge,
                Box::new(Expr::field("msgSizeSent")),
                Box::new(Expr::Num(4096.0)),
            )),
        );
        assert_eq!(eval(&e), 1.0);
    }

    #[test]
    fn time_bins() {
        // 1.5 s into a 10 s span with 50 bins → bin 7.
        let e = Expr::TimeBin(Box::new(Expr::field("start")), 50);
        assert_eq!(eval(&e), 7.0);
        // Values past the end clamp into the last bin.
        let e = Expr::TimeBin(Box::new(Expr::Num(99.0)), 50);
        assert_eq!(eval(&e), 49.0);
        let e = Expr::TimeBin(Box::new(Expr::Num(-1.0)), 50);
        assert_eq!(eval(&e), 0.0);
    }

    #[test]
    fn unknown_field_errors() {
        let p = Profile::standard();
        let ctx = EvalContext::default();
        let e = Expr::field("bogus");
        assert!(eval_on(&e, &ctx, &p, &iv(&p)).is_err());
        // A field another record type has, but Send doesn't.
        let e = Expr::field("markerId");
        assert!(eval_on(&e, &ctx, &p, &iv(&p)).is_err());
    }

    #[test]
    fn short_circuit_avoids_errors() {
        // interesting && markerId — markerId is missing on a Send record,
        // but the left side is evaluated first; when it is 0 the right
        // side must not be evaluated.
        let p = Profile::standard();
        let ctx = EvalContext::default();
        let running = Interval::basic(
            IntervalType::complete(StateCode::RUNNING),
            0,
            1,
            CpuId(0),
            NodeId(0),
            LogicalThreadId(0),
        );
        let e = Expr::Bin(
            BinOp::And,
            Box::new(Expr::field("interesting")),
            Box::new(Expr::field("markerId")),
        );
        assert_eq!(eval_on(&e, &ctx, &p, &running).unwrap(), 0.0);
    }
}
