//! Executes table specifications over interval streams.

use std::collections::BTreeMap;

use ute_core::error::{Result, UteError};
use ute_core::time::TICKS_PER_SEC;
use ute_format::profile::Profile;
use ute_format::record::Interval;
use ute_format::state::StateCode;
use ute_format::{widen_span, RecordFields};

use crate::expr::{CompiledExpr, EvalContext};
use crate::table::{Cell, Key, Table, TableSpec};

/// One [`TableSpec`] resolved against the profile, with its groups.
struct Program {
    condition: Option<CompiledExpr>,
    xs: Vec<CompiledExpr>,
    ys: Vec<CompiledExpr>,
    groups: BTreeMap<Vec<Key>, Vec<Cell>>,
}

/// Runs every spec over the interval stream, producing one table each:
/// [`run_tables_over`] on decoded records, the read path's oracle.
pub fn run_tables(
    specs: &[TableSpec],
    profile: &Profile,
    intervals: &[Interval],
) -> Result<Vec<Table>> {
    let span = intervals.iter().fold(None, widen_span);
    run_tables_over(specs, profile, span, || intervals.iter().map(Ok))
}

/// Runs every spec over the records `walk` yields, in any form, one
/// table each; `bin` ranges over `span`, the records' least start and
/// greatest end as a file's frame directory states them.
///
/// Each spec is compiled against the profile once; per record a table
/// then costs its expressions and one map lookup on a reused key buffer.
/// Clock bookkeeping records are excluded: they carry no activity and
/// their pseudo-thread would pollute groupings.
///
/// The records are the authority: if their own span is not `span` (a
/// damaged directory), a second walk makes the tables under theirs. An
/// error the walk yields beats an evaluation error, held to its end.
pub fn run_tables_over<R: RecordFields, I: Iterator<Item = Result<R>>>(
    specs: &[TableSpec],
    profile: &Profile,
    span: Option<(u64, u64)>,
    walk: impl Fn() -> I,
) -> Result<Vec<Table>> {
    let _span = ute_obs::Span::enter("stats", format!("run {} tables", specs.len()));
    let mut pass = Pass::over(specs, profile, span, walk())?;
    if pass.span != span {
        pass = Pass::over(specs, profile, pass.span, walk())?;
    }
    ute_obs::counter("stats/tables_run").add(specs.len() as u64);
    ute_obs::counter("stats/records_scanned").add(pass.records);
    if let Some(e) = pass.missing {
        return Err(e);
    }
    let tables: Vec<Table> = specs
        .iter()
        .zip(pass.programs)
        .map(|(spec, prog)| Table {
            name: spec.name.clone(),
            x_labels: spec.xs.iter().map(|(l, _)| l.clone()).collect(),
            y_labels: spec.ys.iter().map(|(l, _, _)| l.clone()).collect(),
            rows: prog
                .groups
                .into_iter()
                .map(|(k, cells)| {
                    let ys = spec
                        .ys
                        .iter()
                        .zip(cells)
                        .map(|((_, _, agg), c)| c.finish(*agg))
                        .collect();
                    (k, ys)
                })
                .collect(),
        })
        .collect();
    ute_obs::counter("stats/rows_emitted")
        .add(tables.iter().map(|t| t.rows.len() as u64).sum::<u64>());
    Ok(tables)
}

/// One walk of the records: the groups every program gathered, the first
/// evaluation error, and what the walk measured.
struct Pass {
    programs: Vec<Program>,
    missing: Option<UteError>,
    records: u64,
    span: Option<(u64, u64)>,
}

impl Pass {
    fn over<R: RecordFields>(
        specs: &[TableSpec],
        profile: &Profile,
        span: Option<(u64, u64)>,
        records: impl Iterator<Item = Result<R>>,
    ) -> Result<Pass> {
        let (start, end) = span.unwrap_or((0, 0));
        let ctx = EvalContext {
            span_start: start as f64 / TICKS_PER_SEC as f64,
            span_end: end.max(1) as f64 / TICKS_PER_SEC as f64,
        };
        let mut pass = Pass {
            programs: specs
                .iter()
                .map(|spec| Program {
                    condition: spec.condition.as_ref().map(|e| e.compile(profile)),
                    xs: spec.xs.iter().map(|(_, e)| e.compile(profile)).collect(),
                    ys: spec.ys.iter().map(|(_, e, _)| e.compile(profile)).collect(),
                    groups: BTreeMap::new(),
                })
                .collect(),
            missing: None,
            records: 0,
            span: None,
        };
        let mut key: Vec<Key> = Vec::new();
        for rec in records {
            let rec = rec?;
            pass.records += 1;
            pass.span = widen_span(pass.span, &rec);
            let state = rec.itype().state;
            if pass.missing.is_none() && state != StateCode::CLOCK && state != StateCode::GAP {
                pass.missing = add(&mut pass.programs, &ctx, &rec, &mut key).err();
            }
        }
        Ok(pass)
    }
}

/// Adds one record to every program it matches.
fn add(
    programs: &mut [Program],
    ctx: &EvalContext,
    rec: &impl RecordFields,
    key: &mut Vec<Key>,
) -> Result<()> {
    for prog in programs {
        if let Some(cond) = &prog.condition {
            // A record type that lacks a field named in the condition
            // cannot match it — skip rather than error, so one program
            // can range over heterogeneous record types.
            match cond.eval(ctx, rec) {
                Ok(v) if v != 0.0 => {}
                _ => continue,
            }
        }
        key.clear();
        for e in &prog.xs {
            key.push(Key(e.eval(ctx, rec).map_err(|m| m.on(rec))?));
        }
        let cells = match prog.groups.get_mut(key.as_slice()) {
            Some(cells) => cells,
            None => prog
                .groups
                .entry(key.clone())
                .or_insert_with(|| vec![Cell::default(); prog.ys.len()]),
        };
        for (e, cell) in prog.ys.iter().zip(cells) {
            cell.add(e.eval(ctx, rec).map_err(|m| m.on(rec))?);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use ute_core::ids::{CpuId, LogicalThreadId, NodeId};
    use ute_format::record::IntervalType;
    use ute_format::value::Value;

    fn stream(profile: &Profile) -> Vec<Interval> {
        let mut out = Vec::new();
        // Two nodes × two cpus, MPI_Barrier intervals of varying length.
        for node in 0..2u16 {
            for cpu in 0..2u16 {
                for k in 0..3u64 {
                    let iv = Interval::basic(
                        IntervalType::complete(StateCode::mpi(ute_core::event::MpiOp::Barrier)),
                        k * TICKS_PER_SEC,           // 0,1,2 s
                        (100 + 100 * k) * 1_000_000, // 0.1/0.2/0.3 s
                        CpuId(cpu),
                        NodeId(node),
                        LogicalThreadId(cpu),
                    )
                    .with_extra(profile, "rank", Value::Uint(node as u64))
                    .with_extra(profile, "peer", Value::Uint(0))
                    .with_extra(profile, "msgSizeSent", Value::Uint(8))
                    .with_extra(profile, "address", Value::Uint(0));
                    out.push(iv);
                }
                // Running background (not interesting).
                out.push(Interval::basic(
                    IntervalType::complete(StateCode::RUNNING),
                    0,
                    3 * TICKS_PER_SEC,
                    CpuId(cpu),
                    NodeId(node),
                    LogicalThreadId(cpu),
                ));
            }
        }
        out
    }

    #[test]
    fn papers_example_runs() {
        let p = Profile::standard();
        let specs = parse_program(
            r#"table name=sample condition=(start < 2)
               x=("node", node) x=("processor", cpu)
               y=("avg(duration)", dura, avg)"#,
        )
        .unwrap();
        let tables = run_tables(&specs, &p, &stream(&p)).unwrap();
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        assert_eq!(t.rows.len(), 4); // 2 nodes × 2 cpus
                                     // Started < 2 s: barriers at 0 s (0.1) and 1 s (0.2) plus the
                                     // Running interval (3.0) → avg = (0.1+0.2+3.0)/3 = 1.1.
        let ys = t.row(&[0.0, 0.0]).unwrap();
        assert!((ys[0] - 1.1).abs() < 1e-9, "avg {}", ys[0]);
    }

    #[test]
    fn figure6_style_binned_table() {
        let p = Profile::standard();
        let specs = parse_program(
            r#"table name=fig6 condition=(interesting)
               x=("node", node) x=("bin", bin(start, 3))
               y=("sum(duration)", dura, sum)"#,
        )
        .unwrap();
        let tables = run_tables(&specs, &p, &stream(&p)).unwrap();
        let t = &tables[0];
        // Span is [0, 3.2) s; 3 bins of ~1.067 s. Barriers start at
        // 0, 1, 2 s → bins 0, 0, 1 per cpu... compute: bin = floor(start/span*3).
        // span_end = max end = 3.2 (2s + 0.3? no: running ends at 3.0;
        // barrier at 2 s lasts .3 → 2.3; span_end = 3.0). bin width 1.0.
        // starts 0→bin0, 1→bin1, 2→bin2.
        for node in 0..2 {
            for bin in 0..3 {
                let ys = t.row(&[node as f64, bin as f64]).unwrap();
                let expect = 2.0 * (0.1 + 0.1 * bin as f64); // two cpus
                assert!(
                    (ys[0] - expect).abs() < 1e-9,
                    "node {node} bin {bin}: {} vs {expect}",
                    ys[0]
                );
            }
        }
    }

    #[test]
    fn count_and_minmax() {
        let p = Profile::standard();
        let specs = parse_program(
            r#"table name=t condition=(interesting)
               y=("n", dura, count) y=("min", dura, min) y=("max", dura, max)"#,
        )
        .unwrap();
        let tables = run_tables(&specs, &p, &stream(&p)).unwrap();
        let t = &tables[0];
        let ys = t.row(&[]).unwrap();
        assert_eq!(ys[0], 12.0);
        assert!((ys[1] - 0.1).abs() < 1e-9);
        assert!((ys[2] - 0.3).abs() < 1e-9);
    }

    #[test]
    fn empty_stream_gives_empty_tables() {
        let p = Profile::standard();
        let specs = parse_program(r#"table name=t y=("n", dura, count)"#).unwrap();
        let tables = run_tables(&specs, &p, &[]).unwrap();
        assert!(tables[0].rows.is_empty());
    }
}
