//! The read path against its references: records read in place
//! ([`ute::format::RecordView`]) must be the records the reference
//! decoder decodes, wherever a consumer stands on them — the analyze
//! table load, the compiled statistics programs, the clock fit — and
//! must fail where it fails, in its words. Statistics over a merged
//! file's records where they lie allocate less than once per fifty
//! records: a counting global allocator, armed on one thread, counts.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell as Counted;
use std::collections::BTreeMap;
use std::path::PathBuf;

use proptest::prelude::*;
use ute::analyze::{load_table, LoadOptions, TraceTable};
use ute::clock::ratio::RatioEstimator;
use ute::core::error::{Result, UteError};
use ute::core::ids::{CpuId, LogicalThreadId, NodeId};
use ute::core::time::TICKS_PER_SEC;
use ute::format::file::{FramePolicy, IntervalFileReader, IntervalFileWriter, MERGED_NODE};
use ute::format::frame::{FrameEntry, NO_DIR};
use ute::format::plan::PlanSet;
use ute::format::profile::{Profile, MASK_PER_NODE};
use ute::format::record::{Interval, IntervalType};
use ute::format::state::StateCode;
use ute::format::thread_table::ThreadTable;
use ute::format::value::Value;
use ute::merge::clockfit::{extract_clock_samples, fit_node, fit_node_intervals};
use ute::stats::expr::{BinOp, EvalContext, Expr};
use ute::stats::predefined::predefined_tables;
use ute::stats::table::{Agg, Cell, Key, Table, TableSpec};
use ute::stats::{parse_program, run_tables, run_tables_over};

use ute::cluster::{ClusterConfig, JobProgram, Simulator};
use ute::convert::{convert_job_pooled, ConvertOptions};
use ute::format::datatype::FieldType;
use ute::format::profile::{FieldSpec, RecordSpec, MASK_MERGED};
use ute::format::{Record, RecordFields, Retimed};
use ute::merge::{merge_files, MergeOptions};
use ute::scenario::{generate, ScenarioSpec};
use ute_workloads::{flash, micro, patterns, scaling, sppm};

use common::{random_file, random_interval, Rng};

struct CountingAlloc;

thread_local! {
    /// Whether this thread's allocations are being counted, and how many.
    static ARMED: Counted<bool> = const { Counted::new(false) };
    static ALLOCS: Counted<u64> = const { Counted::new(0) };
}

fn count() {
    // Const-initialized, no destructor: safe to touch from the allocator.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations this thread makes inside `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, ALLOCS.with(Counted::get))
}

/// Every record of a file through the reference decoder alone.
fn reference_intervals(bytes: &[u8], p: &Profile) -> Result<Vec<Interval>> {
    let r = IntervalFileReader::open(bytes, p)?;
    let node = NodeId(if r.node == MERGED_NODE { 0 } else { r.node });
    r.record_bodies()
        .map(|body| Interval::decode_body(p, r.mask, body?, node))
        .collect()
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ute_read_path_{name}_{}", std::process::id()))
}

fn assert_tables_equal(a: &TraceTable, b: &TraceTable) {
    assert_eq!(a.state, b.state);
    assert_eq!(a.bebits, b.bebits);
    assert_eq!(a.start, b.start);
    assert_eq!(a.duration, b.duration);
    assert_eq!(a.cpu, b.cpu);
    assert_eq!(a.node, b.node);
    assert_eq!(a.thread, b.thread);
    assert_eq!(a.rank, b.rank);
    assert_eq!(a.peer, b.peer);
    assert_eq!(a.seq, b.seq);
    assert_eq!(a.bytes, b.bytes);
    assert_eq!(a.marker_id, b.marker_id);
    assert_eq!(a.markers, b.markers);
}

// ---- the statistics evaluator as it was before programs were compiled:
// ---- every field of every expression matched by name, per record.

fn reference_eval(e: &Expr, ctx: &EvalContext, p: &Profile, iv: &Interval) -> Result<f64> {
    let truthy = |v: f64| v != 0.0;
    Ok(match e {
        Expr::Num(v) => *v,
        Expr::Field(name) => match name.as_str() {
            "start" => iv.start as f64 / TICKS_PER_SEC as f64,
            "dura" | "duration" => iv.duration as f64 / TICKS_PER_SEC as f64,
            "end" => iv.end() as f64 / TICKS_PER_SEC as f64,
            "node" => iv.node.raw() as f64,
            "cpu" | "processor" => iv.cpu.raw() as f64,
            "thread" => iv.thread.raw() as f64,
            "recType" => iv.itype.to_u32() as f64,
            "state" => iv.itype.state.0 as f64,
            "interesting" => iv.itype.state.is_interesting() as u8 as f64,
            other => iv
                .extra(p, other)
                .and_then(|v| v.as_float())
                .ok_or_else(|| {
                    UteError::NotFound(format!("field {other} on a {} record", iv.itype.state))
                })?,
        },
        Expr::Neg(e) => -reference_eval(e, ctx, p, iv)?,
        Expr::TimeBin(e, n) => {
            let t = reference_eval(e, ctx, p, iv)?;
            let span = (ctx.span_end - ctx.span_start).max(f64::MIN_POSITIVE);
            (((t - ctx.span_start) / span * *n as f64).floor()).clamp(0.0, *n as f64 - 1.0)
        }
        Expr::Bin(op, a, b) => {
            let x = reference_eval(a, ctx, p, iv)?;
            match op {
                BinOp::And => (truthy(x) && truthy(reference_eval(b, ctx, p, iv)?)) as u8 as f64,
                BinOp::Or => (truthy(x) || truthy(reference_eval(b, ctx, p, iv)?)) as u8 as f64,
                _ => {
                    let y = reference_eval(b, ctx, p, iv)?;
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

fn reference_run_tables(specs: &[TableSpec], p: &Profile, ivs: &[Interval]) -> Result<Vec<Table>> {
    let ctx = EvalContext {
        span_start: ivs.iter().map(|iv| iv.start).min().unwrap_or(0) as f64 / TICKS_PER_SEC as f64,
        span_end: ivs.iter().map(|iv| iv.end()).max().unwrap_or(0).max(1) as f64
            / TICKS_PER_SEC as f64,
    };
    let mut acc: Vec<BTreeMap<Vec<Key>, Vec<Cell>>> =
        specs.iter().map(|_| BTreeMap::new()).collect();
    for iv in ivs {
        if iv.itype.state == StateCode::CLOCK || iv.itype.state == StateCode::GAP {
            continue;
        }
        for (spec, groups) in specs.iter().zip(&mut acc) {
            if let Some(cond) = &spec.condition {
                match reference_eval(cond, &ctx, p, iv) {
                    Ok(v) if v != 0.0 => {}
                    Ok(_) | Err(UteError::NotFound(_)) => continue,
                    Err(e) => return Err(e),
                }
            }
            let mut key = Vec::new();
            for (_, e) in &spec.xs {
                key.push(Key(reference_eval(e, &ctx, p, iv)?));
            }
            let cells = groups
                .entry(key)
                .or_insert_with(|| vec![Cell::default(); spec.ys.len()]);
            for ((_, e, _), cell) in spec.ys.iter().zip(cells) {
                cell.add(reference_eval(e, &ctx, p, iv)?);
            }
        }
    }
    Ok(specs
        .iter()
        .zip(acc)
        .map(|(spec, groups)| Table {
            name: spec.name.clone(),
            x_labels: spec.xs.iter().map(|(l, _)| l.clone()).collect(),
            y_labels: spec.ys.iter().map(|(l, _, _)| l.clone()).collect(),
            rows: groups
                .into_iter()
                .map(|(k, cells)| {
                    let ys = spec.ys.iter().zip(cells).map(|((_, _, a), c)| c.finish(*a));
                    (k, ys.collect())
                })
                .collect(),
        })
        .collect())
}

/// Fields every record has, fields only some record types have, and one
/// no profile knows.
const ALWAYS: &[&str] = &[
    "start",
    "dura",
    "duration",
    "end",
    "node",
    "cpu",
    "processor",
    "thread",
    "recType",
    "state",
    "interesting",
];
const SOMETIMES: &[&str] = &[
    "rank",
    "peer",
    "tag",
    "msgSizeSent",
    "msgSizeRecvd",
    "seq",
    "markerId",
    "address",
    "reqSeqs",
    "globalTime",
    "bogus",
];

fn random_expr(rng: &mut Rng, depth: u32, fields: &[&str]) -> Expr {
    let leaf = depth == 0 || rng.below(3) == 0;
    if leaf {
        return match rng.below(3) {
            0 => Expr::Num(rng.below(300) as f64 / 4.0),
            _ => Expr::field(rng.pick(fields)),
        };
    }
    let sub = |rng: &mut Rng| Box::new(random_expr(rng, depth - 1, fields));
    match rng.below(8) {
        0 => Expr::Neg(sub(rng)),
        1 => Expr::TimeBin(sub(rng), 1 + rng.below(20) as u32),
        _ => {
            let op = rng.pick(&[
                BinOp::Or,
                BinOp::And,
                BinOp::Eq,
                BinOp::Ne,
                BinOp::Lt,
                BinOp::Le,
                BinOp::Gt,
                BinOp::Ge,
                BinOp::Add,
                BinOp::Sub,
                BinOp::Mul,
                BinOp::Div,
            ]);
            Expr::Bin(op, sub(rng), sub(rng))
        }
    }
}

fn random_spec(rng: &mut Rng, name: &str) -> TableSpec {
    let any: Vec<&str> = ALWAYS.iter().chain(SOMETIMES).copied().collect();
    // Mostly programs that run — a condition may name any field (a
    // record lacking it is skipped), x and y only fields the condition
    // does not guard — and now and then one whose x or y reaches for a
    // field a record lacks, which must fail the run with the same error.
    let xy: &[&str] = if rng.below(4) == 0 { &any } else { ALWAYS };
    let aggs = [Agg::Avg, Agg::Sum, Agg::Count, Agg::Min, Agg::Max];
    TableSpec {
        name: name.into(),
        condition: (rng.below(4) != 0).then(|| random_expr(rng, 3, &any)),
        xs: (0..rng.below(3))
            .map(|i| (format!("x{i}"), random_expr(rng, 1, xy)))
            .collect(),
        ys: (0..1 + rng.below(3))
            .map(|i| (format!("y{i}"), random_expr(rng, 2, xy), rng.pick(&aggs)))
            .collect(),
    }
}

fn assert_same_tables(specs: &[TableSpec], p: &Profile, ivs: &[Interval]) {
    match (
        run_tables(specs, p, ivs),
        reference_run_tables(specs, p, ivs),
    ) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.len(), b.len());
            for (a, b) in a.iter().zip(&b) {
                // NaN cells (0/0) compare by bits, as the TSV prints them.
                assert_eq!(a.to_tsv(), b.to_tsv());
                assert_eq!(a.rows.len(), b.rows.len());
            }
        }
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
        (a, b) => panic!(
            "compiled {:?} but reference {:?}",
            a.map(|t| t.len()),
            b.map(|t| t.len())
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A table loaded through views is the table built from the
    /// reference decode of the same file, filtered the same way — under
    /// both masks, with vectors and markers in the stream, at any frame
    /// size, for any window and node range.
    #[test]
    fn view_loaded_table_equals_reference_decoded_table(
        seed in any::<u64>(),
        merged in any::<bool>(),
        n in 0usize..300,
        window in any::<bool>(),
        nodes in any::<bool>(),
    ) {
        let p = Profile::standard();
        let mut rng = Rng(seed | 1);
        let bytes = random_file(&mut rng, &p, merged, n);
        let path = tmp(&format!("table_{seed:x}.ivl"));
        std::fs::write(&path, &bytes).unwrap();
        let opts = LoadOptions {
            window: window.then(|| {
                let (a, b) = (rng.below(1 << 20), rng.below(1 << 20));
                (a.min(b), a.max(b))
            }),
            nodes: nodes.then(|| {
                let (a, b) = (rng.below(6) as u16, rng.below(6) as u16);
                (a.min(b), a.max(b))
            }),
        };
        let loaded = load_table(&path, &p, &opts);
        std::fs::remove_file(&path).ok();
        let loaded = loaded.unwrap();

        let reference: Vec<Interval> = reference_intervals(&bytes, &p)
            .unwrap()
            .into_iter()
            .filter(|iv| opts.admits(iv.start, iv.end(), iv.node.raw()))
            .collect();
        let expected = TraceTable::from_intervals(&p, &reference, vec![(1, "Phase".into())]);
        assert_tables_equal(&loaded, &expected);
    }

    /// Every reader entry point yields the reference decoder's records,
    /// and a view exists for exactly the bodies it accepts — also after a
    /// byte of the body is damaged.
    #[test]
    fn readers_and_views_agree_with_the_reference_decoder(
        seed in any::<u64>(),
        merged in any::<bool>(),
        n in 1usize..120,
    ) {
        let p = Profile::standard();
        let mut rng = Rng(seed | 1);
        let bytes = random_file(&mut rng, &p, merged, n);
        let reference = reference_intervals(&bytes, &p).unwrap();
        let r = IntervalFileReader::open(&bytes, &p).unwrap();
        let fast: Vec<Interval> = r.intervals().map(|iv| iv.unwrap()).collect();
        prop_assert_eq!(&fast, &reference);
        let viewed: Vec<Interval> = r.records().map(|rec| rec.unwrap().into_interval()).collect();
        prop_assert_eq!(&viewed, &reference);

        let mut framed = Vec::new();
        for dir in r.directories() {
            for entry in &dir.unwrap().entries {
                r.frame_records(entry, |rec| framed.push(rec.into_interval())).unwrap();
            }
        }
        prop_assert_eq!(&framed, &reference);

        let plans = PlanSet::build(&p, r.mask);
        let node = NodeId(if merged { 0 } else { 3 });
        for body in r.record_bodies() {
            let mut body = body.unwrap().to_vec();
            for round in 0..4 {
                let decoded = Interval::decode_body(&p, r.mask, &body, node);
                match plans.view(&body, node) {
                    Some(v) => prop_assert_eq!(Ok(v.to_interval()), decoded.map_err(|e| e.to_string())),
                    None => prop_assert!(decoded.is_err(), "no view of a body that decodes"),
                }
                if body.is_empty() {
                    break;
                }
                let at = rng.below(body.len() as u64) as usize;
                match round {
                    0 => body[at] ^= 1 << rng.below(8),
                    1 => body.push(0),
                    _ => body.truncate(at),
                }
            }
        }
    }

    /// Compiled programs produce the tables (or the error) the
    /// name-matching evaluator produced, on programs that name fields
    /// some record types lack.
    #[test]
    fn compiled_programs_equal_the_name_matching_evaluator(seed in any::<u64>(), n in 0usize..200) {
        let p = Profile::standard();
        let mut rng = Rng(seed | 1);
        let ivs: Vec<Interval> = (0..n)
            .map(|_| {
                let node = rng.below(4) as u16;
                random_interval(&mut rng, &p, node)
            })
            .collect();
        let specs: Vec<TableSpec> = (0..1 + rng.below(3))
            .map(|i| random_spec(&mut rng, &format!("t{i}")))
            .collect();
        assert_same_tables(&specs, &p, &ivs);
    }
}

#[test]
fn predefined_and_benchmark_programs_equal_the_name_matching_evaluator() {
    let p = Profile::standard();
    let mut rng = Rng(0x5eed);
    let ivs: Vec<Interval> = (0..4000)
        .map(|_| {
            let node = rng.below(4) as u16;
            random_interval(&mut rng, &p, node)
        })
        .collect();
    assert_same_tables(&predefined_tables(), &p, &ivs);
    let custom = parse_program(
        r#"table name=sent condition=(state >= 256 && msgSizeSent > 0)
                 x=("node", node) x=("thread", thread)
                 y=("bytes", msgSizeSent, sum) y=("avg", msgSizeSent, avg)
           table name=markers condition=(markerId > 0) x=("m", markerId) y=("n", dura, count)"#,
    )
    .unwrap();
    assert_same_tables(&custom, &p, &ivs);
    // An x that a selected record lacks is an error, and the same one.
    let bad = parse_program(r#"table name=t x=("peer", peer) y=("n", dura, count)"#).unwrap();
    assert!(run_tables(&bad, &p, &ivs).is_err());
    assert_same_tables(&bad, &p, &ivs);
}

/// A per-node file of RUNNING/Send/Waitall records with a clock record
/// every few, as the converter writes them.
fn clocked_file(p: &Profile) -> Vec<u8> {
    let mut rng = Rng(0xc10c);
    let mut w = IntervalFileWriter::new(
        p,
        MASK_PER_NODE,
        3,
        &ThreadTable::new(),
        &[],
        FramePolicy {
            max_records_per_frame: 16,
            max_frames_per_dir: 4,
        },
    );
    for i in 0..400u64 {
        let mut iv = random_interval(&mut rng, p, 3);
        while iv.itype.state == StateCode::CLOCK {
            iv = random_interval(&mut rng, p, 3);
        }
        iv.start = i * 1000;
        iv.duration = 500;
        w.push(&iv).unwrap();
        if i % 10 == 0 {
            let clock = Interval::basic(
                IntervalType::complete(StateCode::CLOCK),
                i * 1000 + 600,
                0,
                CpuId(0),
                NodeId(3),
                LogicalThreadId(0),
            )
            .with_extra(p, "globalTime", Value::Uint(7_000 + i * 1001));
            w.push(&clock).unwrap();
        }
    }
    w.finish()
}

#[test]
fn clock_fit_reads_only_clock_records_but_validates_all() {
    let p = Profile::standard();
    let bytes = clocked_file(&p);
    let r = IntervalFileReader::open(&bytes, &p).unwrap();
    let reference = reference_intervals(&bytes, &p).unwrap();
    let expected =
        fit_node_intervals(3, &reference, &p, RatioEstimator::RmsSegments, true).unwrap();
    let got = fit_node(&r, &p, RatioEstimator::RmsSegments, true).unwrap();
    assert_eq!(got.samples_used, expected.samples_used);
    assert_eq!(got.max_residual, expected.max_residual);
    assert_eq!(got.fit.ratio().to_bits(), expected.fit.ratio().to_bits());
    assert_eq!(extract_clock_samples(&r, &p).unwrap().len(), 40);

    // Damage one record that is not a clock record, three ways; the fit
    // must fail, with the error a full reference decode of the file
    // stops at.
    let victims: Vec<(usize, usize)> = r
        .record_bodies()
        .map(|b| b.unwrap())
        .filter(|b| {
            Interval::decode_body(&p, r.mask, b, NodeId(3))
                .unwrap()
                .itype
                .state
                != StateCode::CLOCK
        })
        .map(|b| (b.as_ptr() as usize - bytes.as_ptr() as usize, b.len()))
        .collect();
    let mut damaged = 0;
    for (k, &(at, len)) in victims.iter().enumerate().step_by(37) {
        let mut bad = bytes.clone();
        match k % 3 {
            0 => bad[at + 2] = 0x7f, // a type word outside the state space
            1 => bad[at] ^= 1,       // other bebits: still a record type
            // Byte 28 is the low byte of `reqSeqs`' counter in a Waitall
            // record, a payload byte in any other.
            _ => bad[at + 28.min(len - 1)] ^= 1,
        }
        let r = IntervalFileReader::open(&bad, &p).unwrap();
        let reference = reference_intervals(&bad, &p);
        let fit = fit_node(&r, &p, RatioEstimator::RmsSegments, true);
        match (reference, fit) {
            (Err(want), Err(got)) => {
                assert_eq!(got.to_string(), want.to_string());
                damaged += 1;
            }
            (Ok(_), Ok(_)) => {} // the damage left a valid record behind
            (want, got) => panic!(
                "record at {at}: reference {:?}, fit {:?}",
                want.map(|v| v.len()),
                got.map(|f| f.samples_used)
            ),
        }
    }
    assert!(
        damaged >= 3,
        "only {damaged} damaged files failed to decode"
    );
}

#[test]
fn clockfit_command_prints_what_the_reference_decode_fits() {
    let dir = tmp("clockfit_cli");
    std::fs::create_dir_all(&dir).unwrap();
    let argv = |t: &[&str]| t.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    ute::cli::run(&argv(&[
        "pipeline",
        "--workload",
        "stencil",
        "--out",
        dir.to_str().unwrap(),
    ]))
    .unwrap();
    let printed = ute::cli::run(&argv(&["clockfit", "--in", dir.to_str().unwrap()])).unwrap();
    let p = Profile::read_from(&dir.join("profile.ute")).unwrap();
    let mut expected = String::new();
    for node in 0.. {
        let Ok(bytes) = std::fs::read(dir.join(format!("trace.{node}.ivl"))) else {
            break;
        };
        let ivs = reference_intervals(&bytes, &p).unwrap();
        let nf = fit_node_intervals(node, &ivs, &p, RatioEstimator::RmsSegments, true).unwrap();
        let r = nf.fit.ratio();
        expected.push_str(&format!(
            "node {}: ratio {:.9} (drift {:+.3} ppm), {} samples\n",
            nf.node,
            r,
            (1.0 / r - 1.0) * 1e6,
            nf.samples_used,
        ));
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(expected.lines().count() >= 2, "{expected}");
    assert_eq!(printed, expected);
}

#[test]
fn both_readers_check_a_frame_against_its_entry() {
    let p = Profile::standard();
    let bytes = random_file(&mut Rng(77), &p, true, 200);
    let r = IntervalFileReader::open(&bytes, &p).unwrap();
    let dir = r.read_frame_dir(NO_DIR).unwrap();
    let entry = *dir.entries.iter().find(|e| e.nrecords > 1).unwrap();
    let mut walked = Vec::new();
    r.frame_records(&entry, |rec| walked.push(rec.into_interval()))
        .unwrap();
    assert_eq!(r.frame_intervals(&entry).unwrap(), walked);
    let wrong = [
        FrameEntry {
            nrecords: entry.nrecords - 1,
            ..entry
        },
        FrameEntry {
            size: entry.size + 1,
            ..entry
        },
    ];
    for e in &wrong {
        let expect = format!(
            "frame size disagrees with its records at byte {}",
            entry.offset
        );
        let a = r.frame_records(e, |_| {}).unwrap_err().to_string();
        let b = r.frame_intervals(e).unwrap_err().to_string();
        assert!(a.contains(&expect), "{a}");
        assert!(b.contains(&expect), "{b}");
    }
}

/// `query4`'s statistics program: three tables, one binned over the span.
const QUERY4_PROGRAM: &str = r#"
table name=mpi_time_by_node condition=(state >= 256)
      x=("node", node) y=("calls", dura, count) y=("time", dura, sum)
table name=busy_by_node_bin condition=(interesting)
      x=("node", node) x=("bin", bin(start, 20))
      y=("time", dura, sum) y=("longest", dura, max)
table name=sent_by_thread condition=(state >= 256 && msgSizeSent > 0)
      x=("node", node) x=("thread", thread)
      y=("bytes", msgSizeSent, sum) y=("avg", msgSizeSent, avg)
"#;

/// An `x` every record type without a `peer` fails.
const MISSING_X_PROGRAM: &str = r#"table name=t x=("peer", peer) y=("n", dura, count)"#;

/// The merged file `ute merge` makes of one simulated run, with the
/// per-node file of `drop` missing (a salvaged merge: a GAP record
/// leads the stream).
fn merged_file(cfg: ClusterConfig, job: &JobProgram, drop: Option<usize>) -> Vec<u8> {
    let run = Simulator::new(cfg, job).unwrap().run().unwrap();
    let p = Profile::standard();
    let converted = convert_job_pooled(
        &run.raw_files,
        &run.threads,
        &p,
        &ConvertOptions::default(),
        1,
    )
    .unwrap();
    let files: Vec<&[u8]> = converted
        .iter()
        .enumerate()
        .filter(|(n, _)| Some(*n) != drop)
        .map(|(_, c)| c.interval_file.as_slice())
        .collect();
    let opts = MergeOptions {
        salvage: drop.is_some(),
        gap_nodes: drop.map(|n| n as u16).into_iter().collect(),
        ..MergeOptions::default()
    };
    merge_files(&files, &p, &opts).unwrap().merged
}

/// Every stock workload's merged file, `scenario:7`'s, and a salvaged
/// merge with a node missing.
fn merged_corpus() -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = [
        sppm::workload(sppm::SppmParams::default()),
        flash::workload(flash::FlashParams::default()),
        micro::ping_pong(32, 1 << 14),
        micro::stencil(4, 16, 1 << 12),
        micro::allreduce_sweep(4, 10),
        patterns::wavefront(6, 12, 4096),
        micro::sendrecv_shift(4, 12, 4096),
        patterns::master_worker(4, 8, 8192),
        micro::straggler(4, 8, 2, 4),
        scaling::scaled_job(200),
    ]
    .into_iter()
    .map(|w| (w.name.to_string(), merged_file(w.config, &w.job, None)))
    .collect();
    let sc = generate(&ScenarioSpec::from_seed(7)).unwrap();
    out.push(("scenario:7".into(), merged_file(sc.config, &sc.job, None)));
    let w = scaling::scaled_job(200);
    out.push((
        "node 1 missing".into(),
        merged_file(w.config, &w.job, Some(1)),
    ));
    out
}

/// Tables as the TSV they print as (NaN cells compare as printed), or
/// the error's text.
fn printed(r: Result<Vec<Table>>) -> std::result::Result<Vec<String>, String> {
    r.map(|ts| ts.iter().map(Table::to_tsv).collect())
        .map_err(|e| e.to_string())
}

#[test]
fn stats_over_record_views_equals_stats_over_decoded_records() {
    let p = Profile::standard();
    let programs = [
        ("predefined", predefined_tables()),
        ("query4", parse_program(QUERY4_PROGRAM).unwrap()),
        ("missing x", parse_program(MISSING_X_PROGRAM).unwrap()),
    ];
    let mut gaps = 0;
    for (name, merged) in merged_corpus() {
        let r = IntervalFileReader::open(&merged, &p).unwrap();
        let decoded: Vec<Interval> = r.intervals().map(|iv| iv.unwrap()).collect();
        gaps += decoded
            .iter()
            .filter(|iv| iv.itype.state == StateCode::GAP)
            .count();
        let span = r.time_span().unwrap();
        for (program, specs) in &programs {
            let what = format!("{name}, {program}");
            let viewed = printed(run_tables_over(specs, &p, span, || r.records()));
            assert_eq!(viewed, printed(run_tables(specs, &p, &decoded)), "{what}");
            let reference = reference_run_tables(specs, &p, &decoded);
            assert_eq!(viewed, printed(reference), "{what}");
            assert_eq!(viewed.is_err(), *program == "missing x", "{what}");
        }
        // A span the records do not have (a damaged directory): the tables
        // are made over the records' own.
        let specs = &programs[1].1;
        let viewed = run_tables_over(specs, &p, Some((0, 1)), || r.records());
        assert_eq!(
            printed(viewed),
            printed(run_tables(specs, &p, &decoded)),
            "{name}"
        );
    }
    assert_eq!(gaps, 1, "the salvaged merge leads with its GAP record");
}

#[test]
fn a_damaged_merged_file_fails_stats_with_its_decode_error_first() {
    let p = Profile::standard();
    let w = micro::stencil(4, 16, 1 << 12);
    let merged = merged_file(w.config, &w.job, None);
    let dir = tmp("cut_stats");
    std::fs::create_dir_all(&dir).unwrap();
    let (cut, profile) = (dir.join("cut.ivl"), dir.join("profile.ute"));
    std::fs::write(&cut, &merged[..merged.len() / 2]).unwrap();
    std::fs::write(&profile, p.to_bytes()).unwrap();
    let program = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path.to_str().unwrap().to_string()
    };
    let programs = [
        None,
        Some(program("missing_x.uts", MISSING_X_PROGRAM)),
        Some(program("query4.uts", QUERY4_PROGRAM)),
        Some(program("unparsable.uts", "table name=t x=(")),
        Some(dir.join("absent.uts").to_str().unwrap().to_string()),
    ];
    // The decode error of the whole file, named as `ute stats` names it.
    let r = IntervalFileReader::open(&merged[..merged.len() / 2], &p).unwrap();
    let decode = r
        .intervals()
        .find_map(Result::err)
        .expect("a cut file fails");
    let expected = decode.in_file(&cut).to_string();
    let specs = parse_program(MISSING_X_PROGRAM).unwrap();
    let viewed = run_tables_over(&specs, &p, r.time_span().ok().flatten(), || r.records());
    assert_eq!(
        viewed.unwrap_err().to_string(),
        r.intervals().find_map(Result::err).unwrap().to_string()
    );
    for program in &programs {
        let mut argv = vec!["stats", "--merged", cut.to_str().unwrap()];
        argv.extend(["--profile", profile.to_str().unwrap()]);
        if let Some(path) = program {
            argv.extend(["--program", path]);
        }
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let got = ute::cli::run(&argv).unwrap_err().to_string();
        assert_eq!(got, expected, "{program:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A profile holding, beside the standard types, one type with a field
/// of every scalar and vector kind a layout expresses.
fn every_kind_profile() -> Profile {
    let mut p = Profile::standard();
    let mut name = |n: &str| p.intern_field_name(n);
    let common: Vec<FieldSpec> = ["recType", "start", "dura", "cpu", "node", "thread"]
        .iter()
        .zip([
            FieldType::U32,
            FieldType::U64,
            FieldType::U64,
            FieldType::U16,
            FieldType::U16,
            FieldType::U16,
        ])
        .map(|(n, t)| FieldSpec::scalar(name(n), t))
        .collect();
    let mut fields = common;
    fields[4].select_bit = ute::format::profile::SELECT_NODE;
    fields.extend([
        FieldSpec::scalar(name("small"), FieldType::U8),
        FieldSpec::scalar(name("signed"), FieldType::I64),
        FieldSpec::scalar(name("weight"), FieldType::F64),
        FieldSpec::scalar(name("letter"), FieldType::Char),
        FieldSpec::vector(name("samples"), FieldType::F64, 1),
        FieldSpec::vector(name("label"), FieldType::Char, 2),
        // The same name twice: the first is the one read.
        FieldSpec::scalar(name("small"), FieldType::U8),
    ]);
    let name_idx = p.intern_record_name("EveryKind");
    p.add_record(RecordSpec {
        itype: IntervalType::complete(StateCode(0x7e)),
        name_idx,
        fields,
    });
    p
}

/// A record of type `spec` with every field set from `rng`.
fn record_of(rng: &mut Rng, spec: &RecordSpec) -> Interval {
    let mut iv = Interval::basic(
        spec.itype,
        rng.below(1 << 30),
        rng.below(1 << 20),
        CpuId(rng.below(8) as u16),
        NodeId(rng.below(4) as u16),
        LogicalThreadId(rng.below(4) as u16),
    );
    for f in spec.fields.iter().skip(6) {
        let v = match (f.vector, f.ftype) {
            (false, FieldType::I64) => Value::Int(rng.next() as i64),
            (false, FieldType::F64) => Value::Float(rng.below(1 << 40) as f64 / 7.0),
            (false, t) => Value::Uint(rng.next() >> (64 - 8 * t.elem_len() as u32)),
            (true, FieldType::F64) => {
                Value::FloatVec((0..rng.below(4)).map(|i| i as f64).collect())
            }
            (true, FieldType::Char) => Value::Str("ω".repeat(rng.below(3) as usize).into()),
            (true, _) => Value::UintVec((0..rng.below(4)).collect()),
        };
        iv.extras.push((f.name_idx, v));
    }
    iv
}

#[test]
fn extra_f64_is_value_as_float_for_every_field_of_every_record_type() {
    for p in [Profile::standard(), every_kind_profile()] {
        let mut rng = Rng(0xf10a7);
        let mut ivs: Vec<Interval> = p
            .specs
            .values()
            .flat_map(|spec| [record_of(&mut rng, spec), record_of(&mut rng, spec)])
            .collect();
        ivs.sort_by_key(|iv| iv.end());
        let mut w = IntervalFileWriter::new(
            &p,
            MASK_MERGED,
            MERGED_NODE,
            &ThreadTable::new(),
            &[],
            FramePolicy::default(),
        );
        for iv in &ivs {
            w.push(iv).unwrap();
        }
        let bytes = w.finish();
        let r = IntervalFileReader::open(&bytes, &p).unwrap();
        let mut viewed = 0;
        for (rec, iv) in r.records().zip(&ivs) {
            let rec = rec.unwrap();
            viewed += matches!(rec, Record::View(_)) as usize;
            // The first extra of that name, as `Value::as_float` reads it.
            let expected = |idx: u16| {
                let (_, v) = iv.extras.iter().find(|(i, _)| *i == idx)?;
                v.as_float().map(f64::to_bits)
            };
            let bits = |got: Option<f64>| got.map(f64::to_bits);
            let names = 0..=p.field_names.len() as u16;
            for idx in names.clone() {
                let what = format!("{:?} field {idx}", iv.itype);
                assert_eq!(bits(iv.extra_f64(idx)), expected(idx), "Interval, {what}");
                assert_eq!(bits(rec.extra_f64(idx)), expected(idx), "Record, {what}");
                if let Record::View(v) = &rec {
                    assert_eq!(bits(v.extra_f64(idx)), expected(idx), "RecordView, {what}");
                }
            }
            let retimed = Retimed::new(rec, 1, 2);
            for idx in names {
                let what = format!("{:?} field {idx}", iv.itype);
                assert_eq!(
                    bits(retimed.extra_f64(idx)),
                    expected(idx),
                    "Retimed, {what}"
                );
            }
        }
        assert_eq!(viewed, ivs.len(), "every record of these types has a view");
    }
}

#[test]
fn stats_over_a_merged_file_allocate_less_than_once_per_fifty_records() {
    let p = Profile::standard();
    let w = scaling::scaled_job(3000);
    let merged = merged_file(w.config, &w.job, None);
    let r = IntervalFileReader::open(&merged, &p).unwrap();
    let records = r.total_records().unwrap();
    for specs in [predefined_tables(), parse_program(QUERY4_PROGRAM).unwrap()] {
        let (tables, allocs) = allocations(|| {
            let span = r.time_span().unwrap();
            run_tables_over(&specs, &p, span, || r.records()).unwrap()
        });
        assert!(!tables.is_empty());
        let per_record = allocs as f64 / records as f64;
        assert!(
            per_record < 0.02,
            "{allocs} allocations over {records} records: {per_record:.4} per record"
        );
    }
}
