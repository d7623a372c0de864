//! The raw byte path: records stay bytes from the cut to the matcher.
//!
//! - `Simulator::run_bytes` hands over each node's file exactly as
//!   `Simulator::run`'s decoded `RawTraceFile::to_bytes` writes it, under
//!   every buffer mode, fault and start option the trace buffer has.
//! - Converting views over a file's bytes gives the bytes, stats and
//!   error text that converting decoded events gives
//!   (`convert_job_pooled`, the owned route, is the oracle), strict and
//!   salvaged, clean and damaged.
//! - Cutting and converting allocate less than once per ten records: a
//!   counting global allocator, armed on this thread only, counts them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ute::cluster::{ClusterConfig, JobProgram, Simulator};
use ute::convert::{convert_job_pooled, convert_nodes, ConvertOptions, ConvertOutput};
use ute::core::error::Result;
use ute::core::time::LocalTime;
use ute::faults::FaultPlan;
use ute::format::profile::Profile;
use ute::format::thread_table::ThreadTable;
use ute::rawtrace::buffer::BufferMode;
use ute::rawtrace::file::{RawTraceFile, HEADER_LEN};
use ute::rawtrace::view::{salvage_views, RawTraceView};
use ute::scenario::{generate, ScenarioSpec};
use ute_workloads::{flash, micro, patterns, scaling, sppm};

struct CountingAlloc;

thread_local! {
    /// Whether this thread's allocations are being counted, and how many.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
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
    (out, ALLOCS.with(Cell::get))
}

/// Every shape the trace buffer can be driven through: the stock
/// workloads (`scaling` small), generated scenarios, the seeded fault
/// plans, an explicit dropped flush and clock jump on a buffer small
/// enough to flush often, single-buffer mode that fills, and a delayed
/// start.
fn cases() -> Vec<(String, ClusterConfig, JobProgram)> {
    let mut cases: Vec<(String, ClusterConfig, JobProgram)> = [
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
    .map(|w| (w.name.to_string(), w.config, w.job))
    .collect();
    for (name, spec) in [
        ("scenario:7", ScenarioSpec::from_seed(7)),
        ("scenario:42", ScenarioSpec::from_seed(42)),
        ("torture:7", ScenarioSpec::torture(7)),
    ] {
        let sc = generate(&spec).unwrap();
        cases.push((name.to_string(), sc.config, sc.job));
    }
    let base = scaling::scaled_job(200);
    let mut with = |name: &str, edit: &dyn Fn(&mut ClusterConfig)| {
        let mut cfg = base.config.clone();
        edit(&mut cfg);
        cases.push((name.to_string(), cfg, base.job.clone()));
    };
    for seed in 1..=3 {
        with(&format!("fault seed {seed}"), &|c| {
            c.trace.faults = Some(FaultPlan::from_seed(seed, c.nodes));
        });
    }
    with("dropflush + clockjump", &|c| {
        c.trace.buffer_size = 2048;
        c.trace.faults = Some(
            FaultPlan::parse("0:dropflush@0,1:dropflush@3,1:clockjump@40+7000,2:clockjump@0+-500")
                .unwrap(),
        );
    });
    with("stop when full", &|c| {
        c.trace.buffer_size = 4096;
        c.trace.mode = BufferMode::StopWhenFull;
    });
    with("delayed start", &|c| {
        c.trace.start_after = Some(LocalTime(2_000_000));
    });
    cases
}

#[test]
fn the_bytes_entry_point_writes_what_the_decoded_files_encode_to() {
    for (name, cfg, job) in cases() {
        let bytes = Simulator::new(cfg.clone(), &job)
            .unwrap()
            .run_bytes()
            .unwrap();
        let decoded = Simulator::new(cfg, &job).unwrap().run().unwrap();
        assert_eq!(bytes.raw_bytes.len(), decoded.raw_files.len(), "{name}");
        for (n, (raw, file)) in bytes.raw_bytes.iter().zip(&decoded.raw_files).enumerate() {
            assert_eq!(*raw, file.to_bytes().unwrap(), "{name}: node {n}");
        }
        assert_eq!(bytes.stats.events_cut, decoded.stats.events_cut, "{name}");
    }
}

/// A conversion's observable result: each node's interval file and
/// stats, or the error's text.
fn outcome(r: Result<Vec<ConvertOutput>>) -> std::result::Result<Vec<(Vec<u8>, String)>, String> {
    r.map(|outs| {
        outs.into_iter()
            .map(|o| (o.interval_file, format!("{:?} {:?}", o.node, o.stats)))
            .collect()
    })
    .map_err(|e| e.to_string())
}

/// Converts `files` over views and over decoded events, strictly and
/// salvaged, and requires the same outcome from both routes.
fn views_agree_with_owned(what: &str, files: &[Vec<u8>], threads: &ThreadTable) {
    let profile = Profile::standard();
    for salvage in [false, true] {
        let opts = ConvertOptions {
            lenient: salvage,
            salvage,
            ..ConvertOptions::default()
        };
        let (viewed, owned) = if salvage {
            let views: Vec<_> = files.iter().filter_map(|b| salvage_views(b).ok()).collect();
            let owned: Vec<_> = files
                .iter()
                .filter_map(|b| RawTraceFile::from_bytes_salvage(b).ok())
                .map(|(f, _)| f)
                .collect();
            (
                convert_nodes(&views, threads, &profile, &opts, 2),
                convert_job_pooled(&owned, threads, &profile, &opts, 2),
            )
        } else {
            let views: Result<Vec<_>> = files.iter().map(|b| RawTraceView::open(b)).collect();
            let owned: Result<Vec<_>> = files.iter().map(|b| RawTraceFile::from_bytes(b)).collect();
            match (views, owned) {
                (Ok(v), Ok(o)) => (
                    convert_nodes(&v, threads, &profile, &opts, 2),
                    convert_job_pooled(&o, threads, &profile, &opts, 2),
                ),
                (v, o) => {
                    let text = |r: Result<Vec<_>>| r.err().map(|e| e.to_string());
                    assert_eq!(
                        text(v.map(|_| Vec::<()>::new())),
                        text(o.map(|_| Vec::new()))
                    );
                    continue;
                }
            }
        };
        assert_eq!(outcome(viewed), outcome(owned), "{what}, salvage {salvage}");
    }
}

#[test]
fn converting_views_equals_converting_decoded_events() {
    for (name, cfg, job) in cases() {
        let run = Simulator::new(cfg, &job).unwrap().run_bytes().unwrap();
        views_agree_with_owned(&name, &run.raw_bytes, &run.threads);
        let nodes = run.raw_bytes.len() as u16;
        for seed in 1..=3 {
            let plan = FaultPlan::byte_level_from_seed(seed, nodes);
            let damaged: Vec<Vec<u8>> = (0u16..)
                .zip(&run.raw_bytes)
                .filter_map(|(n, b)| plan.apply_to_file(n, b.clone(), HEADER_LEN))
                .collect();
            views_agree_with_owned(&format!("{name} [{plan}]"), &damaged, &run.threads);
        }
    }
}

#[test]
fn cutting_and_converting_allocate_less_than_once_per_ten_records() {
    let w = scaling::scaled_job(3000);
    let profile = Profile::standard();
    let (run, cut) = allocations(|| {
        Simulator::new(w.config, &w.job)
            .unwrap()
            .run_bytes()
            .unwrap()
    });
    let opts = ConvertOptions {
        lenient: true,
        salvage: true,
        ..ConvertOptions::default()
    };
    let (outputs, convert) = allocations(|| {
        let views: Vec<_> = run
            .raw_bytes
            .iter()
            .map(|b| salvage_views(b).unwrap())
            .collect();
        convert_nodes(&views, &run.threads, &profile, &opts, 1).unwrap()
    });
    assert_eq!(outputs.len(), 4);
    let records = run.stats.events_cut;
    let per_record = (cut + convert) as f64 / records as f64;
    assert!(
        per_record < 0.1,
        "{cut} allocations cutting + {convert} converting {records} records: {per_record:.3} per record"
    );
}
