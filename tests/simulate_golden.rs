//! Golden outputs of trace generation: what the simulator cuts for every
//! stock workload, a few generated scenarios, a seeded fault plan and a
//! synthetic job that runs every `Op`, as hashes recorded from the
//! commit before the MPI model became one call table (DESIGN "The MPI
//! call protocol"). This file passes in that commit's checkout too.

use ute::cluster::{ClusterConfig, JobProgram, Op, SimResult, Simulator, TaskProgram};
use ute::core::event::{EventCode, MpiOp};
use ute::core::time::Duration;
use ute::faults::FaultPlan;
use ute::format::codecio::thread_table_to_bytes;
use ute::scenario::{generate, ScenarioSpec};
use ute::store::fnv64;
use ute_workloads::{flash, micro, patterns, scaling, sppm, Workload};

/// One run's digest: fnv64 over every node's raw-file hash in node
/// order, the thread table's hash, and every `SimStats` field
/// `[end_time, events_cut, trace_overhead, messages, collectives,
/// dispatches]`.
type Digest = (u64, u64, [u64; 6]);

fn digest(res: &SimResult) -> Digest {
    let mut nodes = Vec::new();
    for f in &res.raw_files {
        nodes.extend_from_slice(&fnv64(&f.to_bytes().unwrap()).to_le_bytes());
    }
    let s = &res.stats;
    (
        fnv64(&nodes),
        fnv64(&thread_table_to_bytes(&res.threads)),
        [
            s.end_time.ticks(),
            s.events_cut,
            s.trace_overhead.ticks(),
            s.messages,
            s.collectives,
            s.dispatches,
        ],
    )
}

fn simulate(cfg: ClusterConfig, job: &JobProgram) -> SimResult {
    Simulator::new(cfg, job).unwrap().run().unwrap()
}

/// The stock workloads as `ute trace --workload NAME` builds them.
fn stock(name: &str) -> Workload {
    match name {
        "sppm" => sppm::workload(sppm::SppmParams::default()),
        "flash" => flash::workload(flash::FlashParams::default()),
        "pingpong" => micro::ping_pong(32, 1 << 14),
        "stencil" => micro::stencil(4, 16, 1 << 12),
        "allreduce" => micro::allreduce_sweep(4, 10),
        "wavefront" => patterns::wavefront(6, 12, 4096),
        "sendrecv" => micro::sendrecv_shift(4, 12, 4096),
        "masterworker" => patterns::master_worker(4, 8, 8192),
        "straggler" => micro::straggler(4, 8, 2, 4),
        "scaling" => scaling::scaled_job(400),
        other => unreachable!("{other}"),
    }
}

const STOCK: [&str; 10] = [
    "sppm",
    "flash",
    "pingpong",
    "stencil",
    "allreduce",
    "wavefront",
    "sendrecv",
    "masterworker",
    "straggler",
    "scaling",
];

#[test]
fn stock_workloads_trace_to_the_recorded_bytes() {
    #[rustfmt::skip]
    let recorded: &[Digest] = &[
        (13772178813613883015, 6230292422628053511, [48096000, 612, 237600, 64, 8, 84]),
        (6474904305674033246, 17019587761099050155, [435997662, 1172, 426400, 72, 26, 194]),
        (11480846322431286336, 1498238856387167617, [11682048, 400, 156800, 64, 0, 68]),
        (13327436845027836798, 17019587761099050155, [34288792, 808, 353600, 128, 0, 76]),
        (15516377146493630154, 16219116833317336527, [6493506, 192, 62400, 0, 10, 48]),
        (14072819739079435725, 8196357186783995701, [14774112, 344, 140800, 60, 0, 31]),
        (8106918434828041279, 16219116833317336527, [6013584, 256, 84800, 48, 2, 64]),
        (4178772896388714544, 9996022646957541459, [12780896, 427, 162200, 64, 0, 74]),
        (8403246327758882234, 16219116833317336527, [32629100, 190, 71600, 24, 2, 25]),
        (4753126139683494489, 6230292422628053511, [115004856, 16512, 6302400, 1600, 50, 3048]),
    ];
    let got = STOCK.map(|name| {
        let w = stock(name);
        digest(&simulate(w.config, &w.job))
    });
    assert_eq!(got[..], recorded[..]);
}

#[test]
fn scenarios_and_a_fault_plan_trace_to_the_recorded_bytes() {
    let specs = [
        ScenarioSpec::from_seed(7),
        ScenarioSpec::from_seed(42),
        ScenarioSpec::torture(7),
    ];
    let mut got: Vec<Digest> = specs
        .iter()
        .map(|spec| {
            let sc = generate(spec).unwrap();
            digest(&simulate(sc.config, &sc.job))
        })
        .collect();
    // `ute trace --workload scaling --fault-seed N`: the plan rides in
    // the trace options, so its buffer-level faults act during the run
    // (seed 1 drops a flush, seed 2 jumps two clocks, seed 3 has only
    // byte-level faults, which `ute trace` applies after the run).
    for seed in 1..=3 {
        let mut w = stock("scaling");
        w.config.trace.faults = Some(FaultPlan::from_seed(seed, w.config.nodes));
        got.push(digest(&simulate(w.config, &w.job)));
    }
    #[rustfmt::skip]
    let recorded: &[Digest] = &[
        (1522407318795856016, 1985790800392322845, [69212773, 245, 97600, 30, 2, 22]),
        (10184408229029898114, 9726261116955147093, [39691817, 1010, 386800, 182, 9, 163]),
        (9380593345114386063, 5584674406976275734, [105771027, 62276, 24970600, 10857, 2, 6859]),
        (11131576383988062744, 6230292422628053511, [115004856, 16512, 6302400, 1600, 50, 3048]),
        (13382380237967110030, 6230292422628053511, [115004856, 16512, 6302400, 1600, 50, 3048]),
        (4753126139683494489, 6230292422628053511, [115004856, 16512, 6302400, 1600, 50, 3048]),
    ];
    assert_eq!(got[..], recorded[..]);
}

/// Two single-CPU nodes, daemons on, a 1 ms quantum, two threads per
/// task, and an MPI thread that calls every `Op` at least once: a Recv
/// that has to block, Waits that may, nested markers, and Compute longer
/// than the quantum. No generator emits `Barrier`, `Wait { req }`,
/// `Alltoall`, `Scatter` or `Allgather`; this job does.
fn every_op() -> (ClusterConfig, JobProgram) {
    let cfg = ClusterConfig {
        nodes: 2,
        cpus_per_node: 1,
        tasks_per_node: 1,
        threads_per_task: 2,
        quantum: Duration::from_millis(1),
        daemons_per_node: 1,
        daemon_period: Duration::from_millis(3),
        clock_sample_period: Duration::from_millis(5),
        ..ClusterConfig::default()
    };
    let ms = Duration::from_millis;
    let job = JobProgram::spmd(2, |r| {
        let p = 1 - r;
        let mut ops = vec![
            Op::Init,
            Op::MarkerBegin("outer".into()),
            Op::Compute(ms(3)),
            Op::MarkerBegin("inner".into()),
            Op::Syscall,
            Op::PageFault,
            Op::Io(Duration::from_micros(200)),
            Op::MarkerEnd("inner".into()),
        ];
        // Rank 1 receives before rank 0 has sent: its Recv blocks.
        if r == 0 {
            ops.extend([
                Op::Compute(ms(5)),
                Op::Send {
                    to: 1,
                    bytes: 4096,
                    tag: 1,
                },
                Op::Recv { from: 1, tag: 2 },
            ]);
        } else {
            ops.extend([
                Op::Recv { from: 0, tag: 1 },
                Op::Send {
                    to: 0,
                    bytes: 2048,
                    tag: 2,
                },
            ]);
        }
        ops.extend([
            Op::Irecv { from: p, tag: 3 },
            Op::Isend {
                to: p,
                bytes: 1024,
                tag: 3,
            },
            Op::Wait { req: 0 },
            Op::Wait { req: 1 },
            Op::Irecv { from: p, tag: 4 },
            Op::Isend {
                to: p,
                bytes: 512,
                tag: 4,
            },
            Op::Waitall,
            Op::Sendrecv {
                to: p,
                from: p,
                bytes: 256,
                tag: 5,
            },
            Op::Barrier,
            Op::Bcast { root: 0, bytes: 64 },
            Op::Reduce { root: 1, bytes: 64 },
            Op::Allreduce { bytes: 8 },
            Op::Alltoall { bytes: 32 },
            Op::Gather { root: 0, bytes: 16 },
            Op::Scatter { root: 1, bytes: 16 },
            Op::Allgather { bytes: 8 },
            Op::MarkerEnd("outer".into()),
            Op::Finalize,
        ]);
        let worker = vec![
            Op::Compute(ms(4)),
            Op::PageFault,
            Op::Syscall,
            Op::Compute(ms(2)),
        ];
        TaskProgram::with_workers(ops, worker, 1)
    });
    (cfg, job)
}

#[test]
fn a_job_calling_every_op_traces_to_the_recorded_bytes() {
    let (cfg, job) = every_op();
    let res = simulate(cfg, &job);
    // Every MPI routine the job calls is cut as a BEGIN and an END on
    // both nodes, so the golden below reaches every arm of the model.
    let all = [
        MpiOp::Init,
        MpiOp::Finalize,
        MpiOp::Send,
        MpiOp::Recv,
        MpiOp::Isend,
        MpiOp::Irecv,
        MpiOp::Wait,
        MpiOp::Waitall,
        MpiOp::Sendrecv,
        MpiOp::Barrier,
        MpiOp::Bcast,
        MpiOp::Reduce,
        MpiOp::Allreduce,
        MpiOp::Alltoall,
        MpiOp::Gather,
        MpiOp::Scatter,
        MpiOp::Allgather,
    ];
    for f in &res.raw_files {
        for op in all {
            for code in [EventCode::MpiBegin(op), EventCode::MpiEnd(op)] {
                assert!(
                    f.events.iter().any(|e| e.code == code),
                    "node {} has no {code:?}",
                    f.node
                );
            }
        }
        for code in [
            EventCode::MarkerBegin,
            EventCode::MarkerEnd,
            EventCode::Syscall,
            EventCode::PageFault,
            EventCode::IoStart,
            EventCode::IoEnd,
            EventCode::Interrupt,
            EventCode::ThreadUndispatch,
        ] {
            assert!(
                f.events.iter().any(|e| e.code == code),
                "node {} has no {code:?}",
                f.node
            );
        }
    }
    assert_eq!(
        digest(&res),
        (
            5742217828254386499,
            6618621788958264647,
            [17389818, 250, 74000, 8, 10, 62]
        )
    );
}
