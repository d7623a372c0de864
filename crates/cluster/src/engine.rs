//! The discrete-event simulation engine.
//!
//! One event loop drives every node's CPUs, the switch network, the
//! per-node clock samplers, and the system daemons. All trace records are
//! cut through each node's [`TraceFacility`] with timestamps read from
//! that node's *drifting local clock*, so the produced raw files exhibit
//! the clock-synchronization problem of §1.1 for real.
//!
//! Every MPI op is one wrapped call (§2.1): a `Call` names the routine,
//! the CPU the wrapper burns on entry and the body `Step`s between its
//! BEGIN and END records. `Simulator::advance` runs that one protocol
//! for every op — phase 0 cuts BEGIN, phase k runs step k−1, the last
//! phase cuts END — and keeps short arms only for what is not a call:
//! compute, markers, system events, I/O and daemons.
//!
//! Threads block inside MPI receives, waits, collectives and I/O; a
//! blocked thread is descheduled (cutting `ThreadUndispatch`), its CPU is
//! handed to the next ready thread, and when it resumes — possibly on a
//! different CPU (Figure 9's migration) — a new `ThreadDispatch` is cut.
//! The convert utility later turns those dispatch gaps into the
//! begin/continuation/end interval pieces of §1.2.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use ute_clock::drift::LocalClock;
use ute_core::error::{Result, UteError};
use ute_core::event::{EventCode, MpiOp};
use ute_core::ids::{CpuId, LogicalThreadId, NodeId, Pid, SystemThreadId, TaskId, ThreadType};
use ute_core::time::{Duration, Time};
use ute_format::thread_table::{ThreadEntry, ThreadTable};
use ute_rawtrace::facility::TraceFacility;
use ute_rawtrace::file::RawTraceFile;
use ute_rawtrace::record::MpiPayload;

use crate::config::ClusterConfig;
use crate::program::{JobProgram, Op};

/// Fixed CPU cost of entering any MPI wrapper.
const MPI_ENTRY_COST: Duration = Duration(1_000); // 1 µs
/// Fixed CPU cost of a syscall.
const SYSCALL_COST: Duration = Duration(2_000);
/// Fixed CPU cost of servicing a page fault.
const PAGE_FAULT_COST: Duration = Duration(10_000);
/// Fixed CPU cost of marker bookkeeping.
const MARKER_COST: Duration = Duration(500);

type ThreadIdx = usize;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockReason {
    /// Blocking receive waiting for (from, tag).
    Recv { from: u32, tag: u32 },
    /// Waiting for request `req` (`None`: every request) to complete.
    Wait { req: Option<u32> },
    /// Inside a collective, waiting for completion.
    Collective { key: u64 },
    /// Waiting for an I/O completion.
    Io,
    /// Not started yet, or a daemon between periodic bursts.
    Sleep,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadState {
    Ready,
    Running { cpu: u16 },
    Blocked(BlockReason),
    Done,
}

#[derive(Debug, Clone)]
struct Request {
    /// For posted receives: the (from, tag) signature.
    recv_sig: Option<(u32, u32)>,
    /// Message satisfied by (for receives).
    msg: Option<usize>,
}

impl Request {
    /// A send is complete once posted, a receive once matched.
    fn complete(&self) -> bool {
        self.recv_sig.is_none() || self.msg.is_some()
    }
}

#[derive(Debug)]
struct Msg {
    src: u32,
    dst: u32,
    tag: u32,
    bytes: u64,
    seq: u64,
}

#[derive(Debug)]
struct CollState {
    op: MpiOp,
    root: u32,
    bytes: u64,
    arrived: Vec<ThreadIdx>,
}

/// An MPI op as the §2.1 wrapper runs it: BEGIN for `op`, `entry` CPU,
/// the body steps in order, END for `op`.
struct Call {
    op: MpiOp,
    entry: Duration,
    body: [Option<Step>; 2],
}

impl Call {
    /// A call whose body is `steps`, at most two.
    fn new(op: MpiOp, entry: Duration, steps: &[Step]) -> Call {
        let mut body = [None; 2];
        for (slot, &step) in body.iter_mut().zip(steps) {
            *slot = Some(step);
        }
        Call { op, entry, body }
    }
}

/// One step of a call's body. A step either completes at this instant
/// (the next phase runs at once), demands CPU, or blocks the thread.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Send the message; its sequence number goes in the END record.
    Post { to: u32, bytes: u64, tag: u32 },
    /// Take a matching message from the mailbox and burn the copy cost,
    /// or block until one arrives and retry.
    Match { from: u32, tag: u32 },
    /// Append a request: a receive, matched in the mailbox now or
    /// posted for its message's arrival, or (`None`) a send, complete.
    Request { recv: Option<(u32, u32)> },
    /// Wait for request `req` (`None`: every request) to complete,
    /// blocking until it has.
    Await { req: Option<u32> },
    /// Arrive at the collective and block until it completes.
    Join { op: MpiOp, root: u32, bytes: u64 },
}

#[derive(Debug)]
struct SimThread {
    node: u16,
    /// MPI rank, or `None` for daemons.
    rank: Option<u32>,
    logical: LogicalThreadId,
    ops: Vec<Op>,
    pc: usize,
    /// Micro-phase within the current op: for a call, phase k ≥ 1 runs
    /// body step k−1 and the phase after the last step cuts END.
    phase: u8,
    /// Remaining CPU need of the current phase.
    need: Duration,
    state: ThreadState,
    requests: Vec<Request>,
    /// Message a call's `Match` step took, for its END record.
    stash_msg: Option<usize>,
    /// Sequence number a call's `Post` step sent, for its END record.
    stash_seq: u64,
    /// Open marker local-ids (for MarkerEnd matching).
    open_markers: Vec<(String, u32)>,
    /// Per-thread count of collectives entered, for registry keying.
    coll_seq: u64,
    /// Daemon flag.
    daemon: bool,
    /// Dispatch epoch, to invalidate stale CPU timers.
    epoch: u64,
    /// CPU this thread last ran on (soft affinity).
    last_cpu: Option<u16>,
    /// CPU time consumed since this dispatch, for quantum accounting
    /// across consecutive short operations (without this a thread running
    /// many sub-quantum ops would never be preempted).
    slice_used: Duration,
    /// Wakeups since creation; every 8th placement ignores affinity,
    /// modelling AIX's periodic rebalancing (the source of Figure 9's
    /// cross-CPU migration on an underloaded SMP).
    wakes: u64,
}

impl SimThread {
    /// A task thread running `ops`, or (`rank` `None`) a daemon; either
    /// sleeps until its first wake.
    fn new(node: u16, rank: Option<u32>, logical: LogicalThreadId, ops: Vec<Op>) -> SimThread {
        SimThread {
            node,
            rank,
            logical,
            ops,
            pc: 0,
            phase: 0,
            need: Duration::ZERO,
            state: ThreadState::Blocked(BlockReason::Sleep),
            requests: Vec::new(),
            stash_msg: None,
            stash_seq: 0,
            open_markers: Vec::new(),
            coll_seq: 0,
            daemon: rank.is_none(),
            epoch: 0,
            last_cpu: None,
            slice_used: Duration::ZERO,
            wakes: 0,
        }
    }
}

#[derive(Debug, PartialEq, Eq)]
enum Ev {
    CpuTimer {
        cpu: u16,
        thread: ThreadIdx,
        epoch: u64,
        completes: bool,
    },
    MsgArrive {
        msg: usize,
    },
    CollComplete {
        key: u64,
    },
    IoComplete {
        thread: ThreadIdx,
    },
    ClockSample {
        node: u16,
        k: usize,
    },
    DaemonWake {
        thread: ThreadIdx,
    },
}

/// Aggregate statistics of a simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Simulated end time of the job.
    pub end_time: Time,
    /// Raw trace records cut across all nodes.
    pub events_cut: u64,
    /// Total modelled tracing overhead across nodes.
    pub trace_overhead: Duration,
    /// Point-to-point messages delivered.
    pub messages: u64,
    /// Collective operations completed.
    pub collectives: u64,
    /// Thread dispatches performed.
    pub dispatches: u64,
}

/// The output of a run: one raw trace file per node, the ground-truth
/// thread table, and run statistics.
#[derive(Debug)]
pub struct SimResult {
    /// Per-node raw trace files, indexed by node.
    pub raw_files: Vec<RawTraceFile>,
    /// Ground-truth thread table (what the convert utility rebuilds).
    pub threads: ThreadTable,
    /// Run statistics.
    pub stats: SimStats,
}

/// [`SimResult`] with each node's raw file as the bytes its trace buffer
/// holds: what `ute trace` publishes, with nothing decoded.
#[derive(Debug)]
pub struct SimBytes {
    /// Per-node encoded raw trace files, indexed by node.
    pub raw_bytes: Vec<Vec<u8>>,
    /// Ground-truth thread table (what the convert utility rebuilds).
    pub threads: ThreadTable,
    /// Run statistics.
    pub stats: SimStats,
}

/// The simulator.
pub struct Simulator {
    cfg: ClusterConfig,
    threads: Vec<SimThread>,
    facilities: Vec<TraceFacility>,
    clocks: Vec<LocalClock>,
    ready: Vec<VecDeque<ThreadIdx>>,
    /// `cpus[node][cpu]` = thread currently running there.
    cpus: Vec<Vec<Option<ThreadIdx>>>,
    /// Next-fit dispatch pointer per node: the search for a free CPU
    /// starts after the last one used, the way AIX's dispatcher spread
    /// wakeups across an SMP — this is what makes threads migrate
    /// between CPUs (Figure 9).
    cpu_hint: Vec<u16>,
    mailbox: Vec<Vec<usize>>,
    posted_recvs: Vec<VecDeque<(ThreadIdx, usize)>>,
    msgs: Vec<Msg>,
    colls: HashMap<u64, CollState>,
    queue: BinaryHeap<Reverse<(u64, u64, usize)>>,
    /// Scheduled events that can unblock or advance a task thread
    /// (CPU timers, message arrivals, collective/I-O completions). When
    /// this hits zero with task threads still blocked, the job is
    /// deadlocked — infrastructure events (clock samples, daemon wakes)
    /// alone can never release an MPI block.
    pending_progress: usize,
    events: Vec<Option<Ev>>,
    thread_table: ThreadTable,
    stats: SimStats,
    now: Time,
}

impl Simulator {
    /// Builds a simulator for a job on a cluster. The job must define one
    /// task program per rank ([`ClusterConfig::total_tasks`]).
    pub fn new(cfg: ClusterConfig, job: &JobProgram) -> Result<Simulator> {
        if job.tasks.len() != cfg.total_tasks() as usize {
            return Err(UteError::Invalid(format!(
                "job defines {} tasks but the cluster hosts {}",
                job.tasks.len(),
                cfg.total_tasks()
            )));
        }
        if cfg.quantum == Duration::ZERO {
            return Err(UteError::Invalid(
                "scheduler quantum must be positive".into(),
            ));
        }
        if cfg.daemons_per_node > 0
            && (cfg.daemon_period == Duration::ZERO || cfg.daemon_burst == Duration::ZERO)
        {
            return Err(UteError::Invalid(
                "daemon period and burst must be positive when daemons are configured".into(),
            ));
        }
        if cfg.cpus_per_node == 0 {
            return Err(UteError::Invalid("nodes need at least one CPU".into()));
        }
        let mut threads = Vec::new();
        let mut thread_table = ThreadTable::new();
        let mut logical_counters = vec![0u16; cfg.nodes as usize];
        // Logical ids count per node, system tids per simulator; a
        // daemon is task `u32::MAX` of pid 1.
        let mut add = |node: u16, rank: Option<u32>, ttype, ops| -> Result<()> {
            let logical = LogicalThreadId(logical_counters[node as usize]);
            logical_counters[node as usize] += 1;
            thread_table.register(ThreadEntry {
                task: TaskId(rank.unwrap_or(u32::MAX)),
                pid: Pid(rank.map_or(1, |r| 1000 + r)),
                system_tid: SystemThreadId(100_000 + threads.len() as u64),
                node: NodeId(node),
                logical,
                ttype,
            })?;
            threads.push(SimThread::new(node, rank, logical, ops));
            Ok(())
        };
        for (rank, task) in job.tasks.iter().enumerate() {
            let rank = rank as u32;
            if task.threads.is_empty() {
                return Err(UteError::Invalid(format!("rank {rank} has no threads")));
            }
            for (tix, ops) in task.threads.iter().enumerate() {
                let ttype = if tix == 0 {
                    ThreadType::Mpi
                } else {
                    ThreadType::User
                };
                add(cfg.node_of_rank(rank), Some(rank), ttype, ops.clone())?;
            }
        }
        for node in 0..cfg.nodes {
            for _ in 0..cfg.daemons_per_node {
                add(node, None, ThreadType::System, Vec::new())?;
            }
        }
        let facilities = (0..cfg.nodes)
            .map(|n| TraceFacility::new(NodeId(n), cfg.trace.clone()))
            .collect();
        let clocks = (0..cfg.nodes)
            .map(|n| LocalClock::new(cfg.clock_for_node(n)))
            .collect();
        let ntasks = cfg.total_tasks() as usize;
        Ok(Simulator {
            ready: vec![VecDeque::new(); cfg.nodes as usize],
            cpus: vec![vec![None; cfg.cpus_per_node as usize]; cfg.nodes as usize],
            cpu_hint: vec![0; cfg.nodes as usize],
            mailbox: vec![Vec::new(); ntasks],
            posted_recvs: vec![VecDeque::new(); ntasks],
            msgs: Vec::new(),
            colls: HashMap::new(),
            queue: BinaryHeap::new(),
            pending_progress: 0,
            events: Vec::new(),
            thread_table,
            stats: SimStats::default(),
            now: Time::ZERO,
            cfg,
            threads,
            facilities,
            clocks,
        })
    }

    fn schedule(&mut self, at: Time, ev: Ev) {
        if is_progress(&ev) {
            self.pending_progress += 1;
        }
        let id = self.events.len();
        self.events.push(Some(ev));
        self.queue.push(Reverse((at.ticks(), id as u64, id)));
    }

    fn local_now(&mut self, node: u16) -> ute_core::time::LocalTime {
        self.clocks[node as usize].read(self.now)
    }

    /// Runs the job to completion, decoding each node's raw file: the
    /// adapter over [`Simulator::run_bytes`] for whoever wants events.
    pub fn run(self) -> Result<SimResult> {
        let SimBytes {
            raw_bytes,
            threads,
            stats,
        } = self.run_bytes()?;
        let raw_files = raw_bytes.iter().map(|b| RawTraceFile::from_bytes(b));
        Ok(SimResult {
            raw_files: raw_files.collect::<Result<_>>()?,
            threads,
            stats,
        })
    }

    /// Runs the job to completion; each node's raw file comes back encoded.
    pub fn run_bytes(mut self) -> Result<SimBytes> {
        // Trace start + initial clock sample per node.
        for node in 0..self.cfg.nodes {
            let l = self.local_now(node);
            self.facilities[node as usize].cut_control(l, true)?;
        }
        if self.cfg.clock_sample_period > Duration::ZERO {
            for node in 0..self.cfg.nodes {
                self.schedule(Time::ZERO, Ev::ClockSample { node, k: 0 });
            }
        }
        // Daemons get their first wake.
        for t in 0..self.threads.len() {
            if self.threads[t].daemon {
                let jitter = Duration(((t as u64) * 7_919) % self.cfg.daemon_period.ticks().max(1));
                self.schedule(Time::ZERO + jitter, Ev::DaemonWake { thread: t });
            }
        }
        // Make every task thread ready and fill the CPUs.
        for t in 0..self.threads.len() {
            if !self.threads[t].daemon {
                self.make_ready(t)?;
            }
        }

        let _span = ute_obs::Span::enter("cluster", "engine run");
        let obs_events = ute_obs::counter("cluster/events_simulated");
        let obs_queue = ute_obs::gauge("cluster/queue_depth_max");
        while let Some(Reverse((at, _, id))) = self.queue.pop() {
            obs_events.inc();
            obs_queue.set_max(self.queue.len() as f64 + 1.0);
            let ev = self.events[id].take().expect("event consumed twice");
            if is_progress(&ev) {
                self.pending_progress -= 1;
            }
            self.now = Time(at);
            self.handle(ev)?;
            // Done, or nothing left that could ever advance a task thread.
            if self.all_tasks_done() || self.pending_progress == 0 {
                break;
            }
        }
        if !self.all_tasks_done() {
            let stuck: Vec<String> = self
                .threads
                .iter()
                .filter(|t| !t.daemon && t.state != ThreadState::Done)
                .map(|t| {
                    format!(
                        "rank {:?} thread {} in {:?} at pc {}",
                        t.rank, t.logical, t.state, t.pc
                    )
                })
                .collect();
            return Err(UteError::Invalid(format!(
                "deadlock: event queue drained with {} thread(s) blocked: {}",
                stuck.len(),
                stuck.join("; ")
            )));
        }
        // Trace stop per node, then collect files.
        self.stats.end_time = self.now;
        for node in 0..self.cfg.nodes {
            let l = self.local_now(node);
            self.facilities[node as usize].cut_control(l, false)?;
        }
        for f in &self.facilities {
            self.stats.events_cut += f.records_cut();
            self.stats.trace_overhead += f.overhead();
        }
        ute_obs::counter("cluster/records_cut").add(self.stats.events_cut);
        ute_obs::counter("cluster/messages").add(self.stats.messages);
        ute_obs::counter("cluster/collectives").add(self.stats.collectives);
        ute_obs::counter("cluster/dispatches").add(self.stats.dispatches);
        Ok(SimBytes {
            raw_bytes: self.facilities.into_iter().map(|f| f.finish()).collect(),
            threads: self.thread_table,
            stats: self.stats,
        })
    }

    fn all_tasks_done(&self) -> bool {
        self.threads
            .iter()
            .all(|t| t.daemon || t.state == ThreadState::Done)
    }

    fn handle(&mut self, ev: Ev) -> Result<()> {
        match ev {
            Ev::CpuTimer {
                cpu,
                thread,
                epoch,
                completes,
            } => {
                if self.threads[thread].epoch != epoch
                    || self.threads[thread].state != (ThreadState::Running { cpu })
                {
                    return Ok(()); // stale timer
                }
                let node = self.threads[thread].node;
                if completes {
                    self.threads[thread].need = Duration::ZERO;
                    self.advance(thread)?;
                } else {
                    // Quantum expiry: preempt only if someone is waiting.
                    if self.ready[node as usize].is_empty() {
                        self.threads[thread].slice_used = Duration::ZERO;
                        self.arm_timer(thread);
                    } else {
                        self.undispatch(thread)?;
                        self.threads[thread].state = ThreadState::Ready;
                        self.ready[node as usize].push_back(thread);
                        self.fill_cpu(node, cpu)?;
                    }
                }
            }
            Ev::MsgArrive { msg } => {
                self.stats.messages += 1;
                let &Msg { src, dst, tag, .. } = &self.msgs[msg];
                // Posted non-blocking receive?
                let posted = self.posted_recvs[dst as usize]
                    .iter()
                    .position(|&(t, req)| {
                        let r = &self.threads[t].requests[req];
                        r.recv_sig == Some((src, tag)) && !r.complete()
                    });
                if let Some(qi) = posted {
                    let (t, req) = self.posted_recvs[dst as usize]
                        .remove(qi)
                        .expect("index found in this queue");
                    self.threads[t].requests[req].msg = Some(msg);
                    // Wake a Wait parked on this thread if now satisfied.
                    if let ThreadState::Blocked(BlockReason::Wait { req }) = self.threads[t].state {
                        if self.wait_satisfied(t, req) {
                            self.make_ready(t)?;
                        }
                    }
                    return Ok(());
                }
                self.mailbox[dst as usize].push(msg);
                // Wake one blocked Recv that matches.
                let blocked = ThreadState::Blocked(BlockReason::Recv { from: src, tag });
                let waiter = self
                    .threads
                    .iter()
                    .position(|t| t.rank == Some(dst) && t.state == blocked);
                if let Some(t) = waiter {
                    self.make_ready(t)?;
                }
            }
            Ev::CollComplete { key } => {
                self.stats.collectives += 1;
                let parts = self.colls.get(&key).expect("collective vanished");
                let blocked = ThreadState::Blocked(BlockReason::Collective { key });
                for t in parts.arrived.clone() {
                    if self.threads[t].state == blocked {
                        self.make_ready(t)?;
                    }
                }
            }
            Ev::IoComplete { thread } => {
                if self.threads[thread].state == ThreadState::Blocked(BlockReason::Io) {
                    self.make_ready(thread)?;
                }
            }
            Ev::ClockSample { node, k } => {
                let g = self.cfg.global_clock.read(self.now);
                let delay = match self.cfg.clock_outlier_every {
                    Some(n) if n > 0 && k > 0 && k % n == 0 => self.cfg.clock_outlier_delay,
                    _ => self.cfg.global_clock.access_cost,
                };
                let l = self.clocks[node as usize].read(self.now + delay);
                self.facilities[node as usize].cut_clock(l, g)?;
                self.schedule(
                    self.now + self.cfg.clock_sample_period,
                    Ev::ClockSample { node, k: k + 1 },
                );
            }
            Ev::DaemonWake { thread } => {
                if self.threads[thread].state == ThreadState::Blocked(BlockReason::Sleep) {
                    self.threads[thread].need = self.cfg.daemon_burst;
                    self.make_ready(thread)?;
                }
            }
        }
        Ok(())
    }

    /// Marks a thread runnable and dispatches it if a CPU is free.
    ///
    /// Placement models AIX's SMP dispatcher: task threads have *soft
    /// affinity* — they return to the CPU they last ran on when it is
    /// free — and fall back to a next-fit scan from a rotating per-node
    /// pointer when it is not. Daemons have no affinity and roam via the
    /// next-fit pointer. The combination keeps most CPUs idle (Figure 9)
    /// while still producing the occasional cross-CPU migration when a
    /// thread wakes to find its old CPU taken.
    fn make_ready(&mut self, t: ThreadIdx) -> Result<()> {
        self.threads[t].state = ThreadState::Ready;
        let node = self.threads[t].node;
        self.threads[t].wakes += 1;
        let rebalance = self.threads[t].wakes.is_multiple_of(8);
        let affinity = if self.threads[t].daemon || rebalance {
            None
        } else {
            self.threads[t].last_cpu
        };
        if let Some(cpu) = affinity {
            if self.cpus[node as usize][cpu as usize].is_none() {
                return self.dispatch(node, cpu, t);
            }
        }
        let ncpu = self.cpus[node as usize].len() as u16;
        let hint = self.cpu_hint[node as usize];
        let free = (0..ncpu)
            .map(|i| (hint + i) % ncpu)
            .find(|&c| self.cpus[node as usize][c as usize].is_none());
        if let Some(cpu) = free {
            self.cpu_hint[node as usize] = (cpu + 1) % ncpu;
            self.dispatch(node, cpu, t)
        } else {
            self.ready[node as usize].push_back(t);
            Ok(())
        }
    }

    fn dispatch(&mut self, node: u16, cpu: u16, t: ThreadIdx) -> Result<()> {
        debug_assert_eq!(self.threads[t].state, ThreadState::Ready);
        self.cpus[node as usize][cpu as usize] = Some(t);
        self.threads[t].state = ThreadState::Running { cpu };
        self.threads[t].last_cpu = Some(cpu);
        self.threads[t].slice_used = Duration::ZERO;
        self.threads[t].epoch += 1;
        self.stats.dispatches += 1;
        let logical = self.threads[t].logical;
        let l = self.local_now(node);
        self.facilities[node as usize].cut_dispatch(l, logical, CpuId(cpu), true)?;
        // If the thread has no pending CPU need, advance its script now to
        // find the next need (cuts zero-time events at this instant).
        if self.threads[t].need == Duration::ZERO {
            self.advance(t)?;
        } else {
            self.arm_timer(t);
        }
        Ok(())
    }

    fn undispatch(&mut self, t: ThreadIdx) -> Result<()> {
        if let ThreadState::Running { cpu } = self.threads[t].state {
            let node = self.threads[t].node;
            self.cpus[node as usize][cpu as usize] = None;
            let logical = self.threads[t].logical;
            let l = self.local_now(node);
            self.facilities[node as usize].cut_dispatch(l, logical, CpuId(cpu), false)?;
            self.threads[t].epoch += 1;
        }
        Ok(())
    }

    fn fill_cpu(&mut self, node: u16, cpu: u16) -> Result<()> {
        if self.cpus[node as usize][cpu as usize].is_some() {
            return Ok(());
        }
        if let Some(t) = self.ready[node as usize].pop_front() {
            self.dispatch(node, cpu, t)?;
        }
        Ok(())
    }

    /// Arms a running thread's timer for its next slice of CPU need.
    fn arm_timer(&mut self, t: ThreadIdx) {
        let th = &mut self.threads[t];
        let ThreadState::Running { cpu } = th.state else {
            unreachable!("timer for a thread not running");
        };
        let node = th.node as usize;
        let mut budget = self.cfg.quantum.saturating_sub(th.slice_used);
        // Quantum exhausted across consecutive short ops: with someone
        // waiting, route through the normal preemption path immediately;
        // with nobody, renew the quantum in place.
        let (at, completes) = if budget == Duration::ZERO && !self.ready[node].is_empty() {
            (self.now, false)
        } else {
            if budget == Duration::ZERO {
                th.slice_used = Duration::ZERO;
                budget = self.cfg.quantum;
            }
            let need = th.need;
            let slice = need.min(budget);
            // Remaining need shrinks by the slice we are about to run; the
            // quantum budget shrinks likewise.
            th.need = need.saturating_sub(slice);
            th.slice_used += slice;
            (self.now + self.cfg.ctx_switch + slice, slice >= need)
        };
        let epoch = th.epoch;
        self.schedule(
            at,
            Ev::CpuTimer {
                cpu,
                thread: t,
                epoch,
                completes,
            },
        );
    }

    /// Gives a running thread CPU work: arms the slice timer.
    fn demand_cpu(&mut self, t: ThreadIdx, d: Duration) {
        self.threads[t].need = d;
        self.arm_timer(t);
    }

    /// Blocks a running thread: undispatch, free the CPU, refill it.
    fn block(&mut self, t: ThreadIdx, why: BlockReason) -> Result<()> {
        self.leave_cpu(t, ThreadState::Blocked(why))
    }

    /// Takes a running thread off its CPU into `state` (blocked or
    /// done) and hands the CPU to the next ready thread.
    fn leave_cpu(&mut self, t: ThreadIdx, state: ThreadState) -> Result<()> {
        let ThreadState::Running { cpu } = self.threads[t].state else {
            unreachable!("leave_cpu on non-running thread");
        };
        let node = self.threads[t].node;
        self.undispatch(t)?;
        self.threads[t].state = state;
        self.fill_cpu(node, cpu)
    }

    /// Whether request `req` (`None`: every request) of the thread is complete.
    fn wait_satisfied(&self, t: ThreadIdx, req: Option<u32>) -> bool {
        let requests = &self.threads[t].requests;
        match req {
            Some(ri) => requests[ri as usize].complete(),
            None => requests.iter().all(Request::complete),
        }
    }

    fn mpi_payload(&self, t: ThreadIdx) -> MpiPayload {
        MpiPayload::bare(self.threads[t].logical, self.threads[t].rank.unwrap_or(0))
    }

    fn cut_mpi(
        &mut self,
        t: ThreadIdx,
        op: MpiOp,
        begin: bool,
        mut payload: MpiPayload,
    ) -> Result<()> {
        // Synthetic call-site address, "suitable for a source code
        // browser" (§2.3.2): one stable address per routine.
        payload.address = 0x0040_0000 + ((op.code() as u64) << 6);
        let node = self.threads[t].node;
        let l = self.local_now(node);
        self.facilities[node as usize].cut_mpi(l, op, begin, payload)?;
        Ok(())
    }

    /// Cuts a system event on the thread's node at this instant.
    fn cut_system(&mut self, t: ThreadIdx, code: EventCode) -> Result<()> {
        let node = self.threads[t].node;
        let logical = self.threads[t].logical;
        let l = self.local_now(node);
        self.facilities[node as usize].cut_system(l, code, logical)?;
        Ok(())
    }

    /// Cuts a marker begin or end record for marker `id` at this instant.
    fn cut_marker(&mut self, t: ThreadIdx, id: u32, begin: bool) -> Result<()> {
        let node = self.threads[t].node;
        let logical = self.threads[t].logical;
        let base: u64 = if begin { 0x4000 } else { 0x8000 };
        let l = self.local_now(node);
        self.facilities[node as usize].cut_marker(l, logical, id, base + id as u64, begin)?;
        Ok(())
    }

    /// The call an MPI op makes, or `None` for an op that is no call.
    fn call(&self, op: &Op) -> Option<Call> {
        // A send's entry includes putting its bytes on the wire.
        let send = |bytes| MPI_ENTRY_COST + self.cfg.network.send_time(bytes);
        Some(match *op {
            Op::Send { to, bytes, tag } => {
                Call::new(MpiOp::Send, send(bytes), &[Step::Post { to, bytes, tag }])
            }
            Op::Isend { to, bytes, tag } => Call::new(
                MpiOp::Isend,
                send(bytes),
                &[Step::Post { to, bytes, tag }, Step::Request { recv: None }],
            ),
            Op::Sendrecv {
                to,
                from,
                bytes,
                tag,
            } => Call::new(
                MpiOp::Sendrecv,
                send(bytes),
                &[Step::Post { to, bytes, tag }, Step::Match { from, tag }],
            ),
            Op::Recv { from, tag } => {
                Call::new(MpiOp::Recv, MPI_ENTRY_COST, &[Step::Match { from, tag }])
            }
            Op::Irecv { from, tag } => {
                let recv = Some((from, tag));
                Call::new(MpiOp::Irecv, MPI_ENTRY_COST, &[Step::Request { recv }])
            }
            Op::Wait { req } => {
                let req = Some(req);
                Call::new(MpiOp::Wait, MPI_ENTRY_COST, &[Step::Await { req }])
            }
            Op::Waitall => Call::new(MpiOp::Waitall, MPI_ENTRY_COST, &[Step::Await { req: None }]),
            _ => {
                let (op, root, bytes) = op.collective()?;
                Call::new(op, MPI_ENTRY_COST, &[Step::Join { op, root, bytes }])
            }
        })
    }

    /// Drives a *running* thread's script forward. Cuts events for
    /// zero-time steps at the current instant and stops as soon as the
    /// thread needs CPU (arming its timer), blocks, or finishes.
    fn advance(&mut self, t: ThreadIdx) -> Result<()> {
        loop {
            // Daemon threads run a fixed burst instead of a script, then
            // cut an interrupt and sleep for a period.
            if self.threads[t].daemon {
                if self.threads[t].phase == 0 {
                    self.threads[t].phase = 1;
                    self.demand_cpu(t, self.cfg.daemon_burst);
                    return Ok(());
                }
                self.cut_system(t, EventCode::Interrupt)?;
                self.threads[t].phase = 0;
                self.schedule(
                    self.now + self.cfg.daemon_period,
                    Ev::DaemonWake { thread: t },
                );
                return self.block(t, BlockReason::Sleep);
            }

            let pc = self.threads[t].pc;
            if pc >= self.threads[t].ops.len() {
                return self.leave_cpu(t, ThreadState::Done);
            }
            let op = self.threads[t].ops[pc].clone();
            let phase = self.threads[t].phase as usize;

            // Every MPI op: BEGIN and the entry CPU, the body one step
            // per phase, then END.
            if let Some(call) = self.call(&op) {
                if phase == 0 {
                    self.cut_mpi(t, call.op, true, self.mpi_payload(t))?;
                    self.threads[t].phase = 1;
                    self.demand_cpu(t, call.entry);
                    return Ok(());
                }
                match call.body.get(phase - 1).copied().flatten() {
                    Some(step) => {
                        if !self.run_step(t, step)? {
                            return Ok(());
                        }
                    }
                    None => {
                        let p = self.end_payload(t, &op)?;
                        self.cut_mpi(t, call.op, false, p)?;
                        if matches!(op, Op::Waitall) {
                            self.threads[t].requests.clear();
                            self.posted_recvs
                                .iter_mut()
                                .for_each(|q| q.retain(|&(ti, _)| ti != t));
                        }
                        self.step_pc(t);
                    }
                }
                continue;
            }

            // I/O blocks without CPU between its two records.
            if let Op::Io(d) = op {
                if phase == 0 {
                    self.cut_system(t, EventCode::IoStart)?;
                    self.threads[t].phase = 1;
                    self.schedule(self.now + d, Ev::IoComplete { thread: t });
                    return self.block(t, BlockReason::Io);
                }
                self.cut_system(t, EventCode::IoEnd)?;
                self.step_pc(t);
                continue;
            }

            // The rest cut at most one record, then burn CPU.
            if phase > 0 {
                self.step_pc(t);
                continue;
            }
            let cost = match &op {
                Op::Compute(d) => *d,
                Op::MarkerBegin(name) => {
                    let node = self.threads[t].node;
                    let rank = self.threads[t].rank.unwrap_or(u32::MAX);
                    let l = self.local_now(node);
                    let id = self.facilities[node as usize].define_marker(l, rank, name)?;
                    self.cut_marker(t, id, true)?;
                    self.threads[t].open_markers.push((name.clone(), id));
                    MARKER_COST
                }
                Op::MarkerEnd(name) => {
                    let pos = self.threads[t]
                        .open_markers
                        .iter()
                        .rposition(|(n, _)| n == name)
                        .ok_or_else(|| {
                            UteError::Invalid(format!("MarkerEnd(\"{name}\") without begin"))
                        })?;
                    let (_, id) = self.threads[t].open_markers.remove(pos);
                    self.cut_marker(t, id, false)?;
                    MARKER_COST
                }
                Op::Syscall => {
                    self.cut_system(t, EventCode::Syscall)?;
                    SYSCALL_COST
                }
                Op::PageFault => {
                    self.cut_system(t, EventCode::PageFault)?;
                    PAGE_FAULT_COST
                }
                other => unreachable!("{other:?} is a call or I/O"),
            };
            self.threads[t].phase = 1;
            self.demand_cpu(t, cost);
            return Ok(());
        }
    }

    /// Runs one body step; `Ok(true)` when it completed at this instant
    /// and the next phase runs at once, `Ok(false)` when the thread is
    /// burning CPU or blocked. A blocked step is retried on wakeup,
    /// except `Join`, which a completed collective resumes past.
    fn run_step(&mut self, t: ThreadIdx, step: Step) -> Result<bool> {
        match step {
            Step::Post { to, bytes, tag } => {
                self.threads[t].stash_seq = self.post_message(t, to, bytes, tag);
            }
            Step::Match { from, tag } => {
                let rank = self.threads[t].rank.expect("receive on daemon");
                let Some(m) = self.take_from_mailbox(rank, from, tag) else {
                    self.block(t, BlockReason::Recv { from, tag })?;
                    return Ok(false);
                };
                self.threads[t].stash_msg = Some(m);
                self.threads[t].phase += 1;
                // Copy cost proportional to message size.
                let net = &self.cfg.network;
                let copy =
                    net.overhead + Duration(net.transfer_time(self.msgs[m].bytes).ticks() / 4);
                self.demand_cpu(t, copy);
                return Ok(false);
            }
            Step::Request { recv } => {
                let req = self.threads[t].requests.len();
                let mut msg = None;
                if let Some((from, tag)) = recv {
                    let rank = self.threads[t].rank.expect("irecv on daemon");
                    msg = self.take_from_mailbox(rank, from, tag);
                    if msg.is_none() {
                        self.posted_recvs[rank as usize].push_back((t, req));
                    }
                }
                self.threads[t].requests.push(Request {
                    recv_sig: recv,
                    msg,
                });
            }
            Step::Await { req } => {
                let posted = self.threads[t].requests.len();
                if let Some(ri) = req.filter(|&ri| ri as usize >= posted) {
                    return Err(UteError::Invalid(format!(
                        "Wait on request {ri} but only {posted} posted"
                    )));
                }
                if !self.wait_satisfied(t, req) {
                    self.block(t, BlockReason::Wait { req })?;
                    return Ok(false);
                }
            }
            Step::Join { op, root, bytes } => {
                self.threads[t].phase += 1;
                self.join_collective(t, op, root, bytes)?;
                return Ok(false);
            }
        }
        self.threads[t].phase += 1;
        Ok(true)
    }

    /// The END record's payload: the call's peer, tag and bytes, and what
    /// its body learned — the posted sequence number, the matched message.
    fn end_payload(&mut self, t: ThreadIdx, op: &Op) -> Result<MpiPayload> {
        let mut p = self.mpi_payload(t);
        let th = &mut self.threads[t];
        match *op {
            // Sendrecv's record carries the outgoing seq; the incoming
            // message's own seq matched it to our mailbox.
            Op::Send { to, bytes, tag }
            | Op::Isend { to, bytes, tag }
            | Op::Sendrecv { to, bytes, tag, .. } => {
                (p.peer, p.tag, p.bytes, p.seq) = (to, tag, bytes, th.stash_seq);
            }
            Op::Recv { from, tag } => {
                // The step only advances here after a message was taken;
                // its absence means the engine's own bookkeeping broke,
                // which must surface as an error, not a panic inside a
                // long simulation.
                let Some(m) = th.stash_msg.take() else {
                    return Err(UteError::Invalid(format!(
                        "recv on thread {t} completed without a matched message"
                    )));
                };
                let m = &self.msgs[m];
                (p.peer, p.tag, p.bytes, p.seq) = (from, tag, m.bytes, m.seq);
            }
            Op::Irecv { from, tag } => (p.peer, p.tag) = (from, tag),
            Op::Wait { req } => {
                if let Some(m) = th.requests[req as usize].msg {
                    let m = &self.msgs[m];
                    (p.peer, p.tag, p.bytes, p.seq) = (m.src, m.tag, m.bytes, m.seq);
                }
            }
            _ => {
                if let Some((_, root, bytes)) = op.collective() {
                    (p.peer, p.bytes) = (root, bytes);
                }
            }
        }
        Ok(p)
    }

    fn step_pc(&mut self, t: ThreadIdx) {
        self.threads[t].pc += 1;
        self.threads[t].phase = 0;
    }

    fn post_message(&mut self, t: ThreadIdx, to: u32, bytes: u64, tag: u32) -> u64 {
        let rank = self.threads[t].rank.expect("send from daemon");
        let node = self.threads[t].node;
        let seq = self.facilities[node as usize].next_seq(rank);
        let msg = self.msgs.len();
        self.msgs.push(Msg {
            src: rank,
            dst: to,
            tag,
            bytes,
            seq,
        });
        let arrive = self.now + self.cfg.network.latency;
        self.schedule(arrive, Ev::MsgArrive { msg });
        seq
    }

    fn take_from_mailbox(&mut self, rank: u32, from: u32, tag: u32) -> Option<usize> {
        let q = &mut self.mailbox[rank as usize];
        let pos = q
            .iter()
            .position(|&m| self.msgs[m].src == from && self.msgs[m].tag == tag)?;
        Some(q.remove(pos))
    }

    /// Registers the thread's arrival at its next collective and blocks
    /// it; the last arrival schedules the completion.
    fn join_collective(&mut self, t: ThreadIdx, op: MpiOp, root: u32, bytes: u64) -> Result<()> {
        let key = self.threads[t].coll_seq;
        self.threads[t].coll_seq += 1;
        let ntasks = self.cfg.total_tasks();
        let entry = self.colls.entry(key).or_insert_with(|| CollState {
            op,
            root,
            bytes,
            arrived: Vec::new(),
        });
        if entry.op != op || entry.root != root || entry.bytes != bytes {
            return Err(UteError::Invalid(format!(
                "collective mismatch at index {key}: {:?} root {} ({} B) vs {:?} root {} ({} B)",
                entry.op, entry.root, entry.bytes, op, root, bytes
            )));
        }
        entry.arrived.push(t);
        // The last arrival starts the collective's own time.
        if entry.arrived.len() == ntasks as usize {
            let done_at = self.now + self.cfg.network.collective_time(ntasks, bytes);
            self.schedule(done_at, Ev::CollComplete { key });
        }
        self.block(t, BlockReason::Collective { key })
    }
}

fn is_progress(ev: &Ev) -> bool {
    matches!(
        ev,
        Ev::CpuTimer { .. }
            | Ev::MsgArrive { .. }
            | Ev::CollComplete { .. }
            | Ev::IoComplete { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::TaskProgram;
    use ute_rawtrace::record::{DispatchPayload, MpiPayload as MP};

    fn small_cfg() -> ClusterConfig {
        ClusterConfig {
            nodes: 2,
            cpus_per_node: 2,
            tasks_per_node: 1,
            threads_per_task: 1,
            daemons_per_node: 0,
            clock_sample_period: Duration::from_millis(100),
            ..ClusterConfig::default()
        }
    }

    fn run(cfg: ClusterConfig, job: JobProgram) -> SimResult {
        Simulator::new(cfg, &job).unwrap().run().unwrap()
    }

    fn events_of(res: &SimResult, node: u16, code: EventCode) -> usize {
        res.raw_files[node as usize]
            .events
            .iter()
            .filter(|e| e.code == code)
            .count()
    }

    #[test]
    fn ping_pong_matches_sends_and_recvs() {
        let job = JobProgram {
            tasks: vec![
                TaskProgram::single(vec![
                    Op::Send {
                        to: 1,
                        bytes: 4096,
                        tag: 7,
                    },
                    Op::Recv { from: 1, tag: 8 },
                ]),
                TaskProgram::single(vec![
                    Op::Recv { from: 0, tag: 7 },
                    Op::Send {
                        to: 0,
                        bytes: 4096,
                        tag: 8,
                    },
                ]),
            ],
        };
        let res = run(small_cfg(), job);
        assert_eq!(res.stats.messages, 2);
        // Each node has exactly one Send begin+end and one Recv begin+end.
        for node in 0..2 {
            assert_eq!(events_of(&res, node, EventCode::MpiBegin(MpiOp::Send)), 1);
            assert_eq!(events_of(&res, node, EventCode::MpiEnd(MpiOp::Send)), 1);
            assert_eq!(events_of(&res, node, EventCode::MpiBegin(MpiOp::Recv)), 1);
            assert_eq!(events_of(&res, node, EventCode::MpiEnd(MpiOp::Recv)), 1);
        }
        // Seq number on recv end matches the seq on the peer's send end.
        let send_end = res.raw_files[0]
            .events
            .iter()
            .find(|e| e.code == EventCode::MpiEnd(MpiOp::Send))
            .unwrap();
        let recv_end = res.raw_files[1]
            .events
            .iter()
            .find(|e| e.code == EventCode::MpiEnd(MpiOp::Recv))
            .unwrap();
        let sp = MP::from_bytes(&send_end.payload).unwrap();
        let rp = MP::from_bytes(&recv_end.payload).unwrap();
        assert_eq!(sp.seq, rp.seq);
        assert_eq!(sp.bytes, 4096);
        assert_eq!(rp.bytes, 4096);
        assert_eq!(rp.peer, 0);
    }

    #[test]
    fn blocking_recv_deschedules_thread() {
        // Rank 1's recv must block (sender computes for 50 ms first), so
        // node 1's trace must contain an undispatch before the recv end.
        let job = JobProgram {
            tasks: vec![
                TaskProgram::single(vec![
                    Op::Compute(Duration::from_millis(50)),
                    Op::Send {
                        to: 1,
                        bytes: 1024,
                        tag: 0,
                    },
                ]),
                TaskProgram::single(vec![Op::Recv { from: 0, tag: 0 }]),
            ],
        };
        let res = run(small_cfg(), job);
        let f = &res.raw_files[1];
        let recv_begin = f
            .events
            .iter()
            .position(|e| e.code == EventCode::MpiBegin(MpiOp::Recv))
            .unwrap();
        let recv_end = f
            .events
            .iter()
            .position(|e| e.code == EventCode::MpiEnd(MpiOp::Recv))
            .unwrap();
        let undispatch_between = f.events[recv_begin..recv_end]
            .iter()
            .any(|e| e.code == EventCode::ThreadUndispatch);
        assert!(
            undispatch_between,
            "blocking recv should deschedule the thread mid-call"
        );
    }

    #[test]
    fn barrier_synchronizes_all_ranks() {
        let cfg = ClusterConfig {
            nodes: 2,
            tasks_per_node: 2,
            ..small_cfg()
        };
        let job = JobProgram::spmd(4, |r| {
            TaskProgram::single(vec![
                Op::Compute(Duration::from_millis(r as u64 * 10)),
                Op::Barrier,
                Op::Compute(Duration::from_millis(1)),
            ])
        });
        let res = run(cfg, job);
        assert_eq!(res.stats.collectives, 1);
        // Barrier end events exist on both nodes.
        for node in 0..2 {
            assert_eq!(events_of(&res, node, EventCode::MpiEnd(MpiOp::Barrier)), 2);
        }
        // End time is at least the slowest rank's pre-barrier compute.
        assert!(res.stats.end_time >= Time(30_000_000));
    }

    #[test]
    fn collective_mismatch_is_detected() {
        let job = JobProgram {
            tasks: vec![
                TaskProgram::single(vec![Op::Barrier]),
                TaskProgram::single(vec![Op::Allreduce { bytes: 8 }]),
            ],
        };
        let err = Simulator::new(small_cfg(), &job)
            .unwrap()
            .run()
            .unwrap_err();
        assert!(err.to_string().contains("collective mismatch"), "{err}");
    }

    #[test]
    fn deadlock_is_reported_not_hung() {
        let job = JobProgram {
            tasks: vec![
                TaskProgram::single(vec![Op::Recv { from: 1, tag: 0 }]),
                TaskProgram::single(vec![Op::Recv { from: 0, tag: 0 }]),
            ],
        };
        let err = Simulator::new(small_cfg(), &job)
            .unwrap()
            .run()
            .unwrap_err();
        assert!(err.to_string().contains("deadlock"), "{err}");
    }

    #[test]
    fn isend_irecv_wait_complete() {
        let job = JobProgram {
            tasks: vec![
                TaskProgram::single(vec![
                    Op::Irecv { from: 1, tag: 5 },
                    Op::Isend {
                        to: 1,
                        bytes: 2048,
                        tag: 4,
                    },
                    Op::Waitall,
                ]),
                TaskProgram::single(vec![
                    Op::Irecv { from: 0, tag: 4 },
                    Op::Isend {
                        to: 0,
                        bytes: 2048,
                        tag: 5,
                    },
                    Op::Waitall,
                ]),
            ],
        };
        let res = run(small_cfg(), job);
        assert_eq!(res.stats.messages, 2);
        for node in 0..2 {
            assert_eq!(events_of(&res, node, EventCode::MpiEnd(MpiOp::Waitall)), 1);
        }
    }

    #[test]
    fn quantum_preemption_round_robins_threads() {
        // One CPU, two compute-bound threads: they must alternate, cutting
        // many dispatch records.
        let cfg = ClusterConfig {
            nodes: 1,
            cpus_per_node: 1,
            tasks_per_node: 1,
            threads_per_task: 2,
            quantum: Duration::from_millis(5),
            daemons_per_node: 0,
            clock_sample_period: Duration::ZERO,
            ..ClusterConfig::default()
        };
        let job = JobProgram {
            tasks: vec![TaskProgram {
                threads: vec![
                    vec![Op::Compute(Duration::from_millis(50))],
                    vec![Op::Compute(Duration::from_millis(50))],
                ],
            }],
        };
        let res = run(cfg, job);
        let dispatches = events_of(&res, 0, EventCode::ThreadDispatch);
        // 100 ms total work at 5 ms quantum ⇒ ~20 slices.
        assert!(
            dispatches >= 15,
            "expected preemption churn, got {dispatches}"
        );
        // Both threads appear in dispatch records.
        let mut seen = std::collections::HashSet::new();
        for e in &res.raw_files[0].events {
            if e.code == EventCode::ThreadDispatch {
                seen.insert(DispatchPayload::from_bytes(&e.payload).unwrap().thread);
            }
        }
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn threads_migrate_across_cpus() {
        // More threads than CPUs and frequent blocking: a thread should
        // eventually be dispatched on different CPUs (Figure 9).
        let cfg = ClusterConfig {
            nodes: 1,
            cpus_per_node: 2,
            tasks_per_node: 3,
            threads_per_task: 1,
            quantum: Duration::from_millis(2),
            daemons_per_node: 0,
            clock_sample_period: Duration::ZERO,
            ..ClusterConfig::default()
        };
        let ops: Vec<Op> = (0..20)
            .flat_map(|_| vec![Op::Compute(Duration::from_millis(3)), Op::Barrier])
            .collect();
        let job = JobProgram::spmd(3, |_| TaskProgram::single(ops.clone()));
        let res = run(cfg, job);
        let mut cpus_of_thread: HashMap<u16, std::collections::HashSet<u16>> = HashMap::new();
        for e in &res.raw_files[0].events {
            if e.code == EventCode::ThreadDispatch {
                let p = DispatchPayload::from_bytes(&e.payload).unwrap();
                cpus_of_thread
                    .entry(p.thread.raw())
                    .or_default()
                    .insert(p.cpu.raw());
            }
        }
        assert!(
            cpus_of_thread.values().any(|s| s.len() > 1),
            "expected at least one thread to run on multiple CPUs: {cpus_of_thread:?}"
        );
    }

    #[test]
    fn clock_records_cut_periodically_on_every_node() {
        let cfg = ClusterConfig {
            clock_sample_period: Duration::from_millis(20),
            ..small_cfg()
        };
        let job = JobProgram::spmd(2, |_| {
            TaskProgram::single(vec![Op::Compute(Duration::from_millis(100))])
        });
        let res = run(cfg, job);
        for node in 0..2 {
            let n = events_of(&res, node, EventCode::GlobalClock);
            assert!(n >= 5, "node {node} has only {n} clock records");
        }
    }

    #[test]
    fn markers_define_and_pair() {
        let job = JobProgram::spmd(2, |_| {
            TaskProgram::single(vec![
                Op::MarkerBegin("Init".into()),
                Op::Compute(Duration::from_millis(1)),
                Op::MarkerBegin("Inner".into()),
                Op::Compute(Duration::from_millis(1)),
                Op::MarkerEnd("Inner".into()),
                Op::MarkerEnd("Init".into()),
            ])
        });
        let res = run(small_cfg(), job);
        for node in 0..2 {
            assert_eq!(events_of(&res, node, EventCode::MarkerDef), 2);
            assert_eq!(events_of(&res, node, EventCode::MarkerBegin), 2);
            assert_eq!(events_of(&res, node, EventCode::MarkerEnd), 2);
        }
    }

    #[test]
    fn unmatched_marker_end_errors() {
        let job = JobProgram::spmd(2, |_| {
            TaskProgram::single(vec![Op::MarkerEnd("nope".into())])
        });
        let err = Simulator::new(small_cfg(), &job)
            .unwrap()
            .run()
            .unwrap_err();
        assert!(err.to_string().contains("without begin"), "{err}");
    }

    #[test]
    fn io_blocks_without_cpu() {
        let job = JobProgram::spmd(2, |_| {
            TaskProgram::single(vec![Op::Io(Duration::from_millis(30))])
        });
        let res = run(small_cfg(), job);
        for node in 0..2 {
            assert_eq!(events_of(&res, node, EventCode::IoStart), 1);
            assert_eq!(events_of(&res, node, EventCode::IoEnd), 1);
        }
        assert!(res.stats.end_time >= Time(30_000_000));
    }

    #[test]
    fn daemons_inject_system_activity() {
        let cfg = ClusterConfig {
            daemons_per_node: 2,
            daemon_period: Duration::from_millis(10),
            ..small_cfg()
        };
        let job = JobProgram::spmd(2, |_| {
            TaskProgram::single(vec![Op::Compute(Duration::from_millis(100))])
        });
        let res = run(cfg, job);
        for node in 0..2 {
            assert!(events_of(&res, node, EventCode::Interrupt) >= 5);
        }
        // Thread table includes system threads.
        assert_eq!(res.threads.of_type(ThreadType::System).count(), 4);
    }

    #[test]
    fn timestamps_are_local_and_drift_apart() {
        // Two nodes computing for 2 s: their trace-stop local timestamps
        // should differ by the configured drift (±12 ppm each way plus
        // offsets).
        let cfg = ClusterConfig {
            clock_sample_period: Duration::from_millis(500),
            ..small_cfg()
        };
        let job = JobProgram::spmd(2, |_| {
            TaskProgram::single(vec![Op::Compute(Duration::from_secs(2))])
        });
        let res = run(cfg, job);
        let stop0 = res.raw_files[0]
            .events
            .iter()
            .find(|e| e.code == EventCode::TraceStop)
            .unwrap()
            .timestamp;
        let stop1 = res.raw_files[1]
            .events
            .iter()
            .find(|e| e.code == EventCode::TraceStop)
            .unwrap()
            .timestamp;
        assert_ne!(stop0, stop1, "local clocks should disagree");
        // Node 0: +5 ppm, offset 0; node 1: -12 ppm, offset 50 µs.
        let diff = stop0.ticks() as i64 - stop1.ticks() as i64;
        // Expected ≈ 2 s · 17 ppm − 50 µs = 34 µs − 50 µs = −16 µs.
        assert!(diff.abs() < 1_000_000, "diff {diff} implausible");
    }

    #[test]
    fn per_node_event_streams_are_time_ordered() {
        let job = JobProgram::spmd(2, |r| {
            TaskProgram::single(vec![
                Op::Compute(Duration::from_millis(5)),
                Op::Send {
                    to: 1 - r,
                    bytes: 512,
                    tag: 1,
                },
                Op::Recv {
                    from: 1 - r,
                    tag: 1,
                },
                Op::Allreduce { bytes: 64 },
            ])
        });
        let res = run(small_cfg(), job);
        for f in &res.raw_files {
            for w in f.events.windows(2) {
                assert!(
                    w[0].timestamp <= w[1].timestamp,
                    "events out of order in node {} trace",
                    f.node
                );
            }
        }
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let job = JobProgram::spmd(2, |r| {
            TaskProgram::single(vec![
                Op::Compute(Duration::from_millis(3)),
                Op::Send {
                    to: 1 - r,
                    bytes: 256,
                    tag: 0,
                },
                Op::Recv {
                    from: 1 - r,
                    tag: 0,
                },
            ])
        });
        let a = run(small_cfg(), job.clone());
        let b = run(small_cfg(), job);
        assert_eq!(a.raw_files, b.raw_files);
    }

    #[test]
    fn wrong_task_count_rejected() {
        let job = JobProgram::spmd(3, |_| TaskProgram::single(vec![]));
        assert!(Simulator::new(small_cfg(), &job).is_err());
    }
}

#[cfg(test)]
mod extended_mpi_tests {
    use super::*;
    use crate::program::TaskProgram;
    use ute_rawtrace::record::MpiPayload as MP;

    fn cfg() -> ClusterConfig {
        ClusterConfig {
            nodes: 3,
            cpus_per_node: 2,
            tasks_per_node: 1,
            threads_per_task: 1,
            daemons_per_node: 0,
            clock_sample_period: Duration::from_millis(100),
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn init_finalize_bracket_the_job() {
        let job = JobProgram::spmd(3, |r| {
            TaskProgram::single(vec![
                Op::Init,
                Op::Compute(Duration::from_millis(r as u64 + 1)),
                Op::Finalize,
            ])
        });
        let res = Simulator::new(cfg(), &job).unwrap().run().unwrap();
        assert_eq!(res.stats.collectives, 2); // Init + Finalize
        for f in &res.raw_files {
            let codes: Vec<EventCode> = f
                .events
                .iter()
                .filter(|e| matches!(e.code, EventCode::MpiBegin(_) | EventCode::MpiEnd(_)))
                .map(|e| e.code)
                .collect();
            assert_eq!(codes.first(), Some(&EventCode::MpiBegin(MpiOp::Init)));
            assert_eq!(codes.last(), Some(&EventCode::MpiEnd(MpiOp::Finalize)));
        }
    }

    #[test]
    fn sendrecv_ring_exchanges_both_ways() {
        // Classic shift: everyone sendrecvs to the right / from the left.
        let job = JobProgram::spmd(3, |r| {
            TaskProgram::single(vec![
                Op::Init,
                Op::Sendrecv {
                    to: (r + 1) % 3,
                    from: (r + 2) % 3,
                    bytes: 4096,
                    tag: 0,
                },
                Op::Finalize,
            ])
        });
        let res = Simulator::new(cfg(), &job).unwrap().run().unwrap();
        assert_eq!(res.stats.messages, 3);
        for f in &res.raw_files {
            let begin = f
                .events
                .iter()
                .filter(|e| e.code == EventCode::MpiBegin(MpiOp::Sendrecv))
                .count();
            let ends: Vec<&ute_rawtrace::record::RawEvent> = f
                .events
                .iter()
                .filter(|e| e.code == EventCode::MpiEnd(MpiOp::Sendrecv))
                .collect();
            assert_eq!(begin, 1);
            assert_eq!(ends.len(), 1);
            let p = MP::from_bytes(&ends[0].payload).unwrap();
            assert_eq!(p.bytes, 4096);
            assert!(p.seq > 0);
        }
    }

    #[test]
    fn sendrecv_converts_with_both_byte_fields() {
        use ute_convert::convert_node;
        use ute_format::file::IntervalFileReader;
        use ute_format::profile::Profile;
        use ute_format::state::StateCode;

        let job = JobProgram::spmd(3, |r| {
            TaskProgram::single(vec![Op::Sendrecv {
                to: (r + 1) % 3,
                from: (r + 2) % 3,
                bytes: 2048,
                tag: 0,
            }])
        });
        let res = Simulator::new(cfg(), &job).unwrap().run().unwrap();
        let profile = Profile::standard();
        let markers = ute_convert::MarkerMap::build(&res.raw_files).unwrap();
        let out = convert_node(
            &res.raw_files[0],
            &res.threads,
            &profile,
            &markers,
            ute_format::file::FramePolicy::default(),
        )
        .unwrap();
        let r = IntervalFileReader::open(&out.interval_file, &profile).unwrap();
        let sr = r
            .intervals()
            .map(|x| x.unwrap())
            .find(|iv| {
                iv.itype.state == StateCode::mpi(MpiOp::Sendrecv) && iv.itype.bebits.ends_state()
            })
            .expect("sendrecv interval present");
        let sent = sr
            .extra(&profile, "msgSizeSent")
            .unwrap()
            .as_uint()
            .unwrap();
        let recvd = sr
            .extra(&profile, "msgSizeRecvd")
            .unwrap()
            .as_uint()
            .unwrap();
        assert_eq!(sent, 2048);
        assert_eq!(recvd, 2048);
    }
}

#[cfg(test)]
mod config_validation_tests {
    use super::*;
    use crate::program::TaskProgram;

    fn job() -> JobProgram {
        JobProgram::spmd(1, |_| {
            TaskProgram::single(vec![Op::Compute(Duration::from_millis(1))])
        })
    }

    #[test]
    fn degenerate_configs_rejected() {
        let base = ClusterConfig {
            nodes: 1,
            tasks_per_node: 1,
            threads_per_task: 1,
            ..ClusterConfig::default()
        };
        let zero_quantum = ClusterConfig {
            quantum: Duration::ZERO,
            ..base.clone()
        };
        assert!(Simulator::new(zero_quantum, &job()).is_err());
        let zero_daemon = ClusterConfig {
            daemons_per_node: 1,
            daemon_period: Duration::ZERO,
            ..base.clone()
        };
        assert!(Simulator::new(zero_daemon, &job()).is_err());
        let no_cpus = ClusterConfig {
            cpus_per_node: 0,
            ..base.clone()
        };
        assert!(Simulator::new(no_cpus, &job()).is_err());
        assert!(Simulator::new(base, &job()).is_ok());
    }
}
