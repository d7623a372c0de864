//! # ute-cluster — the IBM SP substitute
//!
//! The paper's trace environment runs on an IBM SP: a cluster of SMP nodes
//! connected by a high-performance switch, running multi-threaded MPI
//! programs under AIX. We have no such machine, so this crate provides a
//! **deterministic discrete-event simulator** with the same observable
//! behaviour, because everything downstream (convert, merge, statistics,
//! visualization) consumes only the *event streams* the machine produces:
//!
//! * SMP nodes with a configurable number of CPUs ([`config`]);
//! * kernel-style thread scheduling with a time quantum, ready queues and
//!   free migration between the CPUs of a node — producing genuine
//!   `ThreadDispatch`/`ThreadUndispatch` records, thread migration (the
//!   paper's Figure 9) and split MPI intervals;
//! * an MPI model ([`program`], [`engine`]) where blocking receives and
//!   collectives *actually block* — descheduling the thread mid-call,
//!   which is precisely what forces the begin/continuation/end interval
//!   pieces of §1.2;
//! * a switch network with latency and bandwidth, assigning the per-send
//!   sequence numbers that let utilities match sends with receives;
//! * per-node drifting local clocks stamping every record, plus a
//!   periodic global-clock sampler cutting (G, L) records (§2.2);
//! * optional system daemon threads and system events (syscalls, page
//!   faults, I/O) mixed into the same per-node trace stream, as the AIX
//!   facility does.
//!
//! Running a [`program::JobProgram`] through [`engine::Simulator`] yields
//! one raw trace file per node, as the bytes each node's trace buffer
//! encoded ([`Simulator::run_bytes`]) or decoded ([`Simulator::run`]),
//! plus the ground-truth thread table.

pub mod config;
pub mod engine;
pub mod program;

pub use config::{ClusterConfig, NetworkModel};
pub use engine::{SimBytes, SimResult, SimStats, Simulator};
pub use program::{JobProgram, Op, TaskProgram};
