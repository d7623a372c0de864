//! Program scripts executed by simulated tasks.
//!
//! A [`JobProgram`] is one [`TaskProgram`] per MPI rank; a task program is
//! one op list per thread (thread 0 is the MPI thread by convention,
//! matching the paper's sPPM setup: "There were four threads per MPI
//! process, one of which made MPI calls").

use ute_core::event::MpiOp;
use ute_core::time::Duration;

/// One operation of a simulated thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Burn CPU for the given (ideal) duration. Subject to preemption.
    Compute(Duration),
    /// MPI_Init: loosely synchronizes all ranks at startup.
    Init,
    /// MPI_Finalize: synchronizes all ranks at shutdown.
    Finalize,
    /// Combined send+receive in one call (exchanges with two peers).
    Sendrecv {
        /// Destination rank for the outgoing message.
        to: u32,
        /// Source rank for the incoming message.
        from: u32,
        /// Payload bytes each way.
        bytes: u64,
        /// Message tag.
        tag: u32,
    },
    /// Blocking standard send.
    Send {
        /// Destination rank.
        to: u32,
        /// Payload bytes.
        bytes: u64,
        /// Message tag.
        tag: u32,
    },
    /// Blocking receive (blocks — and deschedules — until matched).
    Recv {
        /// Source rank.
        from: u32,
        /// Message tag.
        tag: u32,
    },
    /// Non-blocking send; completes immediately after local overhead.
    Isend {
        /// Destination rank.
        to: u32,
        /// Payload bytes.
        bytes: u64,
        /// Message tag.
        tag: u32,
    },
    /// Non-blocking receive post; the matching [`Op::Wait`] blocks.
    Irecv {
        /// Source rank.
        from: u32,
        /// Message tag.
        tag: u32,
    },
    /// Wait for the `n`-th outstanding request of this thread (0-based,
    /// in post order).
    Wait {
        /// Request index.
        req: u32,
    },
    /// Wait for every outstanding request of this thread.
    Waitall,
    /// Barrier over all ranks.
    Barrier,
    /// Broadcast from `root`.
    Bcast {
        /// Root rank.
        root: u32,
        /// Bytes broadcast.
        bytes: u64,
    },
    /// Reduce to `root`.
    Reduce {
        /// Root rank.
        root: u32,
        /// Bytes contributed per task.
        bytes: u64,
    },
    /// Allreduce across all ranks.
    Allreduce {
        /// Bytes per task.
        bytes: u64,
    },
    /// All-to-all personalized exchange.
    Alltoall {
        /// Bytes per peer.
        bytes: u64,
    },
    /// Gather to root.
    Gather {
        /// Root rank.
        root: u32,
        /// Bytes per task.
        bytes: u64,
    },
    /// Scatter from root.
    Scatter {
        /// Root rank.
        root: u32,
        /// Bytes per task.
        bytes: u64,
    },
    /// Allgather across ranks.
    Allgather {
        /// Bytes per task.
        bytes: u64,
    },
    /// Enter a user-marked region (string defines the marker on first use).
    MarkerBegin(String),
    /// Leave the innermost-matching user-marked region.
    MarkerEnd(String),
    /// A system call consuming CPU briefly and cutting a Syscall event.
    Syscall,
    /// A page fault (point system event plus a short stall).
    PageFault,
    /// An I/O operation of the given length (IoStart/IoEnd events; the
    /// thread blocks without consuming CPU).
    Io(Duration),
}

impl Op {
    /// The collective routine this op calls, its root (`u32::MAX` when
    /// it has none) and its bytes per task; `None` for any other op.
    pub fn collective(&self) -> Option<(MpiOp, u32, u64)> {
        const NONE: u32 = u32::MAX;
        Some(match *self {
            Op::Init => (MpiOp::Init, NONE, 0),
            Op::Finalize => (MpiOp::Finalize, NONE, 0),
            Op::Barrier => (MpiOp::Barrier, NONE, 0),
            Op::Bcast { root, bytes } => (MpiOp::Bcast, root, bytes),
            Op::Reduce { root, bytes } => (MpiOp::Reduce, root, bytes),
            Op::Allreduce { bytes } => (MpiOp::Allreduce, NONE, bytes),
            Op::Alltoall { bytes } => (MpiOp::Alltoall, NONE, bytes),
            Op::Gather { root, bytes } => (MpiOp::Gather, root, bytes),
            Op::Scatter { root, bytes } => (MpiOp::Scatter, root, bytes),
            Op::Allgather { bytes } => (MpiOp::Allgather, NONE, bytes),
            _ => return None,
        })
    }
}

/// The per-thread scripts of one MPI task.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaskProgram {
    /// `threads[i]` is thread `i`'s op list; thread 0 is the MPI thread.
    pub threads: Vec<Vec<Op>>,
}

impl TaskProgram {
    /// A single-threaded task running `ops`.
    pub fn single(ops: Vec<Op>) -> TaskProgram {
        TaskProgram { threads: vec![ops] }
    }

    /// A task with an MPI thread and `workers` identical worker scripts.
    pub fn with_workers(mpi_ops: Vec<Op>, worker_ops: Vec<Op>, workers: usize) -> TaskProgram {
        let mut threads = vec![mpi_ops];
        threads.extend(std::iter::repeat_n(worker_ops, workers));
        TaskProgram { threads }
    }
}

/// The whole job: one task program per rank.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobProgram {
    /// `tasks[r]` is rank `r`'s program.
    pub tasks: Vec<TaskProgram>,
}

impl JobProgram {
    /// An SPMD job: every rank runs the same program, parameterized by its
    /// rank.
    pub fn spmd(ntasks: u32, f: impl Fn(u32) -> TaskProgram) -> JobProgram {
        JobProgram {
            tasks: (0..ntasks).map(f).collect(),
        }
    }

    /// Total op count across all threads (a size proxy).
    pub fn total_ops(&self) -> usize {
        self.tasks
            .iter()
            .flat_map(|t| t.threads.iter())
            .map(|ops| ops.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spmd_builder() {
        let job = JobProgram::spmd(4, |r| {
            TaskProgram::single(vec![Op::Compute(Duration::from_millis(r as u64 + 1))])
        });
        assert_eq!(job.tasks.len(), 4);
        assert_eq!(job.total_ops(), 4);
        assert_ne!(job.tasks[0], job.tasks[3]);
    }

    #[test]
    fn with_workers_layout() {
        let t = TaskProgram::with_workers(
            vec![Op::Barrier],
            vec![Op::Compute(Duration::from_secs(1))],
            3,
        );
        assert_eq!(t.threads.len(), 4);
        assert_eq!(t.threads[0], vec![Op::Barrier]);
        assert_eq!(t.threads[1], t.threads[3]);
    }
}
