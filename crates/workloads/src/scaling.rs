//! The Table 1 workload: "trace files created by a test program with 4
//! MPI tasks, each of which has 4 threads. ... The test program was
//! executed several times with different problem sizes and parameters, so
//! that the numbers of raw events are different."
//!
//! [`scaled_job`] exposes that size knob: each iteration of the inner
//! loop produces a roughly constant number of raw events (MPI begin/end
//! pairs, dispatch churn from the blocking receives, marker and system
//! events), so the event count grows linearly with `iterations`.

use ute_cluster::config::ClusterConfig;
use ute_cluster::program::{JobProgram, Op, TaskProgram};
use ute_core::time::Duration;

use crate::Workload;

/// The paper's six Table 1 trace sizes (raw event counts).
pub const TABLE1_EVENT_COUNTS: [u64; 6] =
    [40_282, 128_378, 254_225, 641_354, 4_613_568, 11_216_936];

/// Builds the 4-task × 4-thread test program with `iterations` inner
/// loops per task.
pub fn scaled_job(iterations: u32) -> Workload {
    let config = ClusterConfig {
        nodes: 4,
        cpus_per_node: 2,
        tasks_per_node: 1,
        threads_per_task: 4,
        quantum: Duration::from_micros(500),
        daemons_per_node: 1,
        daemon_period: Duration::from_millis(5),
        clock_sample_period: Duration::from_millis(50),
        ..ClusterConfig::default()
    };
    let ntasks = config.total_tasks();
    let job = JobProgram::spmd(ntasks, |rank| {
        let right = (rank + 1) % ntasks;
        let left = (rank + ntasks - 1) % ntasks;
        let mut mpi = vec![Op::MarkerBegin("loop".into())];
        for i in 0..iterations {
            mpi.push(Op::Compute(Duration::from_micros(50)));
            mpi.push(Op::Irecv { from: left, tag: 0 });
            mpi.push(Op::Isend {
                to: right,
                bytes: 256,
                tag: 0,
            });
            mpi.push(Op::Waitall);
            if i % 8 == 7 {
                mpi.push(Op::Allreduce { bytes: 8 });
            }
        }
        mpi.push(Op::MarkerEnd("loop".into()));
        // Worker threads churn the scheduler (dispatch events) and add
        // system activity.
        let worker: Vec<Op> = (0..iterations)
            .flat_map(|i| {
                let mut v = vec![Op::Compute(Duration::from_micros(120))];
                if i % 16 == 0 {
                    v.push(Op::Syscall);
                }
                v
            })
            .collect();
        TaskProgram {
            threads: vec![mpi, worker.clone(), worker.clone(), worker],
        }
    });
    Workload {
        name: "table1_scaling",
        config,
        job,
    }
}

/// Raw events produced per iteration, used by the Table 1 bench to pick
/// iteration counts hitting the paper's sizes. Measured with `ute trace
/// --workload scaling`: 41,204 / 164,624 / 658,352 raw events at 1,000 /
/// 4,000 / 16,000 iterations, a slope of 41.14 (the
/// `table1_scaling_is_linear` test holds it to the paper's counts).
pub const EVENTS_PER_ITERATION: f64 = 41.14;

/// Iterations needed to produce roughly `events` raw events.
pub fn iterations_for_events(events: u64) -> u32 {
    ((events as f64 / EVENTS_PER_ITERATION).ceil() as u32).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ute_cluster::Simulator;

    #[test]
    fn matches_paper_topology() {
        let w = scaled_job(4);
        assert_eq!(w.job.tasks.len(), 4);
        for t in &w.job.tasks {
            assert_eq!(t.threads.len(), 4);
        }
    }

    #[test]
    fn table1_scaling_is_linear() {
        let events = |iterations: u32| {
            let w = scaled_job(iterations);
            let res = Simulator::new(w.config, &w.job).unwrap().run_bytes();
            res.unwrap().stats.events_cut
        };
        let (small, large) = (events(32), events(128));
        let ratio = large as f64 / small as f64;
        assert!(
            (3.0..5.0).contains(&ratio),
            "events should scale ~4x: {small} → {large} ({ratio:.2}x)"
        );
        // The calibration hits the paper's first two counts within 2 %.
        for &paper in &TABLE1_EVENT_COUNTS[..2] {
            let cut = events(iterations_for_events(paper));
            let deviation = (cut as f64 / paper as f64 - 1.0).abs();
            assert!(
                deviation < 0.02,
                "calibration drifted: {cut} events for the paper's {paper}"
            );
        }
    }

    #[test]
    fn iteration_helper_is_monotone() {
        let mut last = 0;
        for &e in &TABLE1_EVENT_COUNTS {
            let it = iterations_for_events(e);
            assert!(it > last);
            last = it;
        }
    }
}
