//! Seeded record streams shared by the read-path and merge-path tests,
//! and the convert → merge run the pipeline, fault and profile tests
//! drive.
// Each test crate uses its own subset.
#![allow(dead_code)]

use ute::convert::{convert_job_pooled, ConvertOptions, ConvertOutput};
use ute::core::bebits::BeBits;
use ute::core::error::Result;
use ute::core::event::MpiOp;
use ute::core::ids::{CpuId, LogicalThreadId, NodeId};
use ute::format::file::{FramePolicy, IntervalFileWriter, MERGED_NODE};
use ute::format::profile::{Profile, MASK_MERGED, MASK_PER_NODE};
use ute::format::record::{Interval, IntervalType};
use ute::format::state::StateCode;
use ute::format::thread_table::ThreadTable;
use ute::format::value::Value;
use ute::merge::{merge_files_jobs, MergeOptions, MergeOutput};
use ute::rawtrace::RawTraceFile;

/// What `ute convert` then `ute merge` run at `--jobs N`, minus the
/// publish of the converted files in between: the converted per-node
/// files and the merge over their bytes.
pub fn convert_then_merge(
    files: &[RawTraceFile],
    threads: &ThreadTable,
    profile: &Profile,
    copts: &ConvertOptions,
    mopts: &MergeOptions,
    jobs: usize,
) -> Result<(Vec<ConvertOutput>, MergeOutput)> {
    let converted = convert_job_pooled(files, threads, profile, copts, jobs)?;
    let refs: Vec<&[u8]> = converted
        .iter()
        .map(|c| c.interval_file.as_slice())
        .collect();
    let merged = merge_files_jobs(&refs, profile, mopts, jobs)?;
    Ok((converted, merged))
}

/// A small deterministic generator, so one proptest seed expands into a
/// whole record stream or statistics program.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// One record of every shape the standard profile has: no extras, scalar
/// extras, the `reqSeqs` vector, a marker id, a clock pair.
pub fn random_interval(rng: &mut Rng, p: &Profile, node: u16) -> Interval {
    let bebits = rng.pick(&[
        BeBits::Complete,
        BeBits::Begin,
        BeBits::Continuation,
        BeBits::End,
    ]);
    let base = |state: StateCode, rng: &mut Rng| {
        Interval::basic(
            IntervalType { state, bebits },
            rng.below(1 << 20),
            rng.below(1 << 12),
            CpuId(rng.below(4) as u16),
            NodeId(node),
            LogicalThreadId(rng.below(8) as u16),
        )
    };
    let uint = |rng: &mut Rng, bits: u32| Value::Uint(rng.next() >> (64 - bits));
    match rng.below(7) {
        0 => base(StateCode::RUNNING, rng),
        1 => base(StateCode::SYSCALL, rng),
        2 => base(StateCode::MARKER, rng)
            .with_extra(p, "markerId", uint(rng, 32))
            .with_extra(p, "address", uint(rng, 64))
            .with_extra(p, "addressEnd", uint(rng, 64)),
        3 => base(StateCode::CLOCK, rng).with_extra(p, "globalTime", uint(rng, 40)),
        4 => base(StateCode::mpi(MpiOp::Send), rng)
            .with_extra(p, "rank", uint(rng, 4))
            // `u32::MAX` is the converter's "no peer".
            .with_extra(
                p,
                "peer",
                Value::Uint(if rng.below(4) == 0 {
                    u32::MAX as u64
                } else {
                    rng.below(16)
                }),
            )
            .with_extra(p, "tag", uint(rng, 8))
            .with_extra(p, "msgSizeSent", uint(rng, 20))
            .with_extra(p, "seq", uint(rng, 10))
            .with_extra(p, "address", uint(rng, 64)),
        5 => base(StateCode::mpi(MpiOp::Recv), rng)
            .with_extra(p, "rank", uint(rng, 4))
            .with_extra(p, "peer", uint(rng, 4))
            .with_extra(p, "tag", uint(rng, 8))
            .with_extra(p, "msgSizeRecvd", uint(rng, 20))
            .with_extra(p, "seq", uint(rng, 10))
            .with_extra(p, "address", uint(rng, 64)),
        _ => {
            let n = rng.below(40) * rng.below(10); // 0 ..= 351: both prefix widths
            let seqs: Vec<u64> = (0..n).map(|_| rng.next()).collect();
            base(StateCode::mpi(MpiOp::Waitall), rng)
                .with_extra(p, "rank", uint(rng, 4))
                .with_extra(p, "reqSeqs", Value::UintVec(seqs.into()))
                .with_extra(p, "address", uint(rng, 64))
        }
    }
}

/// Writes `n` random records as a per-node (node 3) or merged file.
pub fn random_file(rng: &mut Rng, p: &Profile, merged: bool, n: usize) -> Vec<u8> {
    let mut ivs: Vec<Interval> = (0..n)
        .map(|_| {
            let node = if merged { rng.below(6) as u16 } else { 3 };
            random_interval(rng, p, node)
        })
        .collect();
    ivs.sort_by_key(|iv| iv.end());
    let mut w = IntervalFileWriter::new(
        p,
        if merged { MASK_MERGED } else { MASK_PER_NODE },
        if merged { MERGED_NODE } else { 3 },
        &ThreadTable::new(),
        &[(1, "Phase".into())],
        FramePolicy {
            max_records_per_frame: 1 + rng.below(24) as usize,
            max_frames_per_dir: 1 + rng.below(6) as usize,
        },
    );
    for iv in &ivs {
        w.push(iv).unwrap();
    }
    w.finish()
}
