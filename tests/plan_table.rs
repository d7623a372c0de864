//! Record plans are compiled once per `(profile, mask)` pair and shared
//! by every reader and writer of the pair: a directory's per-node files
//! and the merged file made from them compile one plan set per mask,
//! whatever the worker count. And a pair never receives another pair's
//! plans — a profile of other content, or another mask, compiles its own
//! and writes and reads its own bytes.

use std::slice;
use std::sync::{Mutex, PoisonError};

use ute::cluster::Simulator;
use ute::convert::{convert_job_pooled, ConvertOptions};
use ute::core::ids::{CpuId, LogicalThreadId, NodeId};
use ute::format::datatype::FieldType;
use ute::format::file::{FramePolicy, IntervalFileReader, IntervalFileWriter, MERGED_NODE};
use ute::format::plan::PlanSet;
use ute::format::profile::{FieldSpec, Profile, MASK_MERGED, MASK_PER_NODE};
use ute::format::record::{Interval, IntervalType};
use ute::format::state::StateCode;
use ute::format::thread_table::ThreadTable;
use ute::format::value::Value;
use ute::merge::{merge_files_jobs, slogmerge_jobs, MergeOptions};
use ute::slog::builder::BuildOptions;
use ute::workloads::micro;

/// The tests here read the process's count of compiled plan sets: one
/// at a time, so that no other test's compiles land in a count.
static SERIAL: Mutex<()> = Mutex::new(());

/// Every record of an interval file, read through a reader of its own.
fn read_all(file: &[u8], profile: &Profile) -> Vec<Interval> {
    let r = IntervalFileReader::open(file, profile).unwrap();
    r.records()
        .map(|rec| rec.unwrap().into_interval())
        .collect()
}

#[test]
fn a_directory_and_its_merge_compile_one_plan_set_per_mask() {
    let _one = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let w = micro::stencil(6, 8, 8 << 10);
    let run = Simulator::new(w.config, &w.job).unwrap().run().unwrap();
    // A profile no other test uses, so its plans are first compiled here.
    let mut profile = Profile::standard();
    profile.version ^= 0x5eed_0000;
    let opts = MergeOptions::default();
    let before = PlanSet::compiled();
    for jobs in [1, 4] {
        let converted = convert_job_pooled(
            &run.raw_files,
            &run.threads,
            &profile,
            &ConvertOptions::default(),
            jobs,
        )
        .unwrap();
        let files: Vec<&[u8]> = converted.iter().map(|c| &c.interval_file[..]).collect();
        let merged = merge_files_jobs(&files, &profile, &opts, jobs)
            .unwrap()
            .merged;
        let build = BuildOptions::default();
        slogmerge_jobs(&files, &profile, &opts, build, jobs).unwrap();
        let records: usize = files.iter().map(|f| read_all(f, &profile).len()).sum();
        assert!(records > 0);
        assert!(read_all(&merged, &profile).len() >= records);
    }
    assert_eq!(
        PlanSet::compiled() - before,
        2,
        "one plan set for the per-node mask, one for the merged mask"
    );
}

/// A file of one record.
fn one_record_file(profile: &Profile, mask: u32, node: u16, iv: &Interval) -> Vec<u8> {
    let mut w = IntervalFileWriter::new(
        profile,
        mask,
        node,
        &ThreadTable::new(),
        &[],
        FramePolicy::default(),
    );
    w.push(iv).unwrap();
    w.finish()
}

#[test]
fn plans_never_cross_profiles_or_masks() {
    let _one = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let running = IntervalType::complete(StateCode::RUNNING);
    let plain = Profile::standard();
    // The same version and names, and one more field in a running
    // record: a table keyed by anything short of the content would hand
    // `weighed` the plans of `plain`, or the other way round.
    let mut weighed = Profile::standard();
    let weight = weighed.intern_field_name("weight");
    weighed
        .specs
        .get_mut(&running.to_u32())
        .unwrap()
        .fields
        .push(FieldSpec::scalar(weight, FieldType::U64));
    assert_eq!(plain.version, weighed.version);

    let iv = Interval::basic(running, 100, 20, CpuId(1), NodeId(3), LogicalThreadId(2));
    let heavy = iv
        .clone()
        .with_extra(&weighed, "weight", Value::Uint(0xfeed));
    let sides = [(&plain, &iv, 0), (&weighed, &heavy, 8)];
    for (first, second) in [(sides[0], sides[1]), (sides[1], sides[0])] {
        for mask in [MASK_PER_NODE, MASK_MERGED] {
            let node = if mask == MASK_MERGED { MERGED_NODE } else { 3 };
            let [a, b] = [first, second].map(|(p, rec, _)| one_record_file(p, mask, node, rec));
            // The weight is 8 more bytes of the one record.
            assert_eq!(a.len() - first.2, b.len() - second.2, "{mask}");
            assert_eq!(read_all(&a, first.0), slice::from_ref(first.1), "{mask}");
            assert_eq!(read_all(&b, second.0), slice::from_ref(second.1), "{mask}");
        }
    }
    // The two masks of one profile: the merged record holds its node.
    let moved = Interval {
        node: NodeId(5),
        ..heavy.clone()
    };
    let per_node = one_record_file(&weighed, MASK_PER_NODE, 3, &heavy);
    let merged = one_record_file(&weighed, MASK_MERGED, MERGED_NODE, &moved);
    assert_eq!(merged.len(), per_node.len() + 2);
    assert_eq!(read_all(&merged, &weighed), [moved]);
    assert_eq!(read_all(&per_node, &weighed), slice::from_ref(&heavy));

    // A pair compiles once, however many files it reads and writes.
    let mut other = weighed.clone();
    other.version ^= 0x0c0f_fee0;
    let before = PlanSet::compiled();
    for _ in 0..3 {
        let file = one_record_file(&other, MASK_MERGED, MERGED_NODE, &heavy);
        read_all(&file, &other);
    }
    assert_eq!(PlanSet::compiled() - before, 1);
}
