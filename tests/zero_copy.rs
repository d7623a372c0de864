//! Zero-copy safety wall: the validate-then-view raw decoder must never
//! panic or read out of bounds on hostile input, and must stay
//! observationally identical to the retired copy-decoder (kept as
//! `RawTraceFile::from_bytes_reference`). The same properties are
//! asserted over a real memory-mapped file, where an out-of-bounds slice
//! would fault instead of merely failing an assert.

use proptest::prelude::*;

use ute::cluster::Simulator;
use ute::core::mmap::map_file;
use ute::faults::FaultPlan;
use ute::rawtrace::{salvage_views, RawTraceFile, RawTraceView};
use ute::workloads::micro::ping_pong;

/// One node's valid raw trace bytes, built once per case.
fn raw_bytes() -> Vec<u8> {
    let w = ping_pong(4, 2048);
    let sim = Simulator::new(w.config, &w.job).unwrap().run().unwrap();
    sim.raw_files[0].to_bytes().unwrap()
}

/// Exhausts every view-layer entry point over possibly-hostile bytes.
/// Every payload slice handed out must sit inside the input buffer —
/// the zero-copy contract that makes mmap-backed decoding safe.
fn consume_views(bytes: &[u8]) {
    let range = bytes.as_ptr_range();
    if let Ok(view) = RawTraceView::open(bytes) {
        let mut n = 0usize;
        for v in view.events() {
            assert!(v.payload.is_empty() || range.contains(&v.payload.as_ptr()));
            assert!(v.payload.len() <= bytes.len());
            n += 1;
        }
        assert!(n <= view.records, "iterator yielded beyond validated count");
    }
    if let Ok(sv) = salvage_views(bytes) {
        assert_eq!(sv.report.records, sv.events.len() as u64);
        for v in &sv.events {
            assert!(v.payload.is_empty() || range.contains(&v.payload.as_ptr()));
        }
    }
}

/// Fast and reference decoders compared over the same bytes: same file
/// or same error strictly, same events and same report in salvage mode.
fn assert_fast_matches_reference(bytes: &[u8]) {
    match (
        RawTraceFile::from_bytes(bytes),
        RawTraceFile::from_bytes_reference(bytes),
    ) {
        (Ok(a), Ok(b)) => assert_eq!(a, b),
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
        (a, b) => panic!(
            "strict decode disagreement: fast {:?} vs reference {:?}",
            a.map(|f| f.events.len()),
            b.map(|f| f.events.len())
        ),
    }
    match (
        RawTraceFile::from_bytes_salvage(bytes),
        RawTraceFile::from_bytes_salvage_reference(bytes),
    ) {
        (Ok((a, ra)), Ok((b, rb))) => {
            assert_eq!(a, b);
            assert_eq!(ra, rb);
        }
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
        (a, b) => panic!(
            "salvage disagreement: fast {:?} vs reference {:?}",
            a.map(|(f, _)| f.events.len()),
            b.map(|(f, _)| f.events.len())
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary bit flips + truncation: the view layer neither panics
    /// nor hands out a slice pointing outside the buffer, and the fast
    /// decoders stay identical to the reference decoders.
    #[test]
    fn mutated_raw_bytes_never_break_the_view_contract(
        flips in prop::collection::vec((0usize..1_000_000, any::<u8>()), 0..12),
        truncate_frac in 0.0f64..1.0,
    ) {
        let mut bytes = raw_bytes();
        for (pos, val) in &flips {
            let len = bytes.len();
            bytes[pos % len] = *val;
        }
        let cut = ((bytes.len() as f64) * truncate_frac) as usize;
        for input in [&bytes[..], &bytes[..cut]] {
            consume_views(input);
            assert_fast_matches_reference(input);
        }
    }

    /// Structured damage from the fault-injection planner (truncations,
    /// bit flips, overrun splices — the shapes real crashes leave):
    /// same contract, including over pure garbage prefixes.
    #[test]
    fn fault_plan_damage_never_breaks_the_view_contract(seed in any::<u64>()) {
        let clean = raw_bytes();
        let plan = FaultPlan::byte_level_from_seed(seed, 1);
        if let Some(damaged) = plan.apply_to_file(0, clean.clone(), 0) {
            consume_views(&damaged);
            assert_fast_matches_reference(&damaged);
        }
        // Headerless garbage must be rejected without panicking.
        consume_views(&clean[5..]);
        assert_fast_matches_reference(&clean[5..]);
    }
}

/// Salvage resync over a genuinely memory-mapped damaged file: the
/// borrowed views point into the mapping, the recovered sequence equals
/// the owned decoder's, and dropping the views before the mapping is
/// enforced by the borrow checker (this test is the compile-time proof).
#[test]
fn salvage_runs_on_a_memory_mapped_file() {
    let mut bytes = raw_bytes();
    // Damage a mid-file record and chop the tail mid-record.
    let mid = bytes.len() / 2;
    bytes[mid..mid + 4].copy_from_slice(&0xffff_ffffu32.to_le_bytes());
    bytes.truncate(bytes.len() - 3);

    let dir = std::env::temp_dir().join(format!("ute_zero_copy_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("damaged.raw");
    std::fs::write(&path, &bytes).unwrap();

    let mapped = map_file(&path).unwrap();
    let range = mapped.as_ptr_range();
    let sv = salvage_views(&mapped).unwrap();
    assert!(!sv.report.is_clean(), "damage went unnoticed");
    assert!(!sv.events.is_empty(), "salvage recovered nothing");
    for v in &sv.events {
        assert!(v.payload.is_empty() || range.contains(&v.payload.as_ptr()));
    }
    let (owned, report) = RawTraceFile::from_bytes_salvage(&bytes).unwrap();
    assert_eq!(sv.report, report);
    assert_eq!(sv.events.len(), owned.events.len());
    for (v, o) in sv.events.iter().zip(&owned.events) {
        assert_eq!(v.to_owned(), *o);
    }

    // The high-level mmap ingestion path agrees too.
    let (from_disk, disk_report) = RawTraceFile::read_from_salvage(&path).unwrap();
    assert_eq!(from_disk, owned);
    assert_eq!(disk_report, report);
    std::fs::remove_file(&path).unwrap();
}
