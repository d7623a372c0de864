//! What a captured span records beyond wall time: per-thread CPU time
//! via `CLOCK_THREAD_CPUTIME_ID`, and the stage-slot thread-local the
//! counting allocator attributes to.
//!
//! Both ride on the one capture switch ([`crate::span::set_capture`]).
//! With capture off, a span open costs one relaxed atomic load here and
//! nothing else; with it on, each open and close reads the thread CPU
//! clock and moves the stage slot. Slots heal under panics for the same
//! reason the span stack does: a worker unwinding through
//! `catch_unwind` still runs every `Span::drop`, and each drop restores
//! the slot its open replaced.

use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    /// Stage slot of the innermost captured span (0 = none). Const-init
    /// and drop-free so the counting allocator can read it from inside
    /// `GlobalAlloc` without touching the TLS destructor machinery.
    static STAGE_SLOT: Cell<usize> = const { Cell::new(0) };
}

/// Makes `stage` the calling thread's active allocation slot. Returns
/// the previous slot for the span to hand back to [`slot_restore`].
pub(crate) fn slot_enter(stage: &'static str) -> usize {
    STAGE_SLOT.with(|c| c.replace(stage_slot(stage)))
}

/// Restores the allocation slot a closing span replaced at open.
pub(crate) fn slot_restore(prev_slot: usize) {
    STAGE_SLOT.with(|c| c.set(prev_slot));
}

// ---------------------------------------------------------------------
// Stage slots — the allocator-visible view of "what stage am I in".
// ---------------------------------------------------------------------

/// Capacity of the stage-slot table the counting allocator indexes.
/// Slot 0 means "no captured span active" (unattributed); stages past
/// the capacity also fall into slot 0 rather than failing.
pub const MAX_STAGE_SLOTS: usize = 64;

fn slot_names() -> &'static Mutex<Vec<&'static str>> {
    static NAMES: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    NAMES.get_or_init(|| Mutex::new(Vec::new()))
}

/// Dense 1-based slot for a stage name, registering it on first use;
/// 0 once the table is full.
fn stage_slot(stage: &'static str) -> usize {
    let mut names = slot_names().lock();
    if let Some(i) = names.iter().position(|&n| n == stage) {
        return i + 1;
    }
    if names.len() + 1 >= MAX_STAGE_SLOTS {
        return 0;
    }
    names.push(stage);
    names.len()
}

/// The stage slot of the captured span active on the calling thread
/// (0 = none). Allocation-free and lock-free: safe to call from inside
/// a global allocator.
#[inline]
pub fn current_stage_slot() -> usize {
    STAGE_SLOT.with(|c| c.get())
}

/// The stage name registered in `slot`, if any (slot 0 is never named).
pub fn stage_slot_name(slot: usize) -> Option<&'static str> {
    if slot == 0 {
        return None;
    }
    slot_names().lock().get(slot - 1).copied()
}

/// The slot already registered for `stage`, without registering it.
pub fn stage_slot_of(stage: &str) -> Option<usize> {
    slot_names()
        .lock()
        .iter()
        .position(|&n| n == stage)
        .map(|i| i + 1)
}

// ---------------------------------------------------------------------
// Per-thread CPU time.
// ---------------------------------------------------------------------

/// Nanoseconds of CPU time consumed by the calling thread, from
/// `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`. Returns 0 where the clock
/// is unavailable (see [`cpu_clock_supported`]), so utilization ratios
/// degrade to 0 rather than lying.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu_ns() -> u64 {
    // Called directly rather than through the `libc` crate (not
    // vendored); std already links the symbol on Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid writable timespec matching the 64-bit
    // Linux ABI layout.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return 0;
    }
    (ts.tv_sec as u64).saturating_mul(1_000_000_000) + ts.tv_nsec as u64
}

/// Fallback for platforms without a known thread CPU clock ABI.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_cpu_ns() -> u64 {
    0
}

/// Whether [`thread_cpu_ns`] reads a real clock on this platform.
pub fn cpu_clock_supported() -> bool {
    cfg!(all(target_os = "linux", target_pointer_width = "64"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{set_capture, tests::capture_lock, Span};

    #[test]
    fn stage_slots_nest_and_restore() {
        let _guard = capture_lock();
        set_capture(true);
        std::thread::scope(|s| {
            s.spawn(|| {
                assert_eq!(current_stage_slot(), 0);
                {
                    let _a = Span::stage("test-prof-slot-a");
                    let a = current_stage_slot();
                    assert_eq!(stage_slot_name(a), Some("test-prof-slot-a"));
                    let b = {
                        let _b = Span::stage("test-prof-slot-b");
                        let b = current_stage_slot();
                        assert_ne!(a, b);
                        assert_eq!(stage_slot_name(b), Some("test-prof-slot-b"));
                        b
                    };
                    assert_eq!(current_stage_slot(), a);
                    assert_eq!(stage_slot_of("test-prof-slot-b"), Some(b));
                }
                assert_eq!(current_stage_slot(), 0);
            })
            .join()
            .unwrap();
        });
        set_capture(false);
    }

    #[test]
    fn cpu_clock_advances_under_load() {
        if !cpu_clock_supported() {
            return;
        }
        let before = thread_cpu_ns();
        // Busy work the optimizer cannot remove.
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc);
        assert!(thread_cpu_ns() > before, "thread CPU clock did not advance");
    }

    #[test]
    fn captured_spans_carry_their_cpu_time() {
        let _guard = capture_lock();
        set_capture(true);
        {
            let _s = Span::stage("test-prof-cpu");
            let mut acc = 0u64;
            for i in 0..500_000u64 {
                acc = acc.wrapping_mul(2862933555777941757).wrapping_add(i);
            }
            std::hint::black_box(acc);
        }
        set_capture(false);
        let span = crate::span::captured_spans()
            .into_iter()
            .find(|s| s.stage == "test-prof-cpu")
            .expect("captured span is in the log");
        if cpu_clock_supported() {
            assert!(span.cpu_ns > 0, "cpu_ns recorded as zero under busy work");
            assert!(span.cpu_ns <= span.dur_ns + 1_000_000, "cpu beyond wall");
        }
    }
}
