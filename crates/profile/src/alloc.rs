//! Feature-gated counting global allocator.
//!
//! With the `count-allocs` feature on, this crate installs a
//! `#[global_allocator]` that wraps the system allocator and, while
//! span capture is on, attributes every allocation (count and bytes)
//! to the stage slot of the innermost captured span on the allocating
//! thread (`ute_obs::current_stage_slot`). Slot 0 collects allocations
//! made outside any captured span.
//!
//! The recording path is strictly atomics on fixed static arrays — no
//! locks, no allocation, no TLS destructors — because it runs inside
//! `GlobalAlloc`. Disarmed (capture off) it costs one relaxed load
//! per allocation; with the feature off entirely, the system allocator
//! is untouched and [`slot_alloc_stats`] reports zeros.

/// Allocation totals attributed to one stage slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Number of allocation calls (alloc, alloc_zeroed, realloc).
    pub allocs: u64,
    /// Total bytes requested by those calls.
    pub bytes: u64,
}

/// Whether the counting allocator is compiled in.
pub fn tracking_enabled() -> bool {
    cfg!(feature = "count-allocs")
}

/// Allocation totals for a stage slot (see `ute_obs::stage_slot_of`).
/// Zeros when the feature is off or the slot is out of range.
pub fn slot_alloc_stats(slot: usize) -> AllocStats {
    #[cfg(feature = "count-allocs")]
    {
        use std::sync::atomic::Ordering;
        if slot < ute_obs::MAX_STAGE_SLOTS {
            return AllocStats {
                allocs: imp::ALLOCS[slot].load(Ordering::Relaxed),
                bytes: imp::BYTES[slot].load(Ordering::Relaxed),
            };
        }
        AllocStats::default()
    }
    #[cfg(not(feature = "count-allocs"))]
    {
        let _ = slot;
        AllocStats::default()
    }
}

/// Allocation totals for a stage by name; zeros when the stage never
/// ran a captured span (no slot) or tracking is off.
pub fn stage_alloc_stats(stage: &str) -> AllocStats {
    match ute_obs::stage_slot_of(stage) {
        Some(slot) => slot_alloc_stats(slot),
        None => AllocStats::default(),
    }
}

#[cfg(feature = "count-allocs")]
mod imp {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};
    use ute_obs::MAX_STAGE_SLOTS;

    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);
    pub(super) static ALLOCS: [AtomicU64; MAX_STAGE_SLOTS] = [ZERO; MAX_STAGE_SLOTS];
    pub(super) static BYTES: [AtomicU64; MAX_STAGE_SLOTS] = [ZERO; MAX_STAGE_SLOTS];

    /// The counting wrapper around the system allocator.
    pub struct CountingAlloc;

    #[inline]
    fn record(size: usize) {
        if !ute_obs::capture_enabled() {
            return;
        }
        let slot = ute_obs::current_stage_slot().min(MAX_STAGE_SLOTS - 1);
        ALLOCS[slot].fetch_add(1, Ordering::Relaxed);
        BYTES[slot].fetch_add(size as u64, Ordering::Relaxed);
    }

    // SAFETY: delegates every operation to the system allocator; the
    // counting side effect touches only static atomics.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            record(layout.size());
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            record(layout.size());
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            record(new_size);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;
}

#[cfg(all(test, feature = "count-allocs"))]
mod tests {
    use super::*;
    use ute_obs::Span;

    #[test]
    fn allocations_attribute_to_the_active_stage() {
        ute_obs::set_capture(true);
        let grown = {
            let _s = Span::stage("test-profile-alloc");
            let before = stage_alloc_stats("test-profile-alloc");
            let v: Vec<u8> = Vec::with_capacity(1 << 16);
            std::hint::black_box(&v);
            let after = stage_alloc_stats("test-profile-alloc");
            after.allocs > before.allocs && after.bytes >= before.bytes + (1 << 16) as u64
        };
        ute_obs::set_capture(false);
        assert!(grown, "Vec allocation was not attributed to the stage");
    }
}
