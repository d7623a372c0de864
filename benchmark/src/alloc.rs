//! A counting allocator for the traced binary.
//!
//! Only `ute-benchmark-traced` installs it as its `#[global_allocator]`;
//! the timed binary links the system allocator untouched, so none of the
//! end-to-end numbers pays for the counting.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

// Statistics only: no other memory is published through these, so
// relaxed ordering is enough.
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// The system allocator with four counters in front of it.
pub struct CountingAlloc;

fn on_alloc(size: usize) {
    COUNT.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations are passed through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: `ptr` came from this allocator with this `layout`, and
        // this allocator only ever hands out `System` blocks.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `dealloc`, plus the caller's `new_size` obligations.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            on_alloc(new_size);
        }
        p
    }
}

/// The counters at one moment.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocSample {
    /// Allocations (and reallocations) made so far.
    pub count: u64,
    /// Bytes requested so far.
    pub bytes: u64,
    /// Bytes live now.
    pub live: u64,
}

/// Reads the counters and restarts the peak from the current live size,
/// so that [`peak_since_sample`] reports the high-water mark of what
/// follows.
pub fn sample() -> AllocSample {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    AllocSample {
        count: COUNT.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        live,
    }
}

/// Highest live size since the last [`sample`].
pub fn peak_since_sample() -> u64 {
    PEAK.load(Relaxed)
}
