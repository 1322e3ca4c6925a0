//! A counting global allocator, linked into the traced binary only.
//!
//! Counting is off until [`enable`] turns it on, so the passes that time
//! the program run at the cost of one relaxed load per allocation; the
//! pass that counts allocations is timed for nothing else.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// The allocator: `System`, plus counters.
pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: u64) {
    COUNT.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes, Relaxed);
    let live = LIVE.fetch_add(bytes, Relaxed).wrapping_add(bytes);
    // Frees of blocks allocated before `enable` can take LIVE "below
    // zero"; a wrapped value is not a peak.
    if live < (1 << 60) && live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged; the counters are plain
// atomics and are never used to compute a pointer or a size.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            grew(layout.size() as u64);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            grew(layout.size() as u64);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            grew(new_size as u64);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What the allocator counted between [`enable`] and [`disable`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocStats {
    /// Allocations (`alloc`, `alloc_zeroed`, and `realloc` as one each).
    pub count: u64,
    /// Bytes requested by them.
    pub bytes: u64,
    /// Most bytes live at once, counting only blocks allocated while
    /// counting was on.
    pub peak_live_bytes: u64,
}

/// Zero the counters and start counting.
pub fn enable() {
    for c in [&COUNT, &BYTES, &LIVE, &PEAK] {
        c.store(0, Relaxed);
    }
    ENABLED.store(true, Relaxed);
}

/// Stop counting and return the counts.
pub fn disable() -> AllocStats {
    ENABLED.store(false, Relaxed);
    AllocStats {
        count: COUNT.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_live_bytes: PEAK.load(Relaxed),
    }
}
