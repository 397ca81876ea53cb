//! A counting global allocator: the noise-free proxy for per-event heap
//! traffic. It forwards to the system allocator and counts only while a
//! traced run has it switched on (one relaxed load per call otherwise).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

// Statistics only: none of these publishes other data, so Relaxed is enough.
static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `layout` obligations pass through to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same contract as this method's own.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `ptr` came from this allocator, hence from `System`, with `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as this method's own.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: the caller's `layout` obligations pass through to `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same contract as this method's own.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: `ptr` came from `System` with `layout`; `new_size` obligations
    // pass through.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: same contract as this method's own.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// An open counting interval.
pub struct Counter {
    allocs: u64,
    bytes: u64,
}

/// Start counting allocations. Exact when the counted code is
/// single-threaded and nothing else allocates meanwhile.
pub fn start() -> Counter {
    let c =
        Counter { allocs: ALLOCS.load(Ordering::Relaxed), bytes: BYTES.load(Ordering::Relaxed) };
    ENABLED.store(true, Ordering::Relaxed);
    c
}

impl Counter {
    /// Stop counting: `(allocation calls, bytes requested)` since [`start`].
    pub fn stop(self) -> (u64, u64) {
        ENABLED.store(false, Ordering::Relaxed);
        (ALLOCS.load(Ordering::Relaxed) - self.allocs, BYTES.load(Ordering::Relaxed) - self.bytes)
    }
}
