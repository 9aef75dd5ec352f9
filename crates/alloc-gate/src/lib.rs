//! A counting global allocator for the allocation-count gate
//! (`tests/alloc_counts.rs`).
//!
//! Allocation counts repeat exactly from run to run where microseconds need
//! ten interleaved pairs to resolve, so the gate pins them: a test binary
//! installs [`CountingAllocator`] as its `#[global_allocator]`, arms the
//! counter around one phase and reads how many times the heap was asked for
//! memory (`alloc`, `alloc_zeroed` and `realloc` each count once; frees do
//! not count).

#![deny(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);

/// [`System`] with a counter of the requests made while armed, by any
/// thread.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAllocator;

impl CountingAllocator {
    fn note(&self) {
        if ARMED.load(Ordering::Relaxed) {
            COUNT.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// The allocator forwards every call unchanged to `System`; only the counter
// is its own. This is the crate's one exception to `unsafe_code = "deny"`.
#[allow(unsafe_code)]
// SAFETY: each method passes its arguments straight to the same method of
// `System`, which upholds `GlobalAlloc`'s contract; counting touches only
// two atomics and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.note();
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.note();
        // SAFETY: `ptr` was allocated by `System` (every allocation goes
        // through it) with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// How many allocations `f` made, on any thread, while it ran. Phases must
/// not overlap: the counter is process-wide.
pub fn count<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNT.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    (out, COUNT.load(Ordering::SeqCst))
}
