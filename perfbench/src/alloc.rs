//! A std-only counting global allocator.
//!
//! Counting is off by default so the untraced (end-to-end) runs pay only a
//! relaxed flag load per allocation; traced runs switch it on and the span
//! recorder samples [`count`] at every span boundary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Wraps [`System`], counting allocations (fresh, zeroed and resized) made
/// by any thread while counting is enabled.
pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Turn allocation counting on or off (process-wide).
pub fn set_counting(on: bool) {
    // Relaxed: the flag and the counter publish no other data.
    ENABLED.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[inline]
fn bump() {
    if ENABLED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the only addition is a
// relaxed atomic counter update, which neither allocates nor touches the
// memory being managed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}
