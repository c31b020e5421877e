//! A counting allocator for the traced binary.
//!
//! `hiloc-bench-trace` installs [`Counting`] as its global allocator so
//! the inline replay can report allocator calls per operation; the
//! untraced `hiloc-bench` does not, so [`count`] stays 0 there and the
//! end-to-end numbers are measured on the plain system allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

// A statistic that publishes no other data: relaxed is enough.
static CALLS: AtomicU64 = AtomicU64::new(0);

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) so far.
pub fn count() -> u64 {
    CALLS.load(Ordering::Relaxed)
}

/// The system allocator with a call counter in front.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`; the caller guarantees `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}
