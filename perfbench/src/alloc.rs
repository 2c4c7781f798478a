//! Counting global allocator for the `allocs_per_tx` metric.
//!
//! Each thread counts its own allocations in a thread-local cell, so the
//! two STM clients never contend on a shared counter: a shared atomic
//! would bounce one cache line between the cores on every allocation and
//! slow the very transactions being measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Defers to the system allocator, counting `alloc`, `alloc_zeroed` and
/// `realloc` calls of the calling thread.
pub struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` because an allocation can happen while the thread's
    // locals are being torn down; such allocations go uncounted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are the ones callers get. The bookkeeping is a
// const-initialised thread-local `Cell` with no destructor, which never
// allocates and so cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations made so far by the calling thread.
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}
