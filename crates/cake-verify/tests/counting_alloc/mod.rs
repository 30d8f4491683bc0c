//! A counting global allocator for this directory's integration tests.
//! Each test binary that declares `mod counting_alloc;` registers its own
//! instance as the binary's `#[global_allocator]`.
//!
//! The counter is per thread: the test harness runs tests on parallel
//! threads, and a process-global count would charge one test with
//! another's allocations. A `p = 1` pool runs the whole GEMM on the
//! calling thread, so the per-thread count sees every allocation a call
//! makes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation path (`alloc`, `alloc_zeroed`, `realloc`)
/// through the global allocator; frees are not counted — the property
/// under test is "no fresh allocation", not "no traffic".
struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Const-initialised with no
    /// destructor, so touching it never allocates itself.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with` keeps a late allocation during thread teardown from
    // panicking inside the allocator.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations this thread has made so far.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: delegates every operation verbatim to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;
