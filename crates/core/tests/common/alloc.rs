//! A counting global allocator for allocation-budget tests.
//!
//! A binary installs it with
//! `#[global_allocator] static ALLOCATOR: CountingAlloc = CountingAlloc;`
//! and measures a region with [`allocations_in`]. Only the thread that
//! armed itself around a measured region is counted, because the test
//! harness's own threads allocate too. Such a binary holds exactly one
//! `#[test]`: the harness runs tests in the same process, so a sibling
//! test's allocations would race the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// System allocator wrapper counting every allocation and reallocation
/// an armed thread makes (frees are not counted: the budgets bound the
/// heap memory a region *acquires*).
pub struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread is inside a measured region. Const-initialised
    /// and without a destructor, so reading it never allocates and is
    /// safe from inside the allocator at any point of a thread's life.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    if ARMED.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocations the calling thread makes while `region` runs.
pub fn allocations_in(region: impl FnOnce()) -> usize {
    let before = ALLOCS.load(Ordering::Relaxed);
    ARMED.with(|armed| armed.set(true));
    region();
    ARMED.with(|armed| armed.set(false));
    ALLOCS.load(Ordering::Relaxed) - before
}
