//! Ground-truth check for the zero-allocation hot path: a counting
//! global allocator observes the stage-II matching loop directly.
//!
//! Exactly one `#[test]` lives in this binary on purpose: the harness
//! runs tests in the same process, so a sibling test's allocations
//! would race the counter and turn the zero assertion flaky. The
//! harness's own threads allocate too, so only the thread that armed
//! itself around a measured region is counted.

use nokeys_scanner::signatures::{all_signatures, rank_candidates};
use nokeys_scanner::{MultiPattern, Scratch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};

/// System allocator wrapper counting every allocation and reallocation
/// an armed thread makes (frees are irrelevant: the claim is that the
/// hot loop *acquires* no heap memory).
struct CountingAlloc;

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

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations the calling thread makes while `region` runs.
fn allocations_in(region: impl FnOnce()) -> usize {
    let before = ALLOCS.load(Ordering::Relaxed);
    ARMED.with(|armed| armed.set(true));
    region();
    ARMED.with(|armed| armed.set(false));
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn warmed_hot_path_performs_zero_heap_allocations() {
    // Bodies exercising every fold: mixed case, ASCII and multi-byte
    // whitespace runs, real signature fragments.
    let bodies: Vec<String> = vec![
        "<html><title>Dashboard [Jenkins]</title>  body  text</html>".into(),
        format!("{} wp-content {}", "Noise ".repeat(40), "MinAPIVersion"),
        "{\"kind\": \"Status\",\n  \"apiVersion\": \"v1\"}".into(),
        "all lowercase no whitespace-variance phpmyadmin".replace(' ', "\u{a0}"),
        "UPPER   CASE\t\tBODY with k8s.io and   Apache Hadoop".into(),
    ];
    let matcher = MultiPattern::new(&all_signatures());
    let mut scratch = Scratch::new();
    assert_eq!(
        allocations_in(|| drop(black_box(Vec::<u8>::with_capacity(64)))),
        1,
        "an armed thread's allocations are counted"
    );

    // The arena's match set takes its two words from the first matcher
    // that fills it: one allocation in the arena's life, made here.
    assert_eq!(
        allocations_in(|| {
            black_box(matcher.matched_signatures_scratch("", &mut scratch));
        }),
        1,
        "the match set grows once, on first use"
    );

    let matcher_allocs = allocations_in(|| {
        for _ in 0..100 {
            for body in &bodies {
                let used = matcher.matched_signatures_scratch(body, &mut scratch);
                black_box(used);
                black_box(scratch.matched());
            }
        }
    });
    assert_eq!(
        matcher_allocs, 0,
        "multipattern matching must not touch the heap"
    );

    // Stage II whole — match, tally, rank — as the prefilter runs it. A
    // body that matches nothing, which is nearly every body of a scan,
    // costs no allocation; one that matches costs the list that is
    // sorted and the candidate list made from it.
    let mut stage_two = |body: &str| {
        let mut hit = false;
        let allocs = allocations_in(|| {
            matcher.matched_signatures_scratch(body, &mut scratch);
            let counts = matcher.counts_from_matched(scratch.matched());
            let candidates = rank_candidates(black_box(counts));
            hit = !candidates.is_empty();
            black_box(candidates);
        });
        (hit, allocs)
    };
    for miss in ["", "<html><body>It works!</body></html>", "WP-CONTENT"] {
        assert_eq!(stage_two(miss), (false, 0), "{miss:?}");
    }
    // The fourth body spells `phpMyAdmin` in lowercase: a miss as well.
    for (body, hit) in bodies.iter().zip([true, true, true, false, true]) {
        assert_eq!(stage_two(body), (hit, 2 * usize::from(hit)), "{body:?}");
    }
}
