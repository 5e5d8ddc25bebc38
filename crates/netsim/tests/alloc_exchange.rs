//! What one HTTP exchange with a simulated host costs in heap
//! allocations: a counting global allocator observes a warmed
//! `Visit::new(&transport, ep, Http).get("/")` on two hosts of the tiny
//! universe, a background host that answers at once and an AWE host that
//! redirects once. The bounds are the counts a visit makes today, so
//! the test fails if an exchange gets dearer; cutting the fixed cost per
//! request (ROADMAP item 2, target ≤ 8 per exchange) lowers them.
//!
//! Exactly one `#[test]` lives in this binary on purpose: the harness
//! runs tests in the same process, so a sibling test's allocations
//! would race the counter. The harness's own threads allocate too, so
//! only the thread that armed itself around a measured region is
//! counted.

use nokeys_http::{Endpoint, Scheme, Visit};
use nokeys_netsim::{SimTransport, Universe, UniverseConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// System allocator wrapper counting every allocation and reallocation
/// an armed thread makes.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread is inside a measured region. Const-initialised
    /// and without a destructor, so reading it never allocates.
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

/// Allocations made by the last of three `GET /` on `ep` over HTTP.
fn warmed_get(transport: &SimTransport, ep: Endpoint) -> usize {
    let visit = Visit::new(transport, ep, Scheme::Http);
    for _ in 0..2 {
        black_box(visit.get("/").expect("answers"));
    }
    allocations_in(|| {
        black_box(visit.get("/").expect("answers"));
    })
}

#[test]
fn one_exchange_allocates_at_most_todays_count() {
    let universe = Arc::new(Universe::generate(UniverseConfig::tiny(2022)));
    let transport = SimTransport::new(Arc::clone(&universe));
    // The first HTTP endpoint of each kind, by address, whose `/`
    // follows `redirects` redirects: hosts differ in what their answers
    // cost.
    let first = |awe: bool, redirects: usize| {
        (universe.hosts())
            .filter(|host| host.awe().is_some() == awe)
            .flat_map(|host| {
                (host.services.iter())
                    .filter(|service| service.schemes.supports_http())
                    .map(|service| Endpoint::new(host.ip, service.port))
            })
            .find(|&ep| {
                let fetched = Visit::new(&transport, ep, Scheme::Http).get("/");
                fetched.is_ok_and(|fetched| fetched.redirects == redirects)
            })
            .expect("the tiny universe has one")
    };
    let plain = warmed_get(&transport, first(false, 0));
    let redirected = warmed_get(&transport, first(true, 1));
    println!("allocations per GET /: {plain} without a redirect, {redirected} with one");
    assert!(plain <= 32, "{plain} allocations without a redirect");
    assert!(
        redirected <= 69,
        "{redirected} allocations with one redirect"
    );
}
