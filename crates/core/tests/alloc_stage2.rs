//! What one stage-II probe costs in heap allocations: a counting global
//! allocator observes a warmed `Prefilter::probe_endpoint` on three
//! endpoints of the tiny universe, one for each way stage II classifies
//! an endpoint: an application that hits a signature, a background
//! page that speaks HTTP and matches nothing, and a service that sends
//! a non-HTTP banner. The bounds are the counts a probe makes today, so
//! the test fails if stage II gets dearer; a change that cuts one
//! lowers its bound (ROADMAP item 26).
//!
//! Exactly one `#[test]` lives in this binary on purpose: the harness
//! runs tests in the same process, so a sibling test's allocations
//! would race the counter. The harness's own threads allocate too, so
//! only the thread that armed itself around a measured region is
//! counted.

mod common;

use common::alloc::{allocations_in, CountingAlloc};
use nokeys_apps::background::BackgroundKind;
use nokeys_http::Endpoint;
use nokeys_netsim::{ServiceKind, SimTransport, Universe, UniverseConfig};
use nokeys_scanner::{Prefilter, Telemetry};
use std::hint::black_box;
use std::sync::Arc;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn one_probe_allocates_at_most_todays_count() {
    let universe = Arc::new(Universe::generate(UniverseConfig::tiny(2022)));
    let transport = SimTransport::new(Arc::clone(&universe));
    // The lowest-addressed endpoint of a host that is no tarpit whose
    // service is `wanted`.
    let first = |wanted: fn(&ServiceKind) -> bool| {
        (universe.hosts())
            .filter(|host| !host.tarpit)
            .flat_map(|host| {
                (host.services.iter())
                    .filter(|service| wanted(&service.kind))
                    .map(|service| Endpoint::new(host.ip, service.port))
            })
            .min()
            .expect("the tiny universe has one")
    };
    let hit = first(|kind| matches!(kind, ServiceKind::Awe { .. }));
    let miss = first(|kind| matches!(kind, ServiceKind::Background(BackgroundKind::NginxDefault)));
    let banner = first(|kind| matches!(kind, ServiceKind::Background(BackgroundKind::NotHttp)));

    let telemetry = Telemetry::new();
    let mut prefilter = Prefilter::with_telemetry(&telemetry);
    // Allocations made by the last of three probes of `ep`, and whether
    // it was a hit.
    let mut probe = |ep: Endpoint| {
        for _ in 0..2 {
            black_box(prefilter.probe_endpoint(&transport, ep));
        }
        let mut found = None;
        let allocs = allocations_in(|| found = Some(prefilter.probe_endpoint(&transport, ep)));
        (allocs, found.flatten().is_some())
    };
    let (hit, is_hit) = probe(hit);
    let (miss, missed_is_hit) = probe(miss);
    let (banner, banner_is_hit) = probe(banner);
    assert!(is_hit && !missed_is_hit && !banner_is_hit);
    let snap = telemetry.snapshot();
    for outcome in ["hits", "discarded", "silent"] {
        assert_eq!(snap.counter(&format!("stage2.{outcome}")), 3, "{outcome}");
    }
    println!("allocations per stage-II probe: {hit} hit, {miss} miss, {banner} banner");
    assert!(hit <= 44, "{hit} allocations, signature hit");
    assert!(miss <= 35, "{miss} allocations, HTTP miss");
    assert!(banner <= 30, "{banner} allocations, non-HTTP banner");
}
