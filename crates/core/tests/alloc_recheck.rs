//! What one Figure 2 recheck costs in heap allocations: a counting
//! global allocator observes the observer's per-host, per-round work —
//! probe the endpoint, run the application's MAV plugin, and, unless
//! the host is offline, fingerprint it — on three hosts of the tiny
//! universe at one instant: one still vulnerable, one fixed and one
//! offline. The bounds are the counts a recheck makes today, so the
//! test fails if a recheck gets dearer; a change that cuts one lowers
//! its bound.
//!
//! The replay always fingerprints an online host, so its budget is
//! that of a recheck that still tracks a version update: one whose
//! finding has a version and whose host has not updated yet.
//! `observer::recheck` skips the fingerprint otherwise, and such a
//! recheck costs less.
//!
//! The recheck is replayed here on the test thread because `observe`
//! runs its rechecks on worker threads, which an armed counter cannot
//! see.
//!
//! Exactly one `#[test]` lives in this binary on purpose: the harness
//! runs tests in the same process, so a sibling test's allocations
//! would race the counter. The harness's own threads allocate too, so
//! only the thread that armed itself around a measured region is
//! counted.

mod common;

use common::alloc::{allocations_in, CountingAlloc};
use nokeys_http::{Attempt, Endpoint, ProbeOutcome, Scheme, Transport, Visit};
use nokeys_netsim::lifecycle::HostState;
use nokeys_netsim::{SimTime, SimTransport, Universe, UniverseConfig};
use nokeys_scanner::fingerprint::Fingerprinter;
use nokeys_scanner::{detect_mav, Telemetry};
use std::hint::black_box;
use std::sync::Arc;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn one_recheck_allocates_at_most_todays_count() {
    let universe = Arc::new(Universe::generate(UniverseConfig::tiny(2022)));
    let t = SimTime::SCAN_START + SimTime::OBSERVATION;
    let transport = SimTransport::new(Arc::clone(&universe)).at(t);
    let fingerprinter = Fingerprinter::with_telemetry(&Telemetry::new());

    // One recheck of the lowest-addressed host that was vulnerable at
    // the scan and whose lifecycle is in `state` at `t`. It returns the
    // status the recheck found and the allocations of the last of three
    // runs.
    let recheck = |state: HostState| {
        let host = (universe.vulnerable_hosts())
            .filter(|host| host.lifecycle.state_at(t) == state)
            .min_by_key(|host| host.ip)
            .expect("the tiny universe has one");
        let (service, app) = host.awe().expect("a vulnerable host runs an AWE");
        let ep = Endpoint::new(host.ip, service.port);
        let scheme = if service.schemes.supports_http() {
            Scheme::Http
        } else {
            Scheme::Https
        };
        let run = || {
            let visit = Visit::new(&transport, ep, scheme);
            match transport.probe(ep, Attempt::FIRST) {
                ProbeOutcome::Open => {
                    let vulnerable = detect_mav(&visit, app);
                    black_box(fingerprinter.fingerprint(&visit, app));
                    if vulnerable {
                        HostState::Online
                    } else {
                        HostState::Fixed
                    }
                }
                _ => HostState::Offline,
            }
        };
        for _ in 0..2 {
            assert_eq!(run(), state, "{ep} at {t:?}");
        }
        let mut status = None;
        let allocs = allocations_in(|| status = Some(run()));
        assert_eq!(status, Some(state));
        allocs
    };
    let vulnerable = recheck(HostState::Online);
    let fixed = recheck(HostState::Fixed);
    let offline = recheck(HostState::Offline);
    println!("allocations per recheck: {vulnerable} vulnerable, {fixed} fixed, {offline} offline");
    // A release build makes two fewer on the vulnerable host (101).
    assert!(vulnerable <= 103, "{vulnerable} allocations, vulnerable");
    assert!(fixed <= 168, "{fixed} allocations, fixed");
    assert_eq!(offline, 0, "an offline host is one probe");
}
