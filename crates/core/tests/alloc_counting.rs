//! Ground-truth check for the zero-allocation hot path: a counting
//! global allocator observes the stage-II matching loop and the
//! stage-IV crawl directly.
//!
//! Exactly one `#[test]` lives in this binary on purpose: the harness
//! runs tests in the same process, so a sibling test's allocations
//! would race the counter and turn the zero assertion flaky. The
//! harness's own threads allocate too, so only the thread that armed
//! itself around a measured region is counted.

mod common;

use common::alloc::{allocations_in, CountingAlloc};
use nokeys_apps::assets::ASSET_PATHS;
use nokeys_apps::{build_instance, release_history, AppConfig, AppId};
use nokeys_http::memory::HandlerTransport;
use nokeys_http::{Endpoint, Scheme, Visit};
use nokeys_scanner::fingerprint::crawler;
use nokeys_scanner::fingerprint::knowledge_base::KnowledgeBase;
use nokeys_scanner::plugin::AppHandler;
use nokeys_scanner::signatures::{all_signatures, rank_candidates};
use nokeys_scanner::{MultiPattern, Scratch};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::sync::Arc;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

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

    // Stage IV's crawl keeps its observations in an array on the stack:
    // one identification allocates what its four exchanges do, and not
    // one allocation more.
    let app = AppId::Gocd;
    let version = release_history(app)[1];
    let ep = Endpoint::new(Ipv4Addr::new(10, 7, 7, 7), 8153);
    let handler = Arc::new(AppHandler::new(build_instance(
        app,
        version,
        AppConfig::secure_for(app, &version),
    )));
    let t = HandlerTransport::new().with(ep, handler);
    let visit = Visit::new(&t, ep, Scheme::Http);
    let kb = KnowledgeBase::shared();
    for _ in 0..3 {
        assert!(crawler::identify(&visit, kb).is_some(), "GoCD identified");
    }
    let crawl = allocations_in(|| {
        black_box(crawler::identify(&visit, kb));
    });
    let exchanges = allocations_in(|| {
        for path in ASSET_PATHS {
            black_box(visit.get(path).ok());
        }
    });
    assert!(exchanges > 0, "an exchange allocates");
    assert_eq!(crawl, exchanges, "the crawl allocates only its exchanges");
}
