//! Property tests over the application models, driven by the seeded
//! case generator in `nokeys_http::cases`: no panics on arbitrary
//! requests, ground-truth consistency, and scan-safety (GET requests
//! never change state). A failure prints `seed=<n>`.

use nokeys_apps::{build_instance, release_history, AppConfig, AppId};
use nokeys_http::cases::{check, Gen, PRINTABLE};
use nokeys_http::{Method, Request};
use std::net::Ipv4Addr;

fn arb_app(g: &mut Gen) -> AppId {
    let all: Vec<AppId> = AppId::all().collect();
    *g.pick(&all)
}

fn arb_target(g: &mut Gen) -> String {
    format!("/{}", g.string(PRINTABLE, 0..49))
}

fn arb_request(g: &mut Gen) -> Request {
    Request {
        method: *g.pick(&[
            Method::Get,
            Method::Head,
            Method::Post,
            Method::Put,
            Method::Delete,
        ]),
        target: arb_target(g),
        version: Default::default(),
        headers: Default::default(),
        body: g.bytes(0..64),
    }
}

/// No application model panics, whatever the request looks like.
#[test]
fn models_never_panic() {
    check(64, |g| {
        let app = arb_app(g);
        let history = release_history(app);
        let version = *g.pick(&history);
        let cfg = if g.bool() {
            AppConfig::vulnerable_for(app, &version)
        } else {
            AppConfig::secure_for(app, &version)
        };
        let mut inst = build_instance(app, version, cfg);
        let peer = Ipv4Addr::from(g.u64() as u32);
        for req in g.vec(1..6, arb_request) {
            let out = inst.handle(&req, peer);
            // Responses are always well-formed enough to serialize.
            let _ = nokeys_http::encode::encode_response(&out.response);
        }
    });
}

/// Safe methods never produce state-changing events: the paper's
/// ethical constraint ("our scanner is limited to non-state-changing
/// GET requests") holds against every model.
#[test]
fn safe_methods_never_compromise() {
    check(64, |g| {
        let app = arb_app(g);
        let history = release_history(app);
        let version = *g.pick(&history);
        let cfg = AppConfig::vulnerable_for(app, &version);
        let mut inst = build_instance(app, version, cfg);
        let before = inst.is_vulnerable();
        for target in g.vec(1..8, arb_target) {
            let out = inst.handle(&Request::get(target), Ipv4Addr::new(198, 51, 100, 9));
            assert!(
                out.events.iter().all(|e| !e.is_compromise()),
                "{app}: GET produced a compromise event"
            );
        }
        assert_eq!(
            inst.is_vulnerable(),
            before,
            "{app} changed state under GET"
        );
    });
}

/// `restore` always returns the instance to its deployment ground
/// truth, whatever happened before.
#[test]
fn restore_is_total() {
    check(64, |g| {
        let app = arb_app(g);
        let version = release_history(app)[0];
        let cfg = AppConfig::vulnerable_for(app, &version);
        let mut inst = build_instance(app, version, cfg);
        let deployed = inst.is_vulnerable();
        for req in g.vec(0..6, arb_request) {
            let _ = inst.handle(&req, Ipv4Addr::new(203, 0, 113, 1));
        }
        inst.restore();
        assert_eq!(inst.is_vulnerable(), deployed);
    });
}

/// Version resolution: every version in a history resolves through
/// `version_at` to itself.
#[test]
fn version_indexing_is_consistent() {
    check(64, |g| {
        let app = arb_app(g);
        let history = release_history(app);
        let idx = g.index(0..history.len());
        assert_eq!(nokeys_apps::version_at(app, idx), history[idx]);
    });
}
