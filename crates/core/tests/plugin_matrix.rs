//! The full plugin × application matrix: every detection plugin runs
//! against every application model (vulnerable and secured) and against
//! background noise. Diagonal entries on vulnerable instances must fire;
//! everything else must stay silent — the "highly unlikely that a false
//! positive occurs" claim, verified exhaustively. Every request a plugin
//! sends in these runs must be a `GET`.

use nokeys_apps::{build_instance, release_history, AppConfig, AppId};
use nokeys_http::memory::HandlerTransport;
use nokeys_http::server::Handler;
use nokeys_http::{Endpoint, Method, Request, Response, Scheme, StatusCode, Visit};
use nokeys_scanner::plugin::{detect_mav, AppHandler};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Serves `inner`, and fails the test on any request that is not a
/// `GET`: stage III must not change the state of what it scans. With
/// `as_error`, every 2xx answer goes out as a 500, body unchanged.
struct GetOnly<H> {
    inner: H,
    as_error: bool,
}

impl<H: Handler> Handler for GetOnly<H> {
    fn handle(&self, req: &Request, peer: Ipv4Addr) -> Response {
        assert_eq!(req.method, Method::Get, "{} {}", req.method, req.target);
        let mut response = self.inner.handle(req, peer);
        if self.as_error && response.status.is_success() {
            response.status = StatusCode::INTERNAL_SERVER_ERROR;
        }
        response
    }
}

fn vulnerable_version(app: AppId) -> nokeys_apps::Version {
    *release_history(app)
        .iter()
        .rev()
        .find(|v| AppConfig::vulnerable_for(app, v).is_vulnerable(app, v))
        .expect("vulnerable version exists")
}

fn serve(app: AppId, vulnerable: bool, as_error: bool) -> (HandlerTransport, Endpoint) {
    let version = if vulnerable {
        vulnerable_version(app)
    } else {
        *release_history(app).last().expect("non-empty")
    };
    let cfg = if vulnerable {
        AppConfig::vulnerable_for(app, &version)
    } else {
        AppConfig::secure_for(app, &version)
    };
    let ep = Endpoint::new(Ipv4Addr::new(10, 7, 7, 7), app.scan_ports()[0]);
    let inner = AppHandler::new(build_instance(app, version, cfg));
    let handler = Arc::new(GetOnly { inner, as_error });
    (HandlerTransport::new().with(ep, handler), ep)
}

#[test]
fn plugins_never_fire_on_other_applications() {
    for target in AppId::in_scope() {
        let (t, ep) = serve(target, true, false);
        for plugin in AppId::in_scope() {
            let detected = detect_mav(&Visit::new(&t, ep, Scheme::Http), plugin);
            if plugin == target {
                assert!(detected, "{plugin} plugin missed its own vulnerable app");
            } else {
                assert!(
                    !detected,
                    "{plugin} plugin falsely fired on a vulnerable {target}"
                );
            }
        }
    }
}

#[test]
fn plugins_never_fire_on_secured_applications() {
    for target in AppId::in_scope().filter(|a| *a != AppId::Polynote) {
        let (t, ep) = serve(target, false, false);
        for plugin in AppId::in_scope() {
            assert!(
                !detect_mav(&Visit::new(&t, ep, Scheme::Http), plugin),
                "{plugin} plugin fired on a secured {target}"
            );
        }
    }
}

#[test]
fn plugins_never_fire_on_background_noise() {
    use nokeys_apps::background::BackgroundKind;
    struct Noise(BackgroundKind);
    impl Handler for Noise {
        fn handle(&self, req: &Request, peer: Ipv4Addr) -> Response {
            self.0.handle(req, peer)
        }
    }
    for kind in BackgroundKind::ALL {
        if !kind.speaks_http() {
            continue;
        }
        let ep = Endpoint::new(Ipv4Addr::new(10, 7, 7, 8), 8080);
        let handler = GetOnly {
            inner: Noise(kind),
            as_error: false,
        };
        let t = HandlerTransport::new().with(ep, Arc::new(handler));
        for plugin in AppId::in_scope() {
            assert!(
                !detect_mav(&Visit::new(&t, ep, Scheme::Http), plugin),
                "{plugin} plugin fired on {kind:?}"
            );
        }
    }
}

/// Table 10's status rule, per plugin: served with status 500, the
/// bodies that confirm a vulnerable instance still confirm it for the
/// five plugins that read a page whatever its status, and for no other.
#[test]
fn only_five_plugins_read_an_error_page() {
    for app in AppId::in_scope() {
        let (t, ep) = serve(app, true, true);
        let expected = matches!(
            app,
            AppId::Docker | AppId::Gocd | AppId::Grav | AppId::Jenkins | AppId::WordPress
        );
        assert_eq!(
            detect_mav(&Visit::new(&t, ep, Scheme::Http), app),
            expected,
            "{app} served as status 500"
        );
    }
}
