//! The full plugin × application matrix: every detection plugin runs
//! against every application model (vulnerable and secured) and against
//! background noise. Diagonal entries on vulnerable instances must fire;
//! everything else must stay silent — the "highly unlikely that a false
//! positive occurs" claim, verified exhaustively.

use nokeys_apps::{build_instance, release_history, AppConfig, AppId};
use nokeys_http::memory::HandlerTransport;
use nokeys_http::{Client, Endpoint, Request, Response, Scheme};
use nokeys_scanner::plugin::{detect_mav, AppHandler};
use std::net::Ipv4Addr;
use std::sync::Arc;

fn vulnerable_version(app: AppId) -> nokeys_apps::Version {
    *release_history(app)
        .iter()
        .rev()
        .find(|v| AppConfig::vulnerable_for(app, v).is_vulnerable(app, v))
        .expect("vulnerable version exists")
}

fn client_for(app: AppId, vulnerable: bool) -> (Client<HandlerTransport>, Endpoint) {
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
    let handler = Arc::new(AppHandler::new(build_instance(app, version, cfg)));
    (Client::new(HandlerTransport::new().with(ep, handler)), ep)
}

#[test]
fn plugins_never_fire_on_other_applications() {
    for target in AppId::in_scope() {
        let (client, ep) = client_for(target, true);
        for plugin in AppId::in_scope() {
            let detected = detect_mav(&client, plugin, ep, Scheme::Http);
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
        let (client, ep) = client_for(target, false);
        for plugin in AppId::in_scope() {
            assert!(
                !detect_mav(&client, plugin, ep, Scheme::Http),
                "{plugin} plugin fired on a secured {target}"
            );
        }
    }
}

#[test]
fn plugins_never_fire_on_background_noise() {
    use nokeys_apps::background::BackgroundKind;
    struct Noise(BackgroundKind);
    impl nokeys_http::server::Handler for Noise {
        fn handle(&self, req: &Request, peer: Ipv4Addr) -> Response {
            self.0.handle(req, peer)
        }
    }
    for kind in BackgroundKind::ALL {
        if !kind.speaks_http() {
            continue;
        }
        let ep = Endpoint::new(Ipv4Addr::new(10, 7, 7, 8), 8080);
        let client = Client::new(HandlerTransport::new().with(ep, Arc::new(Noise(kind))));
        for plugin in AppId::in_scope() {
            assert!(
                !detect_mav(&client, plugin, ep, Scheme::Http),
                "{plugin} plugin fired on {kind:?}"
            );
        }
    }
}
