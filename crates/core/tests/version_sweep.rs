//! The paper's threats-to-validity methodology, made exhaustive: "we
//! tested [signatures and plugins] on both the newest and oldest stable
//! releases … there is a small chance that some version in between
//! introduced a breaking change". The simulation can afford to test
//! *every* version of every application.

use nokeys_apps::{build_instance, release_history, AppConfig, AppId};
use nokeys_http::memory::HandlerTransport;
use nokeys_http::{Endpoint, Scheme, Visit};
use nokeys_scanner::pattern::PreparedBody;
use nokeys_scanner::plugin::{detect_mav, AppHandler};
use nokeys_scanner::signatures::{all_signatures, match_candidates};
use std::net::Ipv4Addr;
use std::sync::Arc;

fn serve(
    app: AppId,
    version: nokeys_apps::Version,
    cfg: AppConfig,
) -> (HandlerTransport, Endpoint) {
    let ep = Endpoint::new(Ipv4Addr::new(10, 11, 11, 11), app.scan_ports()[0]);
    let handler = Arc::new(AppHandler::new(build_instance(app, version, cfg)));
    (HandlerTransport::new().with(ep, handler), ep)
}

/// Every vulnerable configuration of every version of every in-scope
/// application is detected by its plugin — no breaking change anywhere
/// in any release history.
#[test]
fn plugins_detect_every_vulnerable_version() {
    for app in AppId::in_scope() {
        for version in release_history(app) {
            let cfg = AppConfig::vulnerable_for(app, &version);
            if !cfg.is_vulnerable(app, &version) {
                // Joomla ≥ 3.7.4 / Adminer ≥ 4.6.3 cannot be made
                // vulnerable at all — nothing to detect.
                continue;
            }
            let (t, ep) = serve(app, version, cfg);
            assert!(
                detect_mav(&Visit::new(&t, ep, Scheme::Http), app),
                "{app} {}: vulnerable version not detected",
                version.number()
            );
        }
    }
}

/// Every secured version is left alone by every plugin.
#[test]
fn plugins_ignore_every_secured_version() {
    for app in AppId::in_scope().filter(|a| *a != AppId::Polynote) {
        for version in release_history(app) {
            let cfg = AppConfig::secure_for(app, &version);
            let (t, ep) = serve(app, version, cfg);
            assert!(
                !detect_mav(&Visit::new(&t, ep, Scheme::Http), app),
                "{app} {}: secured version falsely flagged",
                version.number()
            );
        }
    }
}

/// The prefilter signatures identify every version in both states — the
/// paper's "looking for strings and endpoints that appeared stable across
/// all the different versions".
#[test]
fn signatures_identify_every_version() {
    let signatures = all_signatures();
    for app in AppId::in_scope() {
        for version in release_history(app) {
            for vulnerable in [false, true] {
                let cfg = if vulnerable {
                    AppConfig::vulnerable_for(app, &version)
                } else {
                    AppConfig::secure_for(app, &version)
                };
                let mut instance = build_instance(app, version, cfg);
                // Follow the app's own redirects like the prefilter does.
                let mut path = "/".to_string();
                let body = loop {
                    let out = instance.handle(
                        &nokeys_http::Request::get(path.clone()),
                        Ipv4Addr::LOCALHOST,
                    );
                    match out.response.location() {
                        Some(loc) => path = loc.to_string(),
                        None => break out.response.body_text(),
                    }
                };
                let candidates = match_candidates(&signatures, &PreparedBody::new(body));
                assert!(
                    candidates.contains(&app),
                    "{app} {} (vulnerable={vulnerable}) not identified",
                    version.number()
                );
            }
        }
    }
}
