//! Plugin dispatch for stage III: MAV verification.
//!
//! Each in-scope application has a dedicated detection routine in
//! [`crate::plugins`], implementing the steps of the paper's Appendix
//! Table 10. All detection is restricted to non-state-changing `GET`
//! requests — the scanner infers the presence of a MAV from the presence
//! of the vulnerable functionality without exercising it.

use nokeys_apps::{AppId, WebApp};
use nokeys_http::server::Handler;
use nokeys_http::{Client, Endpoint, Request, Response, Scheme, Transport};
use std::net::Ipv4Addr;
use std::sync::Mutex;

/// Run the MAV detection plugin for `app` against `ep`.
///
/// Returns `true` iff all of the plugin's steps succeed; transport errors
/// and missing pages yield `false` (no MAV confirmed). Transient-fault
/// tolerance is not handled here: when run under the pipeline, the
/// client's transport is a [`RetryTransport`](crate::retry::RetryTransport)
/// that retries timeouts and dropped connections before the plugin ever
/// sees them.
pub fn detect_mav<T: Transport>(
    client: &Client<T>,
    app: AppId,
    ep: Endpoint,
    scheme: Scheme,
) -> bool {
    use crate::plugins::*;
    match app {
        AppId::Jenkins => jenkins::detect(client, ep, scheme),
        AppId::Gocd => gocd::detect(client, ep, scheme),
        AppId::WordPress => wordpress::detect(client, ep, scheme),
        AppId::Grav => grav::detect(client, ep, scheme),
        AppId::Joomla => joomla::detect(client, ep, scheme),
        AppId::Drupal => drupal::detect(client, ep, scheme),
        AppId::Kubernetes => kubernetes::detect(client, ep, scheme),
        AppId::Docker => docker::detect(client, ep, scheme),
        AppId::Consul => consul::detect(client, ep, scheme),
        AppId::Hadoop => hadoop::detect(client, ep, scheme),
        AppId::Nomad => nomad::detect(client, ep, scheme),
        AppId::JupyterLab => jupyter_lab::detect(client, ep, scheme),
        AppId::JupyterNotebook => jupyter_notebook::detect(client, ep, scheme),
        AppId::Zeppelin => zeppelin::detect(client, ep, scheme),
        AppId::Polynote => polynote::detect(client, ep, scheme),
        AppId::Ajenti => ajenti::detect(client, ep, scheme),
        AppId::PhpMyAdmin => phpmyadmin::detect(client, ep, scheme),
        AppId::Adminer => adminer::detect(client, ep, scheme),
        // Out-of-scope applications have no MAV plugin.
        _ => false,
    }
}

/// Human-readable detection steps (the content of Appendix Table 10),
/// used by the `repro table10` harness.
pub fn plugin_steps(app: AppId) -> &'static [&'static str] {
    use crate::plugins::*;
    match app {
        AppId::Jenkins => jenkins::STEPS,
        AppId::Gocd => gocd::STEPS,
        AppId::WordPress => wordpress::STEPS,
        AppId::Grav => grav::STEPS,
        AppId::Joomla => joomla::STEPS,
        AppId::Drupal => drupal::STEPS,
        AppId::Kubernetes => kubernetes::STEPS,
        AppId::Docker => docker::STEPS,
        AppId::Consul => consul::STEPS,
        AppId::Hadoop => hadoop::STEPS,
        AppId::Nomad => nomad::STEPS,
        AppId::JupyterLab => jupyter_lab::STEPS,
        AppId::JupyterNotebook => jupyter_notebook::STEPS,
        AppId::Zeppelin => zeppelin::STEPS,
        AppId::Polynote => polynote::STEPS,
        AppId::Ajenti => ajenti::STEPS,
        AppId::PhpMyAdmin => phpmyadmin::STEPS,
        AppId::Adminer => adminer::STEPS,
        _ => &[],
    }
}

/// Adapter exposing a single [`WebApp`] instance as an HTTP [`Handler`]
/// (used by plugin tests and the `live_scan` example to serve app models
/// over real or in-memory transports).
pub struct AppHandler {
    instance: Mutex<Box<dyn WebApp>>,
}

impl AppHandler {
    pub fn new(instance: Box<dyn WebApp>) -> Self {
        AppHandler {
            instance: Mutex::new(instance),
        }
    }

    /// Ground truth of the wrapped instance.
    pub fn is_vulnerable(&self) -> bool {
        self.instance.lock().expect("not poisoned").is_vulnerable()
    }
}

impl Handler for AppHandler {
    fn handle(&self, req: &Request, peer: Ipv4Addr) -> Response {
        self.instance
            .lock()
            .expect("not poisoned")
            .handle(req, peer)
            .response
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nokeys_apps::{build_instance, release_history, AppConfig};
    use nokeys_http::memory::HandlerTransport;
    use std::sync::Arc;

    fn client_for(app: AppId, vulnerable: bool, old: bool) -> (Client<HandlerTransport>, Endpoint) {
        let history = release_history(app);
        let version = if old {
            history[0]
        } else {
            *history.last().unwrap()
        };
        let cfg = if vulnerable {
            AppConfig::vulnerable_for(app, &version)
        } else {
            AppConfig::secure_for(app, &version)
        };
        let ep = Endpoint::new(Ipv4Addr::new(10, 1, 1, 1), app.scan_ports()[0]);
        let handler = Arc::new(AppHandler::new(build_instance(app, version, cfg)));
        let t = HandlerTransport::new().with(ep, handler);
        (Client::new(t), ep)
    }

    /// Every plugin must confirm a vulnerable instance and pass on a
    /// secured one — the core correctness property of stage III.
    #[test]
    fn plugins_match_ground_truth_for_all_apps() {
        for app in AppId::in_scope() {
            // Changed-over-time apps need old versions to be vulnerable.
            let old = matches!(
                app,
                AppId::Jenkins | AppId::JupyterNotebook | AppId::Joomla | AppId::Adminer
            );
            let (client, ep) = client_for(app, true, old);
            assert!(
                detect_mav(&client, app, ep, Scheme::Http),
                "{app}: vulnerable instance not detected"
            );
            if app == AppId::Polynote {
                // Polynote cannot be secured; skip the negative case.
                continue;
            }
            let (client, ep) = client_for(app, false, false);
            assert!(
                !detect_mav(&client, app, ep, Scheme::Http),
                "{app}: secure instance falsely flagged"
            );
        }
    }

    #[test]
    fn unreachable_targets_are_not_flagged() {
        let t = HandlerTransport::new();
        let client = Client::new(t);
        let ep = Endpoint::new(Ipv4Addr::new(10, 1, 1, 1), 8080);
        for app in AppId::in_scope() {
            assert!(!detect_mav(&client, app, ep, Scheme::Http), "{app}");
        }
    }

    #[test]
    fn every_in_scope_app_documents_steps() {
        for app in AppId::in_scope() {
            assert!(!plugin_steps(app).is_empty(), "{app} lacks step docs");
        }
        assert!(plugin_steps(AppId::Gitlab).is_empty());
    }

    #[test]
    fn out_of_scope_apps_never_detect() {
        let (client, ep) = {
            let app = AppId::Gitlab;
            let history = release_history(app);
            let version = *history.last().unwrap();
            let ep = Endpoint::new(Ipv4Addr::new(10, 1, 1, 2), 80);
            let handler = Arc::new(AppHandler::new(build_instance(
                app,
                version,
                AppConfig::default_for(app, &version),
            )));
            (Client::new(HandlerTransport::new().with(ep, handler)), ep)
        };
        assert!(!detect_mav(&client, AppId::Gitlab, ep, Scheme::Http));
    }
}
