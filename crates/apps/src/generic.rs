//! Generic model for the seven out-of-scope applications.
//!
//! Gitlab, Drone, Travis, Ghost, Spark Notebook, VestaCP and OmniDB were
//! investigated manually (Table 1) but found not to be prone to MAVs:
//! they require authentication and offer no unauthenticated installation
//! or API path. They are modeled as login-walled applications so the
//! honeypot and scanner treat them correctly (identifiable, never
//! vulnerable).

use crate::base::{impl_webapp, BaseApp};
use crate::catalog::AppId;
use crate::config::AppConfig;
use crate::events::HandleOutcome;
use crate::html;
use crate::version::Version;
use nokeys_http::{Request, Response};
use std::net::Ipv4Addr;

/// A login-walled application with product-specific markers.
#[derive(Debug, Clone)]
pub struct LoginWalled {
    pub(crate) base: BaseApp,
}

impl LoginWalled {
    pub fn new(id: AppId, version: Version, config: AppConfig) -> Self {
        debug_assert!(
            !id.info().in_scope(),
            "LoginWalled models only the out-of-scope applications"
        );
        LoginWalled {
            base: BaseApp::new(id, version, config),
        }
    }

    fn route(&mut self, req: &Request, _peer: Ipv4Addr) -> HandleOutcome {
        let name = self.base.id.name();
        match req.path() {
            "/" => Response::html(html::page_with_head(
                name,
                &html::generator(&format!("{} {}", name, self.base.version.number())),
                &format!(
                    "<div class=\"{}-landing\">Welcome to {name}. \
                     <a href=\"/login\">Sign in</a></div>",
                    name.to_ascii_lowercase()
                ),
            ))
            .into(),
            "/login" => Response::html(html::login_form(name, "/login")).into(),
            // Any admin surface demands authentication.
            p if p.starts_with("/admin") || p.starts_with("/api") => {
                Response::unauthorized(name).into()
            }
            _ => Response::not_found().into(),
        }
    }
}

impl_webapp!(LoginWalled);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{Driver, WebApp};
    use crate::version::release_history;
    const DRIVER: Driver = Driver::new();

    fn make(id: AppId) -> LoginWalled {
        let v = *release_history(id).last().unwrap();
        LoginWalled::new(id, v, AppConfig::default_for(id, &v))
    }

    #[test]
    fn landing_page_identifies_product() {
        let mut app = make(AppId::Gitlab);
        let out = DRIVER.get(&mut app, "/");
        assert!(out.response.body_text().contains("Gitlab"));
        assert!(out.events.is_empty());
    }

    #[test]
    fn admin_and_api_are_walled() {
        let mut app = make(AppId::Ghost);
        assert_eq!(
            DRIVER.get(&mut app, "/admin/").response.status.as_u16(),
            401
        );
        assert_eq!(
            DRIVER
                .get(&mut app, "/api/v1/things")
                .response
                .status
                .as_u16(),
            401
        );
    }

    #[test]
    fn never_vulnerable_and_no_events() {
        for id in [
            AppId::Gitlab,
            AppId::Drone,
            AppId::Travis,
            AppId::Ghost,
            AppId::VestaCp,
        ] {
            let mut app = make(id);
            assert!(!app.is_vulnerable());
            let out = DRIVER.post(&mut app, "/api/exec", "rm -rf /");
            assert!(out.events.is_empty());
        }
    }
}
