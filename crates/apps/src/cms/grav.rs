//! Grav model.
//!
//! * With the admin plugin installed but no user accounts, the first
//!   visitor creates the admin account.
//! * Detection: `GET /` contains 'The Admin plugin has been installed'
//!   and 'Create User', or `GET /admin` contains 'No user accounts found'
//!   and 'create one'.
//! * Post-hijack code execution: Twig template editing through the admin.

use crate::base::{impl_webapp, BaseApp};
use crate::catalog::AppId;
use crate::config::AppConfig;
use crate::events::{AppEvent, HandleOutcome};
use crate::html;
use crate::version::Version;
use nokeys_http::{Request, Response};
use std::net::Ipv4Addr;

#[derive(Debug, Clone)]
pub struct Grav {
    pub(crate) base: BaseApp,
}

impl Grav {
    pub fn new(version: Version, config: AppConfig) -> Self {
        Grav {
            base: BaseApp::new(AppId::Grav, version, config),
        }
    }

    fn head_extra(&self) -> String {
        format!(
            "{}\n{}",
            html::generator(&format!("GravCMS {}", self.base.version.number())),
            html::css("/user/themes/quark/css/theme.css"),
        )
    }

    fn route(&mut self, req: &Request, peer: Ipv4Addr) -> HandleOutcome {
        let installed = self.base.config.installed;
        match (req.method, req.path()) {
            (nokeys_http::Method::Get, "/") => {
                if installed {
                    Response::html(html::page_with_head(
                        "Grav",
                        &self.head_extra(),
                        "<div class=\"grav-core\">Powered by Grav - \
                         <a href=\"https://getgrav.org\">getgrav.org</a></div>",
                    ))
                    .into()
                } else {
                    Response::html(html::page_with_head(
                        "Grav",
                        &self.head_extra(),
                        "<div class=\"grav-core\">The Admin plugin has been installed. \
                         <a href=\"/admin\">Create User</a> — Powered by Grav</div>",
                    ))
                    .into()
                }
            }
            (nokeys_http::Method::Get, "/admin") => {
                if installed {
                    Response::html(html::login_form("Grav", "/admin/login")).into()
                } else {
                    Response::html(html::page_with_head(
                        "Grav Admin",
                        &self.head_extra(),
                        "<p>No user accounts found, please <a href=\"#create\">create one</a>.</p>\
                         <form method=\"post\" action=\"/admin\">\
                         <input name=\"username\"><input name=\"password\" type=\"password\">\
                         </form>",
                    ))
                    .into()
                }
            }
            (nokeys_http::Method::Post, "/admin") => {
                if installed {
                    return Response::unauthorized("Grav").into();
                }
                let user = req
                    .form_param("username")
                    .unwrap_or_else(|| "admin".to_string());
                self.base.install(peer);
                HandleOutcome::with_event(
                    Response::redirect("/admin"),
                    AppEvent::InstallCompleted { admin_user: user },
                )
            }
            (nokeys_http::Method::Post, "/admin/tools/direct-install")
            | (nokeys_http::Method::Post, "/admin/config/system") => {
                if self.base.is_admin(peer) {
                    HandleOutcome::with_event(
                        Response::json("{\"status\":\"success\"}"),
                        AppEvent::CommandExecuted {
                            command: format!("twig:{}", req.body_text()),
                        },
                    )
                } else {
                    Response::unauthorized("Grav").into()
                }
            }
            _ => Response::not_found().into(),
        }
    }
}

impl_webapp!(Grav);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{Driver, WebApp};
    use crate::version::release_history;
    const DRIVER: Driver = Driver::new();

    fn fresh() -> Grav {
        let v = *release_history(AppId::Grav).last().unwrap();
        Grav::new(v, AppConfig::default_for(AppId::Grav, &v))
    }

    #[test]
    fn fresh_root_advertises_account_creation() {
        let mut app = fresh();
        assert!(app.is_vulnerable());
        let body = DRIVER.get(&mut app, "/").response.body_text();
        assert!(body.contains("The Admin plugin has been installed"));
        assert!(body.contains("Create User"));
    }

    #[test]
    fn fresh_admin_page_has_fallback_markers() {
        let mut app = fresh();
        let body = DRIVER.get(&mut app, "/admin").response.body_text();
        assert!(body.contains("No user accounts found"));
        assert!(body.contains("create one"));
    }

    #[test]
    fn hijack_creates_admin_and_enables_exec() {
        let mut app = fresh();
        let evil = Ipv4Addr::new(203, 0, 113, 5);
        let out = app.handle(&Request::post("/admin", "username=evil&password=x"), evil);
        assert!(matches!(&out.events[0], AppEvent::InstallCompleted { .. }));
        assert!(!app.is_vulnerable());
        let out = app.handle(
            &Request::post("/admin/config/system", "{{ system('id') }}"),
            evil,
        );
        assert!(matches!(&out.events[0], AppEvent::CommandExecuted { .. }));
    }

    #[test]
    fn installed_site_shows_login_not_creation() {
        let v = *release_history(AppId::Grav).last().unwrap();
        let mut app = Grav::new(v, AppConfig::secure_for(AppId::Grav, &v));
        let body = DRIVER.get(&mut app, "/admin").response.body_text();
        assert!(!body.contains("No user accounts found"));
        assert!(body.contains("Sign in"));
        let body = DRIVER.get(&mut app, "/").response.body_text();
        assert!(body.contains("Powered by Grav"));
        assert!(!body.contains("Create User"));
    }
}
