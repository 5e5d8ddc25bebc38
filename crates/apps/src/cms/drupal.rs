//! Drupal model.
//!
//! * Unfinished installations can be hijacked.
//! * Detection: `GET /core/install.php?langcode=en&profile=standard&continue=1`
//!   contains `<li class="is-active">Set up database` — with
//!   version-dependent whitespace, which is why the plugin strips all
//!   whitespace before matching. The model reproduces that quirk.

use crate::base::{impl_webapp, BaseApp};
use crate::catalog::AppId;
use crate::config::AppConfig;
use crate::events::{AppEvent, HandleOutcome};
use crate::html;
use crate::version::Version;
use nokeys_http::{Request, Response};
use std::net::Ipv4Addr;

#[derive(Debug, Clone)]
pub struct Drupal {
    pub(crate) base: BaseApp,
}

impl Drupal {
    pub fn new(version: Version, config: AppConfig) -> Self {
        Drupal {
            base: BaseApp::new(AppId::Drupal, version, config),
        }
    }

    fn head_extra(&self) -> String {
        format!(
            "{}\n{}",
            html::generator(&format!("Drupal {}", self.base.version.major)),
            html::script("/sites/default/files/js/drupal.js"),
        )
    }

    /// The installer task list. Whitespace placement differs across
    /// versions (the paper explicitly works around this).
    fn installer_tasks(&self) -> String {
        if self.base.version.minor.is_multiple_of(2) {
            "<ol><li class=\"is-active\">Set up database</li>\
             <li>Install site</li></ol>"
                .to_string()
        } else {
            "<ol>\n  <li class=\"is-active\">\n    Set up database\n  </li>\n\
             \x20 <li>Install site</li>\n</ol>"
                .to_string()
        }
    }

    fn route(&mut self, req: &Request, peer: Ipv4Addr) -> HandleOutcome {
        let installed = self.base.config.installed;
        match (req.method, req.path()) {
            (nokeys_http::Method::Get, "/") => {
                if installed {
                    Response::html(html::page_with_head(
                        "Welcome | Drupal site",
                        &self.head_extra(),
                        "<div data-drupal-selector=\"main\">\
                         <script>Drupal.settings = {};</script>Welcome.</div>",
                    ))
                    .into()
                } else {
                    Response::redirect("/core/install.php").into()
                }
            }
            (nokeys_http::Method::Get, "/core/install.php") => {
                if installed {
                    Response::html(html::page(
                        "Drupal already installed",
                        "Drupal is already installed. <a href=\"/user/login\">Log in</a>",
                    ))
                    .into()
                } else {
                    Response::html(html::page_with_head(
                        "Choose profile | Drupal",
                        &self.head_extra(),
                        &format!("<h1>Database configuration</h1>{}", self.installer_tasks()),
                    ))
                    .into()
                }
            }
            (nokeys_http::Method::Post, "/core/install.php") => {
                if installed {
                    return Response::not_found().into();
                }
                let user = req
                    .form_param("account_name")
                    .unwrap_or_else(|| "admin".to_string());
                self.base.install(peer);
                HandleOutcome::with_event(
                    Response::html(html::page("Congratulations", "Drupal installed.")),
                    AppEvent::InstallCompleted { admin_user: user },
                )
            }
            (nokeys_http::Method::Post, "/admin/modules/install") => {
                if self.base.is_admin(peer) {
                    HandleOutcome::with_event(
                        Response::html(html::page("Module installed", "Enabled.")),
                        AppEvent::CommandExecuted {
                            command: format!("module:{}", req.body_text()),
                        },
                    )
                } else {
                    Response::unauthorized("Drupal").into()
                }
            }
            (nokeys_http::Method::Get, "/user/login") => {
                Response::html(html::login_form("Drupal", "/user/login")).into()
            }
            _ => Response::not_found().into(),
        }
    }
}

impl_webapp!(Drupal);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{Driver, WebApp};
    use crate::version::release_history;
    const DRIVER: Driver = Driver::new();

    fn fresh_at(index: usize) -> Drupal {
        let v = release_history(AppId::Drupal)[index];
        Drupal::new(v, AppConfig::default_for(AppId::Drupal, &v))
    }

    #[test]
    fn installer_marker_survives_whitespace_stripping() {
        for idx in [0, 1, 2, 3] {
            let mut app = fresh_at(idx);
            let body = DRIVER
                .get(
                    &mut app,
                    "/core/install.php?langcode=en&profile=standard&continue=1",
                )
                .response
                .body_text();
            let squashed: String = body.chars().filter(|c| !c.is_whitespace()).collect();
            assert!(
                squashed.contains("<liclass=\"is-active\">Setupdatabase"),
                "version index {idx}: {squashed}"
            );
        }
    }

    #[test]
    fn whitespace_actually_varies_between_versions() {
        let mut even = fresh_at(0);
        let mut odd = fresh_at(1);
        let a = DRIVER
            .get(&mut even, "/core/install.php")
            .response
            .body_text();
        let b = DRIVER
            .get(&mut odd, "/core/install.php")
            .response
            .body_text();
        assert_ne!(a, b, "adjacent versions should format differently");
    }

    #[test]
    fn hijack_and_module_execution() {
        let mut app = fresh_at(0);
        assert!(app.is_vulnerable());
        let evil = Ipv4Addr::new(203, 0, 113, 77);
        let out = app.handle(
            &Request::post("/core/install.php", "account_name=evil"),
            evil,
        );
        assert!(matches!(&out.events[0], AppEvent::InstallCompleted { .. }));
        let out = app.handle(
            &Request::post("/admin/modules/install", "evil_module"),
            evil,
        );
        assert!(matches!(&out.events[0], AppEvent::CommandExecuted { .. }));
    }

    #[test]
    fn installed_site_reports_already_installed() {
        let v = *release_history(AppId::Drupal).last().unwrap();
        let mut app = Drupal::new(v, AppConfig::secure_for(AppId::Drupal, &v));
        let body = DRIVER
            .get(&mut app, "/core/install.php")
            .response
            .body_text();
        assert!(body.contains("already installed"));
        let squashed: String = body.chars().filter(|c| !c.is_whitespace()).collect();
        assert!(!squashed.contains("<liclass=\"is-active\">Setupdatabase"));
    }
}
