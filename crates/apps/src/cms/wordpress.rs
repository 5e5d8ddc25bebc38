//! WordPress model.
//!
//! * The admin password is chosen on a *publicly reachable* installation
//!   page; until installation completes, anyone can take over.
//! * Detection: `GET /wp-admin/install.php?step=1` is valid HTML
//!   containing `WordPress`, a `form#setup` and an `input#pass1`.
//! * Post-hijack code execution: the theme editor accepts PHP.

use crate::base::{impl_webapp, BaseApp};
use crate::catalog::AppId;
use crate::config::AppConfig;
use crate::events::{AppEvent, HandleOutcome};
use crate::html;
use crate::version::Version;
use nokeys_http::{Request, Response};
use std::net::Ipv4Addr;

#[derive(Debug, Clone)]
pub struct WordPress {
    pub(crate) base: BaseApp,
}

impl WordPress {
    pub fn new(version: Version, config: AppConfig) -> Self {
        WordPress {
            base: BaseApp::new(AppId::WordPress, version, config),
        }
    }

    fn head_extra(&self) -> String {
        format!(
            "{}\n{}\n<link rel=\"https://api.w.org/\" href=\"/wp-json/\">",
            html::generator(&format!("WordPress {}", self.base.version.number())),
            html::css("/wp-content/themes/twentytwentyone/style.css"),
        )
    }

    fn blog(&self) -> Response {
        Response::html(html::page_with_head(
            "Just another WordPress site",
            &self.head_extra(),
            "<div id=\"content\"><p>Hello world!</p>\
             <script src=\"/wp-includes/js/wp-embed.min.js\"></script>\
             <a href=\"/xmlrpc.php\">rsd</a></div>",
        ))
    }

    fn install_form(&self) -> Response {
        Response::html(html::page_with_head(
            "WordPress &rsaquo; Installation",
            &self.head_extra(),
            "<h1>Welcome to WordPress</h1>\
             <form id=\"setup\" method=\"post\" action=\"install.php?step=2\">\
             <input name=\"weblog_title\">\
             <input name=\"user_name\">\
             <input type=\"password\" id=\"pass1\" name=\"admin_password\">\
             <button>Install WordPress</button></form>",
        ))
    }

    fn route(&mut self, req: &Request, peer: Ipv4Addr) -> HandleOutcome {
        let installed = self.base.config.installed;
        match (req.method, req.path()) {
            (nokeys_http::Method::Get, "/") => {
                if installed {
                    self.blog().into()
                } else {
                    Response::redirect("/wp-admin/install.php?step=1").into()
                }
            }
            (nokeys_http::Method::Get, "/wp-admin/install.php") => {
                if installed {
                    Response::html(html::page(
                        "WordPress &rsaquo; Installation",
                        "<p>WordPress is already installed.</p><a href=\"/wp-login.php\">Log in</a>",
                    ))
                    .into()
                } else {
                    self.install_form().into()
                }
            }
            (nokeys_http::Method::Post, "/wp-admin/install.php") => {
                if installed {
                    return Response::html(html::page("Installed", "Already installed.")).into();
                }
                let user = req.form_param("user_name").unwrap_or_else(|| "admin".to_string());
                self.base.install(peer);
                HandleOutcome::with_event(
                    Response::html(html::page("Success!", "<h1>Success!</h1>")),
                    AppEvent::InstallCompleted { admin_user: user },
                )
            }
            (nokeys_http::Method::Get, "/wp-login.php") => {
                Response::html(html::login_form("WordPress", "/wp-login.php")).into()
            }
            (nokeys_http::Method::Post, "/wp-admin/theme-editor.php") => {
                // Editing PHP templates is code execution; only the admin
                // (in the hijack scenario: the attacker who completed the
                // installation) can do it.
                if self.base.is_admin(peer) {
                    HandleOutcome::with_event(
                        Response::html(html::page("Edit Themes", "File edited successfully.")),
                        AppEvent::CommandExecuted {
                            command: format!("php:{}", req.body_text()),
                        },
                    )
                } else {
                    Response::redirect("/wp-login.php").into()
                }
            }
            (nokeys_http::Method::Get, "/wp-json/") => {
                Response::json(format!(
                    "{{\"name\":\"Just another WordPress site\",\"url\":\"/\",\"namespaces\":[\"wp/v2\"],\"generator\":\"WordPress {}\"}}",
                    self.base.version.number()
                ))
                .into()
            }
            _ => Response::not_found().into(),
        }
    }
}

impl_webapp!(WordPress);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{Driver, WebApp};
    use crate::version::release_history;
    const DRIVER: Driver = Driver::new();

    fn fresh() -> WordPress {
        let v = *release_history(AppId::WordPress).last().unwrap();
        WordPress::new(v, AppConfig::default_for(AppId::WordPress, &v))
    }

    fn attacker() -> Ipv4Addr {
        Ipv4Addr::new(203, 0, 113, 66)
    }

    #[test]
    fn fresh_install_serves_setup_form() {
        let mut app = fresh();
        assert!(app.is_vulnerable());
        let out = DRIVER.get(&mut app, "/wp-admin/install.php?step=1");
        let body = out.response.body_text();
        assert!(body.contains("WordPress"));
        assert!(body.contains("id=\"setup\""));
        assert!(body.contains("id=\"pass1\""));
    }

    #[test]
    fn root_redirects_to_installer_when_fresh() {
        let mut app = fresh();
        let out = DRIVER.get(&mut app, "/");
        assert_eq!(
            out.response.location(),
            Some("/wp-admin/install.php?step=1")
        );
    }

    #[test]
    fn hijack_then_code_execution() {
        let mut app = fresh();
        let out = app.handle(
            &Request::post(
                "/wp-admin/install.php?step=2",
                "user_name=evil&admin_password=x",
            ),
            attacker(),
        );
        assert!(matches!(
            &out.events[0],
            AppEvent::InstallCompleted { admin_user } if admin_user == "evil"
        ));
        assert!(
            !app.is_vulnerable(),
            "completing the install closes the MAV"
        );

        // The hijacker can now run PHP through the theme editor.
        let out = app.handle(
            &Request::post("/wp-admin/theme-editor.php", "<?php system($_GET['c']); ?>"),
            attacker(),
        );
        assert!(matches!(&out.events[0], AppEvent::CommandExecuted { .. }));

        // Everyone else cannot.
        let out = app.handle(
            &Request::post("/wp-admin/theme-editor.php", "<?php ?>"),
            Ipv4Addr::new(198, 51, 100, 2),
        );
        assert!(out.events.is_empty());
        assert!(out.response.is_followable_redirect());
    }

    #[test]
    fn installed_site_serves_blog_with_markers() {
        let v = *release_history(AppId::WordPress).last().unwrap();
        let mut app = WordPress::new(v, AppConfig::secure_for(AppId::WordPress, &v));
        assert!(!app.is_vulnerable());
        let body = DRIVER.get(&mut app, "/").response.body_text();
        assert!(body.contains("wp-json"));
        assert!(body.contains("wp-content"));
        assert!(body.contains("wp-includes"));
        let body = DRIVER
            .get(&mut app, "/wp-admin/install.php?step=1")
            .response
            .body_text();
        assert!(body.contains("already installed"));
    }

    #[test]
    fn restore_reopens_the_installation() {
        let mut app = fresh();
        let _ = app.handle(
            &Request::post("/wp-admin/install.php?step=2", "user_name=a"),
            attacker(),
        );
        assert!(!app.is_vulnerable());
        app.restore();
        assert!(app.is_vulnerable());
        let out = DRIVER.get(&mut app, "/wp-admin/install.php");
        assert!(out.response.body_text().contains("id=\"setup\""));
    }
}
