//! Joomla model.
//!
//! * Unfinished installations can be hijacked. Since 3.7.4 the installer
//!   demands proof of server ownership (deleting a file with a random
//!   name) when connecting to a remote database, defeating remote
//!   hijacks.
//! * Detection: `GET /installation/index.php` contains 'Joomla! Web
//!   Installer' or 'Enter the name of your Joomla! site'.

use crate::base::{impl_webapp, BaseApp};
use crate::catalog::AppId;
use crate::config::AppConfig;
use crate::events::{AppEvent, HandleOutcome};
use crate::html;
use crate::version::Version;
use nokeys_http::{Request, Response};
use std::net::Ipv4Addr;

#[derive(Debug, Clone)]
pub struct Joomla {
    pub(crate) base: BaseApp,
}

impl Joomla {
    pub fn new(version: Version, config: AppConfig) -> Self {
        Joomla {
            base: BaseApp::new(AppId::Joomla, version, config),
        }
    }

    fn has_ownership_countermeasure(&self) -> bool {
        self.base.version.triple() >= (3, 7, 4)
    }

    fn head_extra(&self) -> String {
        format!(
            "{}\n{}",
            html::generator("Joomla! - Open Source Content Management"),
            html::css("/media/jui/css/bootstrap.min.css"),
        )
    }

    fn route(&mut self, req: &Request, peer: Ipv4Addr) -> HandleOutcome {
        let installed = self.base.config.installed;
        match (req.method, req.path()) {
            (nokeys_http::Method::Get, "/") => {
                if installed {
                    Response::html(html::page_with_head(
                        "Home",
                        &self.head_extra(),
                        "<div class=\"joomla-script-options\">Welcome!</div>\
                         <a href=\"/templates/protostar/\">template</a>",
                    ))
                    .into()
                } else {
                    Response::redirect("/installation/index.php").into()
                }
            }
            (nokeys_http::Method::Get, "/installation/index.php") => {
                if installed {
                    return Response::not_found().into();
                }
                let extra = if self.has_ownership_countermeasure() {
                    "<p>To continue with a remote database, delete the file \
                     <code>_JoomlaRandomName_83c1f.txt</code> from the server.</p>"
                } else {
                    ""
                };
                Response::html(html::page_with_head(
                    "Joomla! Web Installer",
                    &self.head_extra(),
                    &format!(
                        "<h1>Joomla! Web Installer</h1>\
                         <label>Enter the name of your Joomla! site</label>\
                         <form method=\"post\" action=\"/installation/index.php\">\
                         <input name=\"admin_user\"><input name=\"admin_password\"></form>{extra}"
                    ),
                ))
                .into()
            }
            (nokeys_http::Method::Post, "/installation/index.php") => {
                if installed {
                    return Response::not_found().into();
                }
                if self.has_ownership_countermeasure() {
                    // The remote attacker cannot delete the random file.
                    return Response::new(nokeys_http::StatusCode::FORBIDDEN)
                        .with_body(
                            "Installation blocked: ownership verification file still present.",
                        )
                        .into();
                }
                let user = req
                    .form_param("admin_user")
                    .unwrap_or_else(|| "admin".to_string());
                self.base.install(peer);
                HandleOutcome::with_event(
                    Response::html(html::page("Congratulations!", "Joomla! is now installed.")),
                    AppEvent::InstallCompleted { admin_user: user },
                )
            }
            (nokeys_http::Method::Post, "/administrator/index.php") => {
                if self.base.is_admin(peer) {
                    HandleOutcome::with_event(
                        Response::html(html::page("Template edited", "Saved.")),
                        AppEvent::CommandExecuted {
                            command: format!("php:{}", req.body_text()),
                        },
                    )
                } else {
                    Response::html(html::login_form("Joomla", "/administrator/index.php")).into()
                }
            }
            _ => Response::not_found().into(),
        }
    }
}

impl_webapp!(Joomla);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{Driver, WebApp};
    use crate::version::release_history;
    const DRIVER: Driver = Driver::new();

    fn at(triple: (u16, u16, u16)) -> Joomla {
        let v = *release_history(AppId::Joomla)
            .iter()
            .find(|v| v.triple() == triple)
            .unwrap();
        Joomla::new(v, AppConfig::default_for(AppId::Joomla, &v))
    }

    #[test]
    fn installer_page_has_markers() {
        let mut app = at((3, 6, 0));
        let body = DRIVER
            .get(&mut app, "/installation/index.php")
            .response
            .body_text();
        assert!(body.contains("Joomla! Web Installer"));
        assert!(body.contains("Enter the name of your Joomla! site"));
    }

    #[test]
    fn old_joomla_can_be_hijacked() {
        let mut app = at((3, 6, 0));
        assert!(app.is_vulnerable());
        let out = app.handle(
            &Request::post("/installation/index.php", "admin_user=evil"),
            Ipv4Addr::new(203, 0, 113, 1),
        );
        assert!(matches!(&out.events[0], AppEvent::InstallCompleted { .. }));
    }

    #[test]
    fn countermeasure_blocks_remote_hijack_since_374() {
        let mut app = at((3, 7, 4));
        assert!(!app.is_vulnerable(), "ownership proof defeats the hijack");
        let out = app.handle(
            &Request::post("/installation/index.php", "admin_user=evil"),
            Ipv4Addr::new(203, 0, 113, 1),
        );
        assert!(out.events.is_empty());
        assert_eq!(out.response.status.as_u16(), 403);
        // The installer page itself still renders (and mentions the file).
        let body = DRIVER
            .get(&mut app, "/installation/index.php")
            .response
            .body_text();
        assert!(body.contains("delete the file"));
    }

    #[test]
    fn installed_site_hides_installer() {
        let v = *release_history(AppId::Joomla).last().unwrap();
        let mut app = Joomla::new(v, AppConfig::secure_for(AppId::Joomla, &v));
        assert_eq!(
            DRIVER
                .get(&mut app, "/installation/index.php")
                .response
                .status
                .as_u16(),
            404
        );
        let body = DRIVER.get(&mut app, "/").response.body_text();
        assert!(body.contains("joomla-script-options"));
    }
}
