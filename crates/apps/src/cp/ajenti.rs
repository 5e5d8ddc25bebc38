//! Ajenti model.
//!
//! * Requires OS credentials by default; the `--autologin` option (whose
//!   docs warn "this is a security issue if your system is public") skips
//!   authentication entirely.
//! * Detection: `GET /view/` contains
//!   `customization.plugins.core.title || 'Ajenti'` and
//!   `ajentiPlatformUnmapped`.
//! * Abuse surface: the built-in terminal executes commands as root.

use crate::base::{impl_webapp, BaseApp};
use crate::catalog::AppId;
use crate::config::AppConfig;
use crate::events::{AppEvent, HandleOutcome};
use crate::html;
use crate::version::Version;
use nokeys_http::{Request, Response, StatusCode};
use std::net::Ipv4Addr;

#[derive(Debug, Clone)]
pub struct Ajenti {
    pub(crate) base: BaseApp,
}

impl Ajenti {
    pub fn new(version: Version, config: AppConfig) -> Self {
        Ajenti {
            base: BaseApp::new(AppId::Ajenti, version, config),
        }
    }

    fn app_shell(&self) -> Response {
        Response::html(html::page_with_head(
            "Ajenti",
            &html::css("/resources/all.css"),
            "<script>angular.module('ajenti.core', []);\
             var title = customization.plugins.core.title || 'Ajenti';\
             var platform = ajentiPlatformUnmapped;</script>\
             <div id=\"app\">Ajenti control panel</div>",
        ))
    }

    fn route(&mut self, req: &Request, _peer: Ipv4Addr) -> HandleOutcome {
        let open = self.base.config.autologin;
        match (req.method, req.path()) {
            (nokeys_http::Method::Get, "/") => {
                if open {
                    Response::redirect("/view/").into()
                } else {
                    Response::html(html::login_form("Ajenti", "/api/core/auth")).into()
                }
            }
            (nokeys_http::Method::Get, "/view/") => {
                if open {
                    self.app_shell().into()
                } else {
                    Response::redirect("/").into()
                }
            }
            (nokeys_http::Method::Post, "/api/terminal/exec") => {
                if open {
                    HandleOutcome::with_event(
                        Response::json("{\"output\":\"\"}"),
                        AppEvent::CommandExecuted {
                            command: req.body_text(),
                        },
                    )
                } else {
                    Response::new(StatusCode::UNAUTHORIZED).into()
                }
            }
            _ => Response::not_found().into(),
        }
    }
}

impl_webapp!(Ajenti);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{Driver, WebApp};
    use crate::version::release_history;
    const DRIVER: Driver = Driver::new();

    fn with_autologin(on: bool) -> Ajenti {
        let v = *release_history(AppId::Ajenti).last().unwrap();
        let cfg = if on {
            AppConfig::vulnerable_for(AppId::Ajenti, &v)
        } else {
            AppConfig::default_for(AppId::Ajenti, &v)
        };
        Ajenti::new(v, cfg)
    }

    #[test]
    fn secure_by_default_shows_login() {
        let mut app = with_autologin(false);
        assert!(!app.is_vulnerable());
        let body = DRIVER.get(&mut app, "/").response.body_text();
        assert!(body.contains("Sign in - Ajenti"));
        let out = DRIVER.get(&mut app, "/view/");
        assert!(out.response.is_followable_redirect());
    }

    #[test]
    fn autologin_exposes_the_shell_markers() {
        let mut app = with_autologin(true);
        assert!(app.is_vulnerable());
        let body = DRIVER.get(&mut app, "/view/").response.body_text();
        assert!(body.contains("customization.plugins.core.title || 'Ajenti'"));
        assert!(body.contains("ajentiPlatformUnmapped"));
    }

    #[test]
    fn terminal_needs_autologin() {
        let mut app = with_autologin(false);
        let out = DRIVER.post(&mut app, "/api/terminal/exec", "id");
        assert_eq!(out.response.status.as_u16(), 401);
        assert!(out.events.is_empty());

        let mut app = with_autologin(true);
        let out = DRIVER.post(&mut app, "/api/terminal/exec", "id");
        assert!(matches!(&out.events[0], AppEvent::CommandExecuted { .. }));
    }
}
