//! HashiCorp Nomad model.
//!
//! * "Nomad is not secure-by-default" — ACLs are off unless configured;
//!   submitting a job with a `raw_exec`/`exec` driver runs arbitrary
//!   commands on clients.
//! * Detection: `GET /v1/jobs` contains `<title>Nomad</title>`. (The
//!   paper's plugin checks the *body* for the UI title; open agents serve
//!   the UI shell for browser-looking requests, which the model
//!   reproduces.)

use crate::base::{impl_webapp, BaseApp};
use crate::catalog::AppId;
use crate::config::AppConfig;
use crate::events::{AppEvent, HandleOutcome};
use crate::html;
use crate::version::Version;
use nokeys_http::{Request, Response, StatusCode};
use std::net::Ipv4Addr;

#[derive(Debug, Clone)]
pub struct Nomad {
    pub(crate) base: BaseApp,
    jobs: Vec<String>,
}

impl Nomad {
    pub fn new(version: Version, config: AppConfig) -> Self {
        Nomad {
            base: BaseApp::new(AppId::Nomad, version, config),
            jobs: Vec::new(),
        }
    }

    fn acls_enabled(&self) -> bool {
        self.base.config.auth_enabled
    }

    fn acl_denied() -> Response {
        Response::new(StatusCode::FORBIDDEN).with_body("Permission denied")
    }

    fn ui_shell(&self) -> Response {
        Response::html(html::page_with_head(
            "Nomad",
            &format!(
                "{}\n<meta name=\"nomad-version\" content=\"{}\">",
                html::css("/ui/assets/nomad-ui.css"),
                self.base.version.number()
            ),
            "<div id=\"nomad-ui\" data-nomad=\"ui\">Loading Nomad UI...</div>",
        ))
    }

    fn route(&mut self, req: &Request, _peer: Ipv4Addr) -> HandleOutcome {
        match (req.method, req.path()) {
            (nokeys_http::Method::Get, "/") | (nokeys_http::Method::Get, "/ui/") => {
                self.ui_shell().into()
            }
            (nokeys_http::Method::Get, "/v1/jobs") => {
                if self.acls_enabled() {
                    Self::acl_denied().into()
                } else {
                    // Open agents answer API requests without a token; the
                    // study's scanner (a generic HTTP client) receives the
                    // UI shell, whose title is the detection marker.
                    self.ui_shell().into()
                }
            }
            (nokeys_http::Method::Get, "/v1/agent/self") => {
                if self.acls_enabled() {
                    Self::acl_denied().into()
                } else {
                    Response::json(format!(
                        "{{\"config\":{{\"Version\":{{\"Version\":\"{}\"}},\
                         \"ACL\":{{\"Enabled\":false}}}}}}",
                        self.base.version.number()
                    ))
                    .into()
                }
            }
            (nokeys_http::Method::Post, "/v1/jobs") | (nokeys_http::Method::Put, "/v1/jobs") => {
                if self.acls_enabled() {
                    Self::acl_denied().into()
                } else {
                    let payload = req.body_text();
                    self.jobs.push(payload.clone());
                    HandleOutcome::with_event(
                        Response::json("{\"EvalID\":\"eval-1\",\"JobModifyIndex\":1}"),
                        AppEvent::JobSubmitted { payload },
                    )
                }
            }
            _ => Response::not_found().into(),
        }
    }

    fn reset_state(&mut self) {
        self.jobs.clear();
    }
}

impl_webapp!(Nomad, Nomad::reset_state);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{Driver, WebApp};
    use crate::version::release_history;
    const DRIVER: Driver = Driver::new();

    fn default_latest() -> Nomad {
        let v = *release_history(AppId::Nomad).last().unwrap();
        Nomad::new(v, AppConfig::default_for(AppId::Nomad, &v))
    }

    #[test]
    fn open_agent_serves_title_on_jobs_endpoint() {
        let mut app = default_latest();
        assert!(app.is_vulnerable());
        let body = DRIVER.get(&mut app, "/v1/jobs").response.body_text();
        assert!(body.contains("<title>Nomad</title>"));
    }

    #[test]
    fn job_submission_executes() {
        let mut app = default_latest();
        let out = DRIVER.post(
            &mut app,
            "/v1/jobs",
            r#"{"Job":{"ID":"miner","TaskGroups":[{"Tasks":[{"Driver":"raw_exec","Config":{"command":"/tmp/xmrig"}}]}]}}"#,
        );
        assert!(matches!(
            &out.events[0],
            AppEvent::JobSubmitted { payload } if payload.contains("raw_exec")
        ));
    }

    #[test]
    fn acl_protected_agent_denies() {
        let v = *release_history(AppId::Nomad).last().unwrap();
        let mut app = Nomad::new(v, AppConfig::secure_for(AppId::Nomad, &v));
        assert!(!app.is_vulnerable());
        assert_eq!(
            DRIVER.get(&mut app, "/v1/jobs").response.status.as_u16(),
            403
        );
        let out = DRIVER.post(&mut app, "/v1/jobs", "{}");
        assert!(out.events.is_empty());
        // The UI shell itself stays reachable (matches real deployments).
        let body = DRIVER.get(&mut app, "/ui/").response.body_text();
        assert!(body.contains("<title>Nomad</title>"));
    }

    #[test]
    fn agent_self_discloses_version_when_open() {
        let mut app = default_latest();
        let body = DRIVER.get(&mut app, "/v1/agent/self").response.body_text();
        assert!(body.contains("\"Version\""));
        assert!(body.contains("\"ACL\":{\"Enabled\":false}"));
    }
}
