//! Docker daemon (exposed TCP socket) model.
//!
//! * An exposed daemon port has no authentication by default — the paper
//!   found 73.6% of Internet-reachable Docker endpoints vulnerable, the
//!   highest rate of all applications.
//! * Detection: `GET /` yields `{"message":"page not found"}`; `GET
//!   /version` (lower-cased) contains `minapiversion` and
//!   `kernelversion`.
//! * Abuse surface: create + start a container (the Kinsing campaign's
//!   entry point).

use crate::base::{impl_webapp, json_field, BaseApp};
use crate::catalog::AppId;
use crate::config::AppConfig;
use crate::events::{AppEvent, HandleOutcome};
use crate::version::Version;
use nokeys_http::{Request, Response, StatusCode};
use std::net::Ipv4Addr;

#[derive(Debug, Clone)]
pub struct Docker {
    pub(crate) base: BaseApp,
    /// Containers created but not yet started: id -> (image, cmd).
    created: Vec<(String, String, String)>,
    next_id: u32,
}

impl Docker {
    pub fn new(version: Version, config: AppConfig) -> Self {
        Docker {
            base: BaseApp::new(AppId::Docker, version, config),
            created: Vec::new(),
            next_id: 1,
        }
    }

    /// TLS client-certificate verification is Docker's auth mechanism for
    /// TCP sockets; with it on, unauthenticated requests fail at once.
    fn open(&self) -> bool {
        !self.base.config.auth_enabled
    }

    fn tls_required() -> Response {
        Response::new(StatusCode::BAD_REQUEST)
            .with_body("Client sent an HTTP request to an HTTPS server.")
    }

    fn route(&mut self, req: &Request, _peer: Ipv4Addr) -> HandleOutcome {
        if !self.open() {
            return Self::tls_required().into();
        }
        match (req.method, req.path()) {
            (nokeys_http::Method::Get, "/") => Response::new(StatusCode::NOT_FOUND)
                .with_header("Content-Type", "application/json")
                .with_body(r#"{"message":"page not found"}"#)
                .into(),
            (nokeys_http::Method::Get, "/version") => Response::json(format!(
                "{{\"Version\":\"{}\",\"ApiVersion\":\"1.41\",\"MinAPIVersion\":\"1.12\",\
                 \"GitCommit\":\"abcdef0\",\"GoVersion\":\"go1.16\",\"Os\":\"linux\",\
                 \"Arch\":\"amd64\",\"KernelVersion\":\"5.4.0-72-generic\"}}",
                self.base.version.number()
            ))
            .into(),
            (nokeys_http::Method::Get, "/_ping") => Response::text("OK").into(),
            (nokeys_http::Method::Get, "/containers/json") => Response::json("[]").into(),
            (nokeys_http::Method::Post, "/containers/create") => {
                let body = req.body_text();
                let image = json_field(&body, &["Image"])
                    .unwrap_or("alpine")
                    .to_string();
                let cmd = json_field(&body, &["Cmd"]).unwrap_or("").to_string();
                let id = format!("c{:08x}", self.next_id);
                self.next_id += 1;
                self.created.push((id.clone(), image, cmd));
                Response::new(StatusCode::CREATED)
                    .with_header("Content-Type", "application/json")
                    .with_body(format!("{{\"Id\":\"{id}\",\"Warnings\":[]}}"))
                    .into()
            }
            (nokeys_http::Method::Post, p)
                if p.starts_with("/containers/") && p.ends_with("/start") =>
            {
                let id = p
                    .trim_start_matches("/containers/")
                    .trim_end_matches("/start");
                match self.created.iter().position(|(cid, _, _)| cid == id) {
                    Some(idx) => {
                        let (_, image, cmd) = self.created.remove(idx);
                        HandleOutcome::with_event(
                            Response::new(StatusCode::NO_CONTENT),
                            AppEvent::ContainerStarted {
                                image,
                                command: cmd,
                            },
                        )
                    }
                    None => Response::new(StatusCode::NOT_FOUND)
                        .with_header("Content-Type", "application/json")
                        .with_body(r#"{"message":"No such container"}"#)
                        .into(),
                }
            }
            _ => Response::new(StatusCode::NOT_FOUND)
                .with_header("Content-Type", "application/json")
                .with_body(r#"{"message":"page not found"}"#)
                .into(),
        }
    }

    fn reset_state(&mut self) {
        self.created.clear();
        self.next_id = 1;
    }
}

impl_webapp!(Docker, Docker::reset_state);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{Driver, WebApp};
    use crate::version::release_history;
    const DRIVER: Driver = Driver::new();

    fn exposed() -> Docker {
        let v = *release_history(AppId::Docker).last().unwrap();
        Docker::new(v, AppConfig::default_for(AppId::Docker, &v))
    }

    #[test]
    fn exposed_daemon_is_vulnerable_by_default() {
        let mut app = exposed();
        assert!(app.is_vulnerable());
        assert_eq!(
            DRIVER.get(&mut app, "/").response.body_text(),
            r#"{"message":"page not found"}"#
        );
        let v = DRIVER
            .get(&mut app, "/version")
            .response
            .body_text()
            .to_lowercase();
        assert!(v.contains("minapiversion"));
        assert!(v.contains("kernelversion"));
    }

    #[test]
    fn create_then_start_runs_the_container() {
        let mut app = exposed();
        let out = DRIVER.post(
            &mut app,
            "/containers/create",
            r#"{"Image":"kinsing/kinsing","Cmd":"/kinsing"}"#,
        );
        let body = out.response.body_text();
        assert!(out.events.is_empty(), "creation alone is not execution");
        let id = body.split('"').nth(3).unwrap().to_string();

        let out = DRIVER.post(&mut app, &format!("/containers/{id}/start"), "");
        assert!(matches!(
            &out.events[0],
            AppEvent::ContainerStarted { image, command }
                if image == "kinsing/kinsing" && command == "/kinsing"
        ));
        assert_eq!(out.response.status.as_u16(), 204);
    }

    #[test]
    fn starting_unknown_container_fails() {
        let mut app = exposed();
        let out = DRIVER.post(&mut app, "/containers/doesnotexist/start", "");
        assert_eq!(out.response.status.as_u16(), 404);
        assert!(out.events.is_empty());
    }

    #[test]
    fn tls_protected_daemon_rejects_everything() {
        let v = *release_history(AppId::Docker).last().unwrap();
        let mut app = Docker::new(v, AppConfig::secure_for(AppId::Docker, &v));
        assert!(!app.is_vulnerable());
        let out = DRIVER.get(&mut app, "/version");
        assert_eq!(out.response.status.as_u16(), 400);
        assert!(!out
            .response
            .body_text()
            .to_lowercase()
            .contains("minapiversion"));
    }

    #[test]
    fn restore_discards_created_containers() {
        let mut app = exposed();
        let _ = DRIVER.post(&mut app, "/containers/create", r#"{"Image":"x","Cmd":"y"}"#);
        app.restore();
        let out = DRIVER.post(&mut app, "/containers/c00000001/start", "");
        assert_eq!(out.response.status.as_u16(), 404);
    }
}
