//! Kubernetes API-server model.
//!
//! * Secure by default (the API is not exposed anonymously), but the
//!   configuration can grant the `system:anonymous` user full access.
//! * Detection: `GET /` lists API groups including `certificates.k8s.io`
//!   and `healthz/ping`; `GET /api/v1/pods` returns JSON whose `items` is
//!   non-empty and contains `"phase":"Running"`.
//! * Abuse surface: creating a pod runs arbitrary containers on the
//!   cluster.

use crate::base::{impl_webapp, json_field, BaseApp};
use crate::catalog::AppId;
use crate::config::AppConfig;
use crate::events::{AppEvent, HandleOutcome};
use crate::version::Version;
use nokeys_http::{Request, Response, StatusCode};
use std::net::Ipv4Addr;

#[derive(Debug, Clone)]
pub struct Kubernetes {
    pub(crate) base: BaseApp,
    /// Pods created by attackers on top of the two default system pods.
    extra_pods: Vec<String>,
}

impl Kubernetes {
    pub fn new(version: Version, config: AppConfig) -> Self {
        Kubernetes {
            base: BaseApp::new(AppId::Kubernetes, version, config),
            extra_pods: Vec::new(),
        }
    }

    fn anonymous_allowed(&self) -> bool {
        !self.base.config.auth_enabled
    }

    fn forbidden() -> Response {
        Response::new(StatusCode::FORBIDDEN).with_header("Content-Type", "application/json").with_body(
            r#"{"kind":"Status","apiVersion":"v1","status":"Failure","message":"forbidden: User \"system:anonymous\" cannot get path","reason":"Forbidden","code":403}"#,
        )
    }

    fn paths_json(&self) -> String {
        // Real API servers list dozens of paths; the two markers the
        // plugin needs are `certificates.k8s.io` and `healthz/ping`.
        format!(
            "{{\"paths\":[\"/api\",\"/api/v1\",\"/apis\",\"/apis/apps\",\
             \"/apis/certificates.k8s.io\",\"/healthz\",\"/healthz/ping\",\
             \"/version\",\"/metrics\"],\"minor\":\"{}\"}}",
            self.base.version.minor
        )
    }

    fn pods_json(&self) -> String {
        let mut items = vec![
            r#"{"metadata":{"name":"coredns-558bd4d5db"},"status":{"phase":"Running"}}"#
                .to_string(),
            r#"{"metadata":{"name":"kube-proxy-7xk2m"},"status":{"phase":"Running"}}"#.to_string(),
        ];
        for name in &self.extra_pods {
            items.push(format!(
                "{{\"metadata\":{{\"name\":\"{name}\"}},\"status\":{{\"phase\":\"Running\"}}}}"
            ));
        }
        format!(
            "{{\"kind\":\"PodList\",\"apiVersion\":\"v1\",\"items\":[{}]}}",
            items.join(",")
        )
    }

    fn route(&mut self, req: &Request, _peer: Ipv4Addr) -> HandleOutcome {
        let open = self.anonymous_allowed();
        match (req.method, req.path()) {
            (nokeys_http::Method::Get, "/") => {
                if open {
                    Response::json(self.paths_json()).into()
                } else {
                    Self::forbidden().into()
                }
            }
            (nokeys_http::Method::Get, "/version") => {
                // The version endpoint is world-readable on most clusters;
                // the paper's fingerprinter relies on it.
                Response::json(format!(
                    "{{\"major\":\"{}\",\"minor\":\"{}\",\"gitVersion\":\"v{}\"}}",
                    self.base.version.major,
                    self.base.version.minor,
                    self.base.version.number()
                ))
                .into()
            }
            (nokeys_http::Method::Get, "/api/v1/pods") => {
                if open {
                    Response::json(self.pods_json()).into()
                } else {
                    Self::forbidden().into()
                }
            }
            (nokeys_http::Method::Post, p)
                if p.starts_with("/api/v1/namespaces/") && p.ends_with("/pods") =>
            {
                if open {
                    let body = req.body_text();
                    let image = json_field(&body, &["image"]).unwrap_or("unknown");
                    let command = json_field(&body, &["command"]).unwrap_or("");
                    let name = json_field(&body, &["name"]).unwrap_or("attacker-pod");
                    self.extra_pods.push(name.to_string());
                    HandleOutcome::with_event(
                        Response::new(StatusCode::CREATED)
                            .with_header("Content-Type", "application/json")
                            .with_body(r#"{"kind":"Pod","apiVersion":"v1"}"#),
                        AppEvent::ContainerStarted {
                            image: image.to_string(),
                            command: command.to_string(),
                        },
                    )
                } else {
                    Self::forbidden().into()
                }
            }
            _ => {
                if open {
                    Response::new(StatusCode::NOT_FOUND)
                        .with_header("Content-Type", "application/json")
                        .with_body(r#"{"kind":"Status","status":"Failure","reason":"NotFound","code":404}"#)
                        .into()
                } else {
                    Self::forbidden().into()
                }
            }
        }
    }

    fn reset_state(&mut self) {
        self.extra_pods.clear();
    }
}

impl_webapp!(Kubernetes, Kubernetes::reset_state);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{Driver, WebApp};
    use crate::version::release_history;
    const DRIVER: Driver = Driver::new();

    fn open_cluster() -> Kubernetes {
        let v = *release_history(AppId::Kubernetes).last().unwrap();
        Kubernetes::new(v, AppConfig::vulnerable_for(AppId::Kubernetes, &v))
    }

    fn secure_cluster() -> Kubernetes {
        let v = *release_history(AppId::Kubernetes).last().unwrap();
        Kubernetes::new(v, AppConfig::default_for(AppId::Kubernetes, &v))
    }

    #[test]
    fn secure_by_default() {
        let mut app = secure_cluster();
        assert!(!app.is_vulnerable());
        let out = DRIVER.get(&mut app, "/");
        assert_eq!(out.response.status.as_u16(), 403);
        assert!(out.response.body_text().contains("system:anonymous"));
    }

    #[test]
    fn open_cluster_lists_paths_and_pods() {
        let mut app = open_cluster();
        assert!(app.is_vulnerable());
        let body = DRIVER.get(&mut app, "/").response.body_text();
        assert!(body.contains("certificates.k8s.io"));
        assert!(body.contains("healthz/ping"));
        let pods = DRIVER.get(&mut app, "/api/v1/pods").response.body_text();
        let squashed: String = pods.chars().filter(|c| !c.is_whitespace()).collect();
        assert!(squashed.contains("\"phase\":\"Running\""));
        assert!(squashed.contains("\"items\":[{"));
    }

    #[test]
    fn version_endpoint_is_always_readable() {
        let mut app = secure_cluster();
        let body = DRIVER.get(&mut app, "/version").response.body_text();
        assert!(body.contains("gitVersion"));
    }

    #[test]
    fn pod_creation_is_code_execution() {
        let mut app = open_cluster();
        let out = DRIVER.post(
            &mut app,
            "/api/v1/namespaces/default/pods",
            r#"{"metadata":{"name":"miner"},"spec":{"containers":[{"image":"xmrig/xmrig","command":"xmrig -o pool"}]}}"#,
        );
        assert!(matches!(
            &out.events[0],
            AppEvent::ContainerStarted { image, .. } if image == "xmrig/xmrig"
        ));
        // The new pod shows up in listings afterwards.
        let pods = DRIVER.get(&mut app, "/api/v1/pods").response.body_text();
        assert!(pods.contains("miner"));
    }

    #[test]
    fn secure_cluster_rejects_pod_creation() {
        let mut app = secure_cluster();
        let out = DRIVER.post(&mut app, "/api/v1/namespaces/default/pods", "{}");
        assert_eq!(out.response.status.as_u16(), 403);
        assert!(out.events.is_empty());
    }

    #[test]
    fn json_field_extraction() {
        assert_eq!(
            json_field(r#"{"image":"alpine:3"}"#, &["image"]),
            Some("alpine:3")
        );
        assert_eq!(json_field(r#"{}"#, &["image"]), None);
    }
}
