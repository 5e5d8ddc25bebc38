//! Shared plumbing for application models.

use crate::assets::asset_content;
use crate::catalog::AppId;
use crate::config::AppConfig;
use crate::version::Version;
use nokeys_http::{Request, Response};
use std::net::Ipv4Addr;

/// State common to every application model: identity, version, live
/// configuration, the deployment snapshot used by `restore`, and who
/// completed the installation.
#[derive(Debug, Clone)]
pub struct BaseApp {
    pub id: AppId,
    pub version: Version,
    pub config: AppConfig,
    deployed: AppConfig,
    /// The peer that completed the installation: it chose the admin
    /// credentials, so it alone holds them.
    admin_ip: Option<Ipv4Addr>,
}

impl BaseApp {
    pub fn new(id: AppId, version: Version, config: AppConfig) -> Self {
        BaseApp {
            id,
            version,
            config,
            deployed: config,
            admin_ip: None,
        }
    }

    /// Restore the configuration to the deployment snapshot, which
    /// forgets who installed the application.
    pub fn restore(&mut self) {
        self.config = self.deployed;
        self.admin_ip = None;
    }

    /// Complete the installation from `peer`, which takes it over: the
    /// admin credentials are now the ones `peer` chose.
    pub fn install(&mut self, peer: Ipv4Addr) {
        self.config.installed = true;
        self.admin_ip = Some(peer);
    }

    /// Whether `peer` holds the admin credentials: it completed the
    /// installation since the last restore.
    pub fn is_admin(&self, peer: Ipv4Addr) -> bool {
        self.config.installed && self.admin_ip == Some(peer)
    }

    /// Serve the static-asset corpus (`/static/...`) used by the
    /// fingerprinter crawler. Returns `None` for non-asset paths.
    pub fn serve_asset(&self, req: &Request) -> Option<Response> {
        if !req.path().starts_with("/static/") {
            return None;
        }
        match asset_content(self.id, &self.version, req.path()) {
            Some(content) => {
                let mime = if req.path().ends_with(".css") {
                    "text/css"
                } else if req.path().ends_with(".svg") {
                    "image/svg+xml"
                } else {
                    "application/javascript"
                };
                Some(
                    Response::new(nokeys_http::StatusCode::OK)
                        .with_header("Content-Type", mime)
                        .with_body(content),
                )
            }
            None => Some(Response::not_found()),
        }
    }
}

/// The value of the first of `names` that appears in a JSON-ish body as
/// a quoted key: the next quoted string after that key. The first name
/// present decides, whether a quoted string follows it or not. No full
/// parser: attacker payloads in the simulation are well-formed enough.
pub fn json_field<'a>(body: &'a str, names: &[&str]) -> Option<&'a str> {
    let end = names.iter().find_map(|name| {
        let key = format!("\"{name}\"");
        body.find(&key).map(|at| at + key.len())
    })?;
    let (_, value) = body[end..].split_once('"')?;
    value.split_once('"').map(|(value, _)| value)
}

/// Implement the boilerplate parts of [`crate::WebApp`] for a type with a
/// `base: BaseApp` field; the type supplies `route`, and names a second
/// function, `fn(&mut Self)`, if a restore must also clear state of its
/// own.
macro_rules! impl_webapp {
    ($ty:ty $(, $reset:path)?) => {
        impl $crate::traits::WebApp for $ty {
            fn id(&self) -> $crate::catalog::AppId {
                self.base.id
            }
            fn version(&self) -> $crate::version::Version {
                self.base.version
            }
            fn config(&self) -> $crate::config::AppConfig {
                self.base.config
            }
            fn handle(
                &mut self,
                req: &nokeys_http::Request,
                peer: std::net::Ipv4Addr,
            ) -> $crate::events::HandleOutcome {
                if let Some(resp) = self.base.serve_asset(req) {
                    return $crate::events::HandleOutcome::plain(resp);
                }
                self.route(req, peer)
            }
            fn restore(&mut self) {
                self.base.restore();
                $($reset(self);)?
            }
        }
    };
}
pub(crate) use impl_webapp;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::release_history;

    #[test]
    fn restore_resets_config() {
        let v = *release_history(AppId::Gocd).last().unwrap();
        let cfg = AppConfig::vulnerable_for(AppId::Gocd, &v);
        let mut base = BaseApp::new(AppId::Gocd, v, cfg);
        base.config.auth_enabled = true;
        base.restore();
        assert_eq!(base.config, cfg);
    }

    #[test]
    fn restore_forgets_the_installer() {
        let v = *release_history(AppId::Grav).last().unwrap();
        let mut base = BaseApp::new(AppId::Grav, v, AppConfig::default_for(AppId::Grav, &v));
        let (evil, other) = (
            Ipv4Addr::new(203, 0, 113, 5),
            Ipv4Addr::new(198, 51, 100, 2),
        );
        assert!(!base.is_admin(evil));
        base.install(evil);
        assert!(base.config.installed && base.is_admin(evil) && !base.is_admin(other));
        base.restore();
        assert!(!base.config.installed && !base.is_admin(evil));
    }

    /// The rows are the bodies the Docker, Consul, Hadoop and Kubernetes
    /// models read their payloads from.
    #[test]
    fn json_field_reads_the_first_named_key() {
        const CONSUL: &[&str] = &["Script", "Args", "script", "args"];
        let rows: &[(&str, &[&str], Option<&str>)] = &[
            (
                r#"{"Image":"alpine","Cmd":"sh"}"#,
                &["Image"],
                Some("alpine"),
            ),
            (r#"{"Image":"alpine","Cmd":"sh"}"#, &["Cmd"], Some("sh")),
            (r#"{"Image":"alpine"}"#, &["Cmd"], None),
            ("{}", &["image"], None),
            ("", &["command"], None),
            (r#"{"command":"unterminated"#, &["command"], None),
            (r#"{"command":"#, &["command"], None),
            (r#"{"command": "a=b&c=d"}"#, &["command"], Some("a=b&c=d")),
            (r#"{"command":""}"#, &["command"], Some("")),
            (r#"{"Command":"x"}"#, &["command"], None),
            // A key's value is the next quoted string, wherever it is.
            (r#"{"command":1,"x":"y"}"#, &["command"], Some("x")),
            (r#"{"name":"a","image":"b"}"#, &["image"], Some("b")),
            // Consul: the first name in the list that is present decides,
            // by list order, not by place in the body...
            (r#"{"args":"a","Script":"s"}"#, CONSUL, Some("s")),
            (r#"{"Name":"h","Args":"a","script":"s"}"#, CONSUL, Some("a")),
            // ...and decides even when no quoted value follows it.
            (r#"{"Script":1}"#, CONSUL, None),
            (r#"{"args":"x","Script":1}"#, CONSUL, None),
            (r#"{"HTTP":"http://x/"}"#, CONSUL, None),
        ];
        for &(body, names, want) in rows {
            assert_eq!(json_field(body, names), want, "{body} {names:?}");
        }
    }

    #[test]
    fn serves_assets_with_mime_types() {
        let v = release_history(AppId::Hadoop)[0];
        let base = BaseApp::new(AppId::Hadoop, v, AppConfig::secure_for(AppId::Hadoop, &v));
        let resp = base
            .serve_asset(&Request::get("/static/style.css"))
            .unwrap();
        assert_eq!(resp.headers.get("content-type"), Some("text/css"));
        let resp = base.serve_asset(&Request::get("/static/app.js")).unwrap();
        assert_eq!(
            resp.headers.get("content-type"),
            Some("application/javascript")
        );
        assert!(base.serve_asset(&Request::get("/other")).is_none());
        let resp = base
            .serve_asset(&Request::get("/static/missing.js"))
            .unwrap();
        assert_eq!(resp.status.as_u16(), 404);
    }
}
