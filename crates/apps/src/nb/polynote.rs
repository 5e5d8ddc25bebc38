//! Polynote model.
//!
//! * Ships with no authentication mechanism at all; the download page
//!   warns that it "relies entirely on the user deploying and configuring
//!   it in a secure way". Every Internet-exposed instance the paper found
//!   was vulnerable (8 of 8).
//! * Detection: `GET /` contains `<title>Polynote</title>`.
//! * Abuse surface: notebook cells execute Scala/Python — i.e. arbitrary
//!   code.

use crate::base::{impl_webapp, BaseApp};
use crate::catalog::AppId;
use crate::config::AppConfig;
use crate::events::{AppEvent, HandleOutcome};
use crate::html;
use crate::version::Version;
use nokeys_http::{Request, Response};
use std::net::Ipv4Addr;

#[derive(Debug, Clone)]
pub struct Polynote {
    pub(crate) base: BaseApp,
}

impl Polynote {
    pub fn new(version: Version, config: AppConfig) -> Self {
        // Polynote has no auth switch; any configuration is vulnerable.
        let config = AppConfig {
            auth_enabled: false,
            ..config
        };
        Polynote {
            base: BaseApp::new(AppId::Polynote, version, config),
        }
    }

    fn route(&mut self, req: &Request, _peer: Ipv4Addr) -> HandleOutcome {
        match (req.method, req.path()) {
            (nokeys_http::Method::Get, "/") => Response::html(html::page_with_head(
                "Polynote",
                &format!(
                    "{}\n<meta name=\"polynote-config\" content=\"{}\">",
                    html::script("/static/dist/main.js"),
                    self.base.version.number()
                ),
                "<div id=\"Main\" data-polynote=\"app\">polynote</div>",
            ))
            .into(),
            (nokeys_http::Method::Get, "/notebooks") => Response::json("[]").into(),
            (nokeys_http::Method::Post, p) if p.starts_with("/notebooks/") => {
                HandleOutcome::with_event(
                    Response::json("{\"status\":\"queued\"}"),
                    AppEvent::CommandExecuted {
                        command: req.body_text(),
                    },
                )
            }
            _ => Response::not_found().into(),
        }
    }
}

impl_webapp!(Polynote);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{Driver, WebApp};
    use crate::version::release_history;
    const DRIVER: Driver = Driver::new();

    fn make() -> Polynote {
        let v = *release_history(AppId::Polynote).last().unwrap();
        Polynote::new(v, AppConfig::default_for(AppId::Polynote, &v))
    }

    #[test]
    fn always_vulnerable() {
        let v = *release_history(AppId::Polynote).last().unwrap();
        // Even a "secure" config cannot protect Polynote.
        let app = Polynote::new(v, AppConfig::secure_for(AppId::Polynote, &v));
        assert!(app.is_vulnerable());
        let mut app = make();
        assert!(app.is_vulnerable());
        let body = DRIVER.get(&mut app, "/").response.body_text();
        assert!(body.contains("<title>Polynote</title>"));
    }

    #[test]
    fn cells_execute_code() {
        let mut app = make();
        let out = DRIVER.post(&mut app, "/notebooks/nb1/run", "import sys; exec(payload)");
        assert!(matches!(&out.events[0], AppEvent::CommandExecuted { .. }));
    }
}
