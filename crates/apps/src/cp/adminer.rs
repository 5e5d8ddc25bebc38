//! Adminer model.
//!
//! * A single-file PHP database client. Before 4.6.3 (mid 2018) it would
//!   log into database accounts with empty passwords; newer versions
//!   refuse empty passwords outright.
//! * Detection: `GET /adminer.php?username=root` (or
//!   `/adminer/adminer.php?...`) contains 'through PHP extension' and
//!   'Logged as' — the post-login banner.

use crate::base::{impl_webapp, BaseApp};
use crate::catalog::AppId;
use crate::config::AppConfig;
use crate::events::{AppEvent, HandleOutcome};
use crate::html;
use crate::version::Version;
use nokeys_http::{Request, Response, StatusCode};
use std::net::Ipv4Addr;

#[derive(Debug, Clone)]
pub struct Adminer {
    pub(crate) base: BaseApp,
}

impl Adminer {
    pub fn new(version: Version, config: AppConfig) -> Self {
        Adminer {
            base: BaseApp::new(AppId::Adminer, version, config),
        }
    }

    /// Empty-password logins succeed only on old versions *and* when the
    /// database actually has a passwordless account.
    fn open(&self) -> bool {
        self.base.config.allow_no_password && self.base.version.triple() < (4, 6, 3)
    }

    fn logged_in_page(&self) -> Response {
        Response::html(html::page_with_head(
            &format!("root@localhost - Adminer {}", self.base.version.number()),
            &html::css("/adminer.css"),
            "<div id=\"menu\"><p>MySQL 5.7.33 through PHP extension <b>mysqli</b></p>\
             <p>Logged as: <b>root@localhost</b></p>\
             <a href=\"https://www.adminer.org\">Adminer</a></div>\
             <form action=\"?sql=\" method=\"post\"><textarea name=\"query\"></textarea></form>",
        ))
    }

    fn login_page(&self, error: bool) -> Response {
        let err = if error {
            "<p class=\"error\">Authentication failed: Access denied.</p>"
        } else {
            ""
        };
        Response::html(html::page_with_head(
            &format!("Login - Adminer {}", self.base.version.number()),
            &html::css("/adminer.css"),
            &format!(
                "{err}<form action=\"/adminer.php\" method=\"post\">\
                 <input name=\"auth[driver]\" value=\"server\">\
                 <input name=\"auth[username]\"><input type=\"password\" name=\"auth[password]\">\
                 <input type=\"submit\" value=\"Login\"></form>\
                 <a href=\"https://www.adminer.org\">Adminer</a>"
            ),
        ))
    }

    fn is_adminer_path(path: &str) -> bool {
        path == "/adminer.php" || path == "/adminer/adminer.php"
    }

    fn route(&mut self, req: &Request, _peer: Ipv4Addr) -> HandleOutcome {
        match (req.method, req.path()) {
            (nokeys_http::Method::Get, p) if Self::is_adminer_path(p) => {
                // `?username=root` attempts a passwordless login.
                if req.query_param("username").is_some() {
                    if self.open() {
                        self.logged_in_page().into()
                    } else {
                        self.login_page(true).into()
                    }
                } else {
                    self.login_page(false).into()
                }
            }
            (nokeys_http::Method::Get, "/") => Response::redirect("/adminer.php").into(),
            (nokeys_http::Method::Post, p) if Self::is_adminer_path(p) => {
                if self.open() {
                    let sql = req.form_param("query").unwrap_or_else(|| req.body_text());
                    HandleOutcome::with_event(
                        Response::html(html::page("Query", "<table></table>")),
                        AppEvent::SqlExecuted { query: sql },
                    )
                } else {
                    Response::new(StatusCode::FORBIDDEN)
                        .with_body(
                            "Adminer does not support accessing a database without a password",
                        )
                        .into()
                }
            }
            _ => Response::not_found().into(),
        }
    }
}

impl_webapp!(Adminer);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{Driver, WebApp};
    use crate::version::release_history;
    const DRIVER: Driver = Driver::new();

    fn at(triple: (u16, u16, u16), allow: bool) -> Adminer {
        let v = *release_history(AppId::Adminer)
            .iter()
            .find(|v| v.triple() == triple)
            .unwrap();
        let mut cfg = AppConfig::default_for(AppId::Adminer, &v);
        cfg.allow_no_password = allow;
        Adminer::new(v, cfg)
    }

    #[test]
    fn old_adminer_with_empty_password_account_logs_in() {
        let mut app = at((4, 3, 0), true);
        assert!(app.is_vulnerable());
        let body = DRIVER
            .get(&mut app, "/adminer.php?username=root")
            .response
            .body_text();
        assert!(body.contains("through PHP extension"));
        assert!(body.contains("Logged as"));
    }

    #[test]
    fn new_adminer_rejects_empty_password() {
        let mut app = at((4, 8, 0), true);
        assert!(!app.is_vulnerable(), "4.6.3+ rejects empty passwords");
        let body = DRIVER
            .get(&mut app, "/adminer.php?username=root")
            .response
            .body_text();
        assert!(!body.contains("Logged as"));
        assert!(body.contains("Authentication failed"));
    }

    #[test]
    fn old_adminer_without_passwordless_account_is_safe() {
        let mut app = at((4, 3, 0), false);
        assert!(!app.is_vulnerable());
        let body = DRIVER
            .get(&mut app, "/adminer.php?username=root")
            .response
            .body_text();
        assert!(!body.contains("Logged as"));
    }

    #[test]
    fn alternate_path_works() {
        let mut app = at((4, 3, 0), true);
        let body = DRIVER
            .get(&mut app, "/adminer/adminer.php?username=root")
            .response
            .body_text();
        assert!(body.contains("Logged as"));
    }

    #[test]
    fn sql_execution_when_open() {
        let mut app = at((4, 3, 0), true);
        let out = DRIVER.post(&mut app, "/adminer.php", "query=DROP TABLE users");
        assert!(matches!(
            &out.events[0],
            AppEvent::SqlExecuted { query } if query.contains("DROP TABLE")
        ));
        let mut app = at((4, 8, 0), true);
        let out = DRIVER.post(&mut app, "/adminer.php", "query=SELECT 1");
        assert!(out.events.is_empty());
    }
}
