//! phpMyAdmin model.
//!
//! * Requires SQL credentials; `AllowNoPassword` (off by default) lets
//!   the `root` account with an empty password in.
//! * Detection: `GET /` (or `/phpmyadmin`) contains 'Server connection
//!   collation' and 'phpMyAdmin documentation' — strings only present on
//!   the authenticated main page, which an empty-password auto-session
//!   reaches without credentials. The login page shows neither.
//! * Abuse surface: SQL execution (which on MySQL can be escalated, e.g.
//!   `INTO OUTFILE` webshells).

use crate::base::{impl_webapp, BaseApp};
use crate::catalog::AppId;
use crate::config::AppConfig;
use crate::events::{AppEvent, HandleOutcome};
use crate::html;
use crate::version::Version;
use nokeys_http::{Request, Response, StatusCode};
use std::net::Ipv4Addr;

#[derive(Debug, Clone)]
pub struct PhpMyAdmin {
    pub(crate) base: BaseApp,
}

impl PhpMyAdmin {
    pub fn new(version: Version, config: AppConfig) -> Self {
        PhpMyAdmin {
            base: BaseApp::new(AppId::PhpMyAdmin, version, config),
        }
    }

    fn open(&self) -> bool {
        self.base.config.allow_no_password
    }

    fn main_page(&self) -> Response {
        Response::html(html::page_with_head(
            &format!(
                "localhost / localhost | phpMyAdmin {}",
                self.base.version.number()
            ),
            &html::css("/themes/pmahomme/css/phpmyadmin.css.php"),
            "<div id=\"pma_navigation\">\
             <form id=\"collation\"><label>Server connection collation</label>\
             <select name=\"collation_connection\"></select></form>\
             <a href=\"/doc/html/index.html\">phpMyAdmin documentation</a>\
             <script>var PMA_commonParams = {};</script></div>",
        ))
    }

    fn login_page(&self) -> Response {
        Response::html(html::page_with_head(
            "phpMyAdmin",
            &html::css("/themes/pmahomme/css/phpmyadmin.css.php"),
            "<form method=\"post\" action=\"index.php\" name=\"login_form\" class=\"pma_login\">\
             <input type=\"text\" name=\"pma_username\">\
             <input type=\"password\" name=\"pma_password\">\
             <input type=\"submit\" value=\"Go\"></form>\
             <script>var PMA_commonParams = {};</script>",
        ))
    }

    fn route(&mut self, req: &Request, _peer: Ipv4Addr) -> HandleOutcome {
        match (req.method, req.path()) {
            (nokeys_http::Method::Get, "/")
            | (nokeys_http::Method::Get, "/phpmyadmin")
            | (nokeys_http::Method::Get, "/index.php") => {
                if self.open() {
                    self.main_page().into()
                } else {
                    self.login_page().into()
                }
            }
            (nokeys_http::Method::Post, "/import.php") => {
                if self.open() {
                    let sql = req
                        .form_param("sql_query")
                        .unwrap_or_else(|| req.body_text());
                    HandleOutcome::with_event(
                        Response::html(html::page("Query results", "<table></table>")),
                        AppEvent::SqlExecuted { query: sql },
                    )
                } else {
                    Response::new(StatusCode::UNAUTHORIZED)
                        .with_body("Access denied for user 'root'@'localhost'")
                        .into()
                }
            }
            _ => Response::not_found().into(),
        }
    }
}

impl_webapp!(PhpMyAdmin);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{Driver, WebApp};
    use crate::version::release_history;
    const DRIVER: Driver = Driver::new();

    fn with_allow_no_password(on: bool) -> PhpMyAdmin {
        let v = *release_history(AppId::PhpMyAdmin).last().unwrap();
        let cfg = if on {
            AppConfig::vulnerable_for(AppId::PhpMyAdmin, &v)
        } else {
            AppConfig::default_for(AppId::PhpMyAdmin, &v)
        };
        PhpMyAdmin::new(v, cfg)
    }

    #[test]
    fn default_shows_login_without_markers() {
        let mut app = with_allow_no_password(false);
        assert!(!app.is_vulnerable());
        let body = DRIVER.get(&mut app, "/").response.body_text();
        assert!(body.contains("phpMyAdmin"));
        assert!(!body.contains("Server connection collation"));
        assert!(!body.contains("phpMyAdmin documentation"));
    }

    #[test]
    fn allow_no_password_reaches_main_page() {
        let mut app = with_allow_no_password(true);
        assert!(app.is_vulnerable());
        let body = DRIVER.get(&mut app, "/").response.body_text();
        assert!(body.contains("Server connection collation"));
        assert!(body.contains("phpMyAdmin documentation"));
    }

    #[test]
    fn works_on_the_phpmyadmin_alias_path() {
        let mut app = with_allow_no_password(true);
        let body = DRIVER.get(&mut app, "/phpmyadmin").response.body_text();
        assert!(body.contains("Server connection collation"));
    }

    #[test]
    fn sql_execution_requires_the_misconfiguration() {
        let mut app = with_allow_no_password(false);
        let out = DRIVER.post(&mut app, "/import.php", "sql_query=SELECT 1");
        assert_eq!(out.response.status.as_u16(), 401);
        assert!(out.events.is_empty());

        let mut app = with_allow_no_password(true);
        let out = DRIVER.post(
            &mut app,
            "/import.php",
            "sql_query=SELECT '<?php' INTO OUTFILE '/var/www/x.php'",
        );
        assert!(matches!(
            &out.events[0],
            AppEvent::SqlExecuted { query } if query.contains("OUTFILE")
        ));
    }
}
