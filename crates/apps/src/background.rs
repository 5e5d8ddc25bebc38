//! Non-AWE background services populating the simulated Internet.
//!
//! The vast majority of the 64M HTTP responses in Table 2 come from hosts
//! that run none of the studied applications. These handlers give the
//! prefilter something realistic to discard.

use nokeys_http::{Request, Response, StatusCode};
use std::net::Ipv4Addr;

/// The background species present in the simulated universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackgroundKind {
    /// Default nginx welcome page.
    NginxDefault,
    /// Default Apache httpd page.
    ApacheDefault,
    /// A small static business/personal website.
    StaticSite,
    /// A JSON API that answers everything with a generic envelope.
    JsonApi,
    /// Responds to the TCP handshake but never with valid HTTP.
    NotHttp,
    /// Redirects every HTTP request to its HTTPS twin.
    RedirectToHttps,
}

impl BackgroundKind {
    pub const ALL: [BackgroundKind; 6] = [
        BackgroundKind::NginxDefault,
        BackgroundKind::ApacheDefault,
        BackgroundKind::StaticSite,
        BackgroundKind::JsonApi,
        BackgroundKind::NotHttp,
        BackgroundKind::RedirectToHttps,
    ];

    /// Whether this species produces a parseable HTTP response at all.
    pub fn speaks_http(self) -> bool {
        !matches!(self, BackgroundKind::NotHttp)
    }

    /// Produce the response of this background service.
    pub fn handle(self, req: &Request, _peer: Ipv4Addr) -> Response {
        match self {
            BackgroundKind::NginxDefault => Response::html(
                "<!DOCTYPE html>\n<html>\n<head><title>Welcome to nginx!</title></head>\n\
                 <body><h1>Welcome to nginx!</h1>\
                 <p>If you see this page, the nginx web server is successfully installed.</p>\
                 </body>\n</html>",
            )
            .with_header("Server", "nginx/1.18.0"),
            BackgroundKind::ApacheDefault => Response::html(
                "<!DOCTYPE html>\n<html>\n<head><title>Apache2 Ubuntu Default Page</title>\
                 </head>\n<body><h1>It works!</h1></body>\n</html>",
            )
            .with_header("Server", "Apache/2.4.41 (Ubuntu)"),
            BackgroundKind::StaticSite => {
                if req.path() == "/" {
                    Response::html(
                        "<!DOCTYPE html>\n<html><head><title>ACME Widgets</title></head>\
                         <body><h1>ACME Widgets Inc.</h1><p>Quality widgets since 1998.</p>\
                         </body></html>",
                    )
                } else {
                    Response::not_found()
                }
            }
            BackgroundKind::JsonApi => Response::json(format!(
                "{{\"status\":\"ok\",\"path\":\"{}\",\"service\":\"api-gateway\"}}",
                req.path()
            )),
            // Callers treat `NotHttp` specially; handing out a response
            // here would be a bug, so serve an empty 400 as a tripwire.
            BackgroundKind::NotHttp => Response::new(StatusCode::BAD_REQUEST),
            BackgroundKind::RedirectToHttps => Response::new(StatusCode::MOVED_PERMANENTLY)
                .with_header("Location", "https://example-cdn.invalid/"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peer() -> Ipv4Addr {
        Ipv4Addr::new(198, 51, 100, 9)
    }

    #[test]
    fn defaults_pages_identify_their_servers() {
        let r = BackgroundKind::NginxDefault.handle(&Request::get("/"), peer());
        assert!(r.body_text().contains("nginx"));
        assert_eq!(r.headers.get("server"), Some("nginx/1.18.0"));
        let r = BackgroundKind::ApacheDefault.handle(&Request::get("/"), peer());
        assert!(r.body_text().contains("It works!"));
    }

    #[test]
    fn none_of_the_background_pages_match_awe_markers() {
        // A sample of prefilter markers that must not appear on noise
        // hosts — otherwise the prefilter would leak them into stage III.
        let markers = [
            "wp-json",
            "/static/yarn.css",
            "Jupyter",
            "certificates.k8s.io",
            "<title>Nomad</title>",
            "<title>Polynote</title>",
            "Joomla",
        ];
        for kind in BackgroundKind::ALL {
            if !kind.speaks_http() {
                continue;
            }
            let body = kind.handle(&Request::get("/"), peer()).body_text();
            for m in markers {
                assert!(!body.contains(m), "{kind:?} contains {m}");
            }
        }
    }

    #[test]
    fn static_site_404s_unknown_paths() {
        let r = BackgroundKind::StaticSite.handle(&Request::get("/wp-admin/install.php"), peer());
        assert_eq!(r.status.as_u16(), 404);
    }

    #[test]
    fn redirector_points_at_https() {
        let r = BackgroundKind::RedirectToHttps.handle(&Request::get("/x"), peer());
        assert!(r.is_followable_redirect());
        assert!(r.location().unwrap().starts_with("https://"));
    }
}
