//! Certificate-Transparency-driven scanning (the paper's §6.2 warning).
//!
//! "Attackers could increase the likelihood to discover unsecured
//! applications and unfinished installations by using Certificate
//! Transparency (CT) logs to discover newly registered domains and scan
//! those preferably instead of a full sweep of the IPv4 space."
//!
//! This module implements that strategy: consume `(domain, ip, time)`
//! entries, probe each domain *by name* (`Host` header on the shared IP)
//! shortly after it appears in the log, and run the installation-hijack
//! plugins against it. Comparing its yield against the IP-wide sweep
//! quantifies the paper's "our results are a lower bound" claim.

use crate::plugin::detect_mav;
use crate::prefilter::candidates;
use crate::scratch::Scratch;
use nokeys_apps::{AppId, AttackVector};
use nokeys_http::{Endpoint, Scheme, Transport, Visit};
use std::net::Ipv4Addr;

/// A CT log entry as consumed by the scanner (mirrors
/// `nokeys_netsim::CtEntry` without depending on the simulation crate).
#[derive(Debug, Clone)]
pub struct DomainTarget {
    pub domain: String,
    pub ip: Ipv4Addr,
    /// Seconds (since scan start) the entry appeared in the log.
    pub logged_at_secs: i64,
}

/// Result of probing one freshly logged domain.
#[derive(Debug, Clone)]
pub struct CtFinding {
    pub domain: String,
    pub ip: Ipv4Addr,
    /// The CMS identified behind the name, if any.
    pub app: Option<AppId>,
    /// Whether the installation was still hijackable when probed.
    pub vulnerable: bool,
    /// Seconds since scan start when the probe ran.
    pub probed_at_secs: i64,
}

/// The four installation-hijack detection probes, addressed by name.
/// Returns `(app, vulnerable)` for the first CMS that answers.
pub fn probe_domain<T: Transport>(
    transport: &T,
    ip: Ipv4Addr,
    domain: &str,
) -> (Option<AppId>, bool) {
    // Every request names the domain: `Host: domain` to the shared IP,
    // redirects followed with the header kept.
    let visit = Visit::new(transport, Endpoint::new(ip, 80), Scheme::Http).named(domain);
    // Identify the CMS from its root page signatures first.
    let Ok(root) = visit.get("/") else {
        return (None, false);
    };
    let cms = candidates(&root.response.body_str(), &mut Scratch::new())
        .into_iter()
        .find(|app| app.info().vector == Some(AttackVector::Install));
    let Some(app) = cms else {
        return (None, false);
    };
    // Verify the hijackable state with the app's own plugin, addressed
    // by name.
    let vulnerable = detect_mav(&visit, app);
    (Some(app), vulnerable)
}

/// Scan every logged domain `delay_secs` after it appears (the CT
/// watcher's reaction time), through `transport_at(secs)`: a transport
/// that sees the network at that offset from the scan start.
pub fn ct_scan<T: Transport>(
    transport_at: impl Fn(i64) -> T,
    entries: &[DomainTarget],
    delay_secs: i64,
) -> Vec<CtFinding> {
    let mut sorted: Vec<&DomainTarget> = entries.iter().collect();
    sorted.sort_by_key(|e| (e.logged_at_secs, &e.domain));
    let mut findings = Vec::new();
    for entry in sorted {
        let probe_at = entry.logged_at_secs + delay_secs;
        let (app, vulnerable) = probe_domain(&transport_at(probe_at), entry.ip, &entry.domain);
        findings.push(CtFinding {
            domain: entry.domain.clone(),
            ip: entry.ip,
            app,
            vulnerable,
            probed_at_secs: probe_at,
        });
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use nokeys_http::memory::HandlerTransport;
    use nokeys_http::{Request, Response};
    use std::sync::Arc;

    /// Handler that echoes the Host header it received.
    struct HostEcho;
    impl nokeys_http::server::Handler for HostEcho {
        fn handle(&self, req: &Request, _peer: Ipv4Addr) -> Response {
            Response::text(req.headers.get("host").unwrap_or("none").to_string())
        }
    }

    #[test]
    fn host_pinned_transport_rewrites_the_header() {
        let ep = Endpoint::new(Ipv4Addr::new(10, 20, 20, 20), 80);
        let transport = HandlerTransport::new().with(ep, Arc::new(HostEcho));
        let visit = Visit::new(&transport, ep, Scheme::Http);
        // Unnamed, the visit writes `Host: 10.20.20.20`.
        let fetched = visit.get("/").unwrap();
        assert_eq!(fetched.response.body_text(), "10.20.20.20");
        let fetched = visit.named("pinned.example").get("/").unwrap();
        assert_eq!(fetched.response.body_text(), "pinned.example");
    }

    #[test]
    fn host_pinned_handles_requests_with_bodies() {
        struct BodyEcho;
        impl nokeys_http::server::Handler for BodyEcho {
            fn handle(&self, req: &Request, _peer: Ipv4Addr) -> Response {
                Response::text(format!(
                    "{}|{}",
                    req.headers.get("host").unwrap_or("none"),
                    req.body_text()
                ))
            }
        }
        let ep = Endpoint::new(Ipv4Addr::new(10, 20, 20, 21), 80);
        let transport = HandlerTransport::new().with(ep, Arc::new(BodyEcho));
        let resp = Visit::new(&transport, ep, Scheme::Http)
            .named("d.example")
            .execute(Request::post("/x", "payload-body"))
            .unwrap();
        assert_eq!(resp.body_text(), "d.example|payload-body");
    }

    #[test]
    fn fetch_vhost_follows_relative_redirects_with_host() {
        struct Redirecting;
        impl nokeys_http::server::Handler for Redirecting {
            fn handle(&self, req: &Request, _peer: Ipv4Addr) -> Response {
                match req.path() {
                    "/" => Response::redirect("/installer"),
                    "/installer" => Response::text(format!(
                        "installer for {}",
                        req.headers.get("host").unwrap_or("none")
                    )),
                    _ => Response::not_found(),
                }
            }
        }
        let ep = Endpoint::new(Ipv4Addr::new(10, 20, 20, 22), 80);
        let transport = HandlerTransport::new().with(ep, Arc::new(Redirecting));
        let fetched = Visit::new(&transport, ep, Scheme::Http)
            .named("fresh.example")
            .get("/")
            .unwrap();
        assert_eq!(fetched.redirects, 1);
        assert_eq!(fetched.response.body_text(), "installer for fresh.example");
    }

    #[test]
    fn probe_domain_handles_unknown_sites() {
        let ep = Endpoint::new(Ipv4Addr::new(10, 20, 20, 23), 80);
        let transport = HandlerTransport::new().with(ep, Arc::new(HostEcho));
        let (app, vulnerable) = probe_domain(&transport, ep.ip, "whatever.example");
        assert_eq!(app, None);
        assert!(!vulnerable);
    }
}
