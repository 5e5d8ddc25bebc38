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
use nokeys_apps::AppId;
use nokeys_http::{Client, Endpoint, Request, Scheme, Transport, Url};
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

/// Fetch a path from a *named* virtual host: request goes to the IP, the
/// `Host` header carries the domain, and redirects are followed with the
/// header preserved.
pub fn fetch_vhost<T: Transport>(
    client: &Client<T>,
    ip: Ipv4Addr,
    domain: &str,
    path: &str,
) -> Option<nokeys_http::Response> {
    let mut current = path.to_string();
    for _ in 0..client.config().max_redirects {
        let url = Url::for_ip(Scheme::Http, ip, 80, &current);
        let req = Request::get(current.clone()).with_header("Host", domain);
        let resp = client.execute(&url, req).ok()?;
        if let Some(location) = resp.location() {
            if resp.status.is_redirect() && location.starts_with('/') {
                current = location.to_string();
                continue;
            }
        }
        return Some(resp);
    }
    None
}

/// The four installation-hijack detection probes, addressed by name.
/// Returns `(app, vulnerable)` for the first CMS that answers.
pub fn probe_domain<T: Transport>(
    client: &Client<T>,
    ip: Ipv4Addr,
    domain: &str,
) -> (Option<AppId>, bool) {
    // Identify the CMS from its root page signatures first.
    let Some(root) = fetch_vhost(client, ip, domain, "/") else {
        return (None, false);
    };
    let body = crate::pattern::PreparedBody::new(root.body_str());
    let candidates = crate::MultiPattern::catalog().match_candidates(&body);
    let cms = candidates.into_iter().find(|app| {
        matches!(
            app,
            AppId::WordPress | AppId::Joomla | AppId::Drupal | AppId::Grav
        )
    });
    let Some(app) = cms else {
        return (None, false);
    };
    // Verify the hijackable state with the app's own plugin, addressed by
    // name. The vhost-aware client wrapper reuses `detect_mav` through a
    // Host-pinning transport adapter.
    let pinned = HostPinned {
        inner: client.transport(),
        domain: domain.to_string(),
    };
    let pinned_client = Client::with_config(pinned, client.config().clone());
    let vulnerable = detect_mav(&pinned_client, app, Endpoint::new(ip, 80), Scheme::Http);
    (Some(app), vulnerable)
}

/// Transport adapter that pins every request's `Host` header to a fixed
/// domain by rewriting the stream at connect time is not possible at the
/// byte level, so instead the adapter is a thin wrapper whose client
/// callers set the header; `detect_mav` goes through `Client::execute`,
/// which preserves caller headers — the pinning happens in
/// `PinnedConn`'s write path by rewriting the serialized `Host` line.
pub struct HostPinned<'a, T> {
    inner: &'a T,
    domain: String,
}

impl<'a, T: Transport> Transport for HostPinned<'a, T> {
    type Conn = PinnedConn<T::Conn>;

    fn probe(&self, ep: Endpoint) -> nokeys_http::ProbeOutcome {
        self.inner.probe(ep)
    }

    fn connect(&self, ep: Endpoint, scheme: Scheme) -> nokeys_http::Result<Self::Conn> {
        let conn = self.inner.connect(ep, scheme)?;
        Ok(Self::pin(conn, self.domain.clone()))
    }

    fn connect_fresh(&self, ep: Endpoint, scheme: Scheme) -> nokeys_http::Result<Self::Conn> {
        let conn = self.inner.connect_fresh(ep, scheme)?;
        Ok(Self::pin(conn, self.domain.clone()))
    }

    fn supports_reuse(&self) -> bool {
        self.inner.supports_reuse()
    }
}

impl<'a, T: Transport> HostPinned<'a, T> {
    fn pin(conn: T::Conn, domain: String) -> PinnedConn<T::Conn> {
        PinnedConn {
            conn,
            domain,
            head_buf: Vec::new(),
            header_done: false,
        }
    }
}

/// Connection wrapper rewriting the `Host:` header of each request head
/// that passes through. Bytes are buffered until the head is complete,
/// rewritten, then written to the inner connection in one piece.
pub struct PinnedConn<C> {
    conn: C,
    domain: String,
    head_buf: Vec<u8>,
    header_done: bool,
}

impl<C: nokeys_http::transport::Connection> std::io::Write for PinnedConn<C> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.header_done {
            return self.conn.write(buf);
        }
        self.head_buf.extend_from_slice(buf);
        if let Some(end) = self.head_buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&self.head_buf[..end]).into_owned();
            let mut wire = Vec::with_capacity(self.head_buf.len() + self.domain.len());
            for (i, line) in head.split("\r\n").enumerate() {
                if i > 0 {
                    wire.extend_from_slice(b"\r\n");
                }
                if i > 0 && line.to_ascii_lowercase().starts_with("host:") {
                    wire.extend_from_slice(format!("Host: {}", self.domain).as_bytes());
                } else {
                    wire.extend_from_slice(line.as_bytes());
                }
            }
            wire.extend_from_slice(&self.head_buf[end..]);
            self.header_done = true;
            self.head_buf.clear();
            self.conn.write_all(&wire)?;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.conn.flush()
    }
}

impl<C: nokeys_http::transport::Connection> std::io::Read for PinnedConn<C> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.conn.read(buf)
    }
}

impl<C: nokeys_http::transport::Connection> nokeys_http::transport::Connection for PinnedConn<C> {
    fn certificate(&self) -> Option<nokeys_http::transport::CertificateInfo> {
        self.conn.certificate()
    }

    fn is_reused(&self) -> bool {
        self.conn.is_reused()
    }

    fn set_reusable(&mut self, reusable: bool) {
        if reusable {
            // Arm the rewriter for the next request head on this
            // (kept-alive) connection.
            self.header_done = false;
        }
        self.conn.set_reusable(reusable);
    }

    fn take_recycled_buf(&mut self) -> Option<Vec<u8>> {
        self.conn.take_recycled_buf()
    }

    fn store_recycled_buf(&mut self, buf: Vec<u8>) {
        self.conn.store_recycled_buf(buf);
    }

    fn set_io_timeout(&mut self, timeout: std::time::Duration) -> std::io::Result<()> {
        self.conn.set_io_timeout(timeout)
    }
}

/// Scan every logged domain `delay_secs` after it appears (the CT
/// watcher's reaction time), invoking `advance_clock` with the probe
/// time.
pub fn ct_scan<T, F>(
    client: &Client<T>,
    entries: &[DomainTarget],
    delay_secs: i64,
    mut advance_clock: F,
) -> Vec<CtFinding>
where
    T: Transport,
    F: FnMut(i64),
{
    let mut sorted: Vec<&DomainTarget> = entries.iter().collect();
    sorted.sort_by_key(|e| (e.logged_at_secs, &e.domain));
    let mut findings = Vec::new();
    for entry in sorted {
        let probe_at = entry.logged_at_secs + delay_secs;
        advance_clock(probe_at);
        let (app, vulnerable) = probe_domain(client, entry.ip, &entry.domain);
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
    use nokeys_http::{Client, Response};
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
        let inner = HandlerTransport::new().with(ep, Arc::new(HostEcho));
        let inner_client = Client::new(inner);
        let pinned = HostPinned {
            inner: inner_client.transport(),
            domain: "pinned.example".into(),
        };
        let client = Client::new(pinned);
        // The client writes `Host: 10.20.20.20`; the pinned connection
        // rewrites it on the wire.
        let fetched = client.get_path(ep, Scheme::Http, "/").unwrap();
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
        let inner = HandlerTransport::new().with(ep, Arc::new(BodyEcho));
        let inner_client = Client::new(inner);
        let pinned = HostPinned {
            inner: inner_client.transport(),
            domain: "d.example".into(),
        };
        let client = Client::new(pinned);
        let url = Url::for_ip(Scheme::Http, ep.ip, ep.port, "/x");
        let resp = client
            .execute(&url, Request::post("/x", "payload-body"))
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
        let client = Client::new(transport);
        let resp = fetch_vhost(&client, ep.ip, "fresh.example", "/").unwrap();
        assert_eq!(resp.body_text(), "installer for fresh.example");
    }

    #[test]
    fn probe_domain_handles_unknown_sites() {
        let ep = Endpoint::new(Ipv4Addr::new(10, 20, 20, 23), 80);
        let transport = HandlerTransport::new().with(ep, Arc::new(HostEcho));
        let client = Client::new(transport);
        let (app, vulnerable) = probe_domain(&client, ep.ip, "whatever.example");
        assert_eq!(app, None);
        assert!(!vulnerable);
    }
}
