//! In-memory connections and a transport serving [`Handler`]s over them —
//! no sockets. [`MemConn`] is the one in-memory connection: this module's
//! [`HandlerTransport`] exposes individual application instances
//! (honeypots, plugin tests, defender scans) through it, and the
//! simulator's `SimTransport` serves its whole universe through it, so
//! both run the exact same client code that runs against real TCP.

use crate::encode::encode_response;
use crate::error::{Error, Result};
use crate::parse::{Decoder, Limits};
use crate::request::Request;
use crate::server::Handler;
use crate::transport::{Attempt, CertificateInfo, Connection, Endpoint};
use crate::transport::{ProbeOutcome, Scheme, Transport};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// A transport with a static routing table from endpoints to handlers.
#[derive(Clone)]
pub struct HandlerTransport {
    routes: HashMap<Endpoint, Arc<dyn Handler>>,
    /// Source IP presented to handlers.
    source_ip: Ipv4Addr,
}

impl Default for HandlerTransport {
    fn default() -> Self {
        Self::new()
    }
}

impl HandlerTransport {
    pub fn new() -> Self {
        HandlerTransport {
            routes: HashMap::new(),
            source_ip: Ipv4Addr::new(198, 51, 100, 50),
        }
    }

    /// Serve `handler` at `ep` (both schemes accepted).
    pub fn mount(&mut self, ep: Endpoint, handler: Arc<dyn Handler>) {
        self.routes.insert(ep, handler);
    }

    /// Builder-style mount.
    pub fn with(mut self, ep: Endpoint, handler: Arc<dyn Handler>) -> Self {
        self.mount(ep, handler);
        self
    }

    /// Set the source IP handlers observe.
    pub fn with_source_ip(mut self, ip: Ipv4Addr) -> Self {
        self.source_ip = ip;
        self
    }

    /// Mounted endpoints.
    pub fn endpoints(&self) -> impl Iterator<Item = Endpoint> + '_ {
        self.routes.keys().copied()
    }
}

impl Transport for HandlerTransport {
    type Conn = MemConn<Arc<dyn Handler>>;

    fn probe(&self, ep: Endpoint, _: Attempt<'_>) -> ProbeOutcome {
        if self.routes.contains_key(&ep) {
            ProbeOutcome::Open
        } else {
            ProbeOutcome::Closed
        }
    }

    fn connect(&self, ep: Endpoint, _scheme: Scheme, _: Attempt<'_>) -> Result<Self::Conn> {
        match self.routes.get(&ep) {
            Some(handler) => Ok(MemConn::http(Arc::clone(handler), self.source_ip)),
            None => Err(Error::Connect("connection refused".into())),
        }
    }
}

/// An in-memory connection: request bytes in, response bytes out, every
/// operation complete at once.
///
/// The far end is one of three things, fixed at construction: an HTTP
/// server answering each complete request through a [`Handler`], a
/// service that sends a fixed banner and never speaks HTTP, or one that
/// accepts and says nothing. Whatever is pending reads first; once it is
/// read, reads return EOF, as if the server closed when idle.
pub struct MemConn<H> {
    /// Answers requests; `None` for a banner or silent far end.
    handler: Option<H>,
    /// Source address the handler sees.
    peer: Ipv4Addr,
    requests: Decoder<Request>,
    /// Bytes sent by the far end; `pending[read_at..]` is not read yet.
    pending: Vec<u8>,
    read_at: usize,
    cert: Option<CertificateInfo>,
}

impl<H: Handler> MemConn<H> {
    fn new(handler: Option<H>, peer: Ipv4Addr, pending: Vec<u8>) -> Self {
        MemConn {
            handler,
            peer,
            requests: Decoder::request(Limits::default()),
            pending,
            read_at: 0,
            cert: None,
        }
    }

    /// An HTTP server answering requests from `peer` through `handler`.
    pub fn http(handler: H, peer: Ipv4Addr) -> Self {
        Self::new(Some(handler), peer, Vec::new())
    }

    /// A service that sends `banner` once, whatever it is sent.
    pub fn banner(banner: &[u8]) -> Self {
        Self::new(None, Ipv4Addr::UNSPECIFIED, banner.to_vec())
    }

    /// A service that accepts and sends nothing.
    pub fn silent() -> Self {
        Self::new(None, Ipv4Addr::UNSPECIFIED, Vec::new())
    }

    /// Present `cert` as the certificate of an HTTPS handshake.
    pub fn with_certificate(mut self, cert: Option<CertificateInfo>) -> Self {
        self.cert = cert;
        self
    }
}

impl<H: Handler> Write for MemConn<H> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if let Some(handler) = &self.handler {
            self.requests.feed(buf);
            // A malformed request ends the connection: the decoder keeps
            // reporting its error, so nothing after it is answered.
            while let Ok(Some(req)) = self.requests.next(false) {
                let resp = handler.handle(&req, self.peer);
                self.pending.extend_from_slice(&encode_response(&resp));
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl<H: Handler> Read for MemConn<H> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let unread = &self.pending[self.read_at..];
        let n = unread.len().min(buf.len());
        buf[..n].copy_from_slice(&unread[..n]);
        self.read_at += n;
        if self.read_at == self.pending.len() {
            self.pending.clear();
            self.read_at = 0;
        }
        Ok(n)
    }
}

impl<H: Handler> Connection for MemConn<H> {
    fn certificate(&self) -> Option<CertificateInfo> {
        self.cert.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::request::Request;
    use crate::response::Response;
    use crate::url::Url;

    fn echo_handler() -> Arc<dyn Handler> {
        Arc::new(|req: &Request, peer: Ipv4Addr| {
            Response::text(format!("{} from {peer}", req.path()))
        })
    }

    #[test]
    fn serves_mounted_handler() {
        let ep = Endpoint::new(Ipv4Addr::new(10, 9, 8, 7), 8080);
        let t = HandlerTransport::new().with(ep, echo_handler());
        assert_eq!(t.probe(ep, Attempt::FIRST), ProbeOutcome::Open);
        let client = Client::new(t);
        let fetched = client
            .get(&Url::for_ip(Scheme::Http, ep.ip, ep.port, "/hello"))
            .unwrap();
        assert!(fetched
            .response
            .body_text()
            .starts_with("/hello from 198.51.100.50"));
    }

    #[test]
    fn unmounted_endpoints_refuse() {
        let t = HandlerTransport::new();
        let ep = Endpoint::new(Ipv4Addr::LOCALHOST, 80);
        assert_eq!(t.probe(ep, Attempt::FIRST), ProbeOutcome::Closed);
        let client = Client::new(t);
        let err = client
            .get(&Url::for_ip(Scheme::Http, ep.ip, ep.port, "/"))
            .unwrap_err();
        assert!(matches!(err, Error::Connect(_)));
    }

    #[test]
    fn source_ip_is_configurable() {
        let ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 80);
        let attacker = Ipv4Addr::new(203, 0, 113, 99);
        let t = HandlerTransport::new()
            .with(ep, echo_handler())
            .with_source_ip(attacker);
        let client = Client::new(t);
        let fetched = client
            .get(&Url::for_ip(Scheme::Http, ep.ip, ep.port, "/x"))
            .unwrap();
        assert!(fetched.response.body_text().contains("203.0.113.99"));
    }

    fn get(path: &str) -> Vec<u8> {
        crate::encode::encode_request(&Request::get(path).with_header("Host", "h"))
    }

    fn read_all(conn: &mut impl Read) -> Vec<u8> {
        let mut out = Vec::new();
        conn.read_to_end(&mut out).unwrap();
        out
    }

    #[test]
    fn a_banner_host_answers_once_and_never_speaks_http() {
        let mut conn = MemConn::<Arc<dyn Handler>>::banner(b"SSH-2.0-OpenSSH_8.9\r\n");
        conn.write_all(&get("/")).unwrap();
        assert_eq!(read_all(&mut conn), b"SSH-2.0-OpenSSH_8.9\r\n");
        conn.write_all(&get("/again")).unwrap();
        assert!(read_all(&mut conn).is_empty());
    }

    #[test]
    fn a_silent_host_reads_eof_at_once() {
        let mut conn = MemConn::<Arc<dyn Handler>>::silent();
        assert_eq!(conn.read(&mut [0; 16]).unwrap(), 0);
        conn.write_all(&get("/")).unwrap();
        assert_eq!(conn.read(&mut [0; 16]).unwrap(), 0);
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let peer = Ipv4Addr::new(10, 0, 0, 9);
        let mut conn = MemConn::http(echo_handler(), peer);
        conn.write_all(&[get("/first"), get("/second")].concat())
            .unwrap();
        let text = String::from_utf8(read_all(&mut conn)).unwrap();
        let first = text.find("/first from 10.0.0.9").expect("first answered");
        let second = text.find("/second from 10.0.0.9").expect("second answered");
        assert!(first < second, "{text}");
        assert_eq!(text.matches("HTTP/1.1 200").count(), 2);
    }
}
