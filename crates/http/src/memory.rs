//! In-memory transport serving [`Handler`]s directly — no sockets, no
//! universe. Used to expose individual application instances (honeypots,
//! plugin tests, defender scans) to the exact same client code that runs
//! against real TCP.

use crate::encode::encode_response;
use crate::error::{Error, Result};
use crate::parse::{Decoder, Limits};
use crate::request::Request;
use crate::server::Handler;
use crate::transport::{Connection, Endpoint, ProbeOutcome, Scheme, Transport};
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
    type Conn = HandlerConn;

    fn probe(&self, ep: Endpoint) -> ProbeOutcome {
        if self.routes.contains_key(&ep) {
            ProbeOutcome::Open
        } else {
            ProbeOutcome::Closed
        }
    }

    fn connect(&self, ep: Endpoint, _scheme: Scheme) -> Result<HandlerConn> {
        match self.routes.get(&ep) {
            Some(handler) => Ok(HandlerConn {
                handler: Arc::clone(handler),
                peer: self.source_ip,
                requests: Decoder::request(Limits::default()),
                read_buf: Vec::new(),
            }),
            None => Err(Error::Connect("connection refused".into())),
        }
    }
}

/// Connection to a mounted handler: request bytes in, response bytes out.
pub struct HandlerConn {
    handler: Arc<dyn Handler>,
    peer: Ipv4Addr,
    requests: Decoder<Request>,
    read_buf: Vec<u8>,
}

impl HandlerConn {
    fn pump(&mut self) {
        // A malformed request ends the connection: the decoder keeps
        // reporting its error, so nothing after it is answered.
        while let Ok(Some(req)) = self.requests.next(false) {
            let resp = self.handler.handle(&req, self.peer);
            self.read_buf.extend_from_slice(&encode_response(&resp));
        }
    }
}

impl Write for HandlerConn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.requests.feed(buf);
        self.pump();
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Read for HandlerConn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        // An empty buffer reads as EOF: the server closes when idle.
        let n = self.read_buf.len().min(buf.len());
        buf[..n].copy_from_slice(&self.read_buf[..n]);
        self.read_buf.drain(..n);
        Ok(n)
    }
}

impl Connection for HandlerConn {}

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
        assert_eq!(t.probe(ep), ProbeOutcome::Open);
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
        assert_eq!(t.probe(ep), ProbeOutcome::Closed);
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
}
