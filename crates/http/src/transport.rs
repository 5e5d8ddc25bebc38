//! Byte-stream transport abstraction.
//!
//! The scanning pipeline is generic over how bytes reach a host so the same
//! code can run against the real Internet (`std::net` TCP) and against the
//! simulated IPv4 universe from `nokeys-netsim`. Everything is blocking:
//! concurrency comes from the scanner's shard worker threads, each of
//! which drives its own connections.

use crate::error::{Error, Result};
use crate::ip::Cidr;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Connection scheme. TLS is modeled, not implemented: the simulated
/// transport performs a pretend handshake and can expose a certificate
/// subject name, which is all the study uses TLS for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    Http,
    Https,
}

impl Scheme {
    pub fn as_str(self) -> &'static str {
        match self {
            Scheme::Http => "http",
            Scheme::Https => "https",
        }
    }

    pub fn default_port(self) -> u16 {
        match self {
            Scheme::Http => 80,
            Scheme::Https => 443,
        }
    }
}

/// A scan target: IPv4 address and TCP port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Endpoint {
    pub ip: Ipv4Addr,
    pub port: u16,
}

impl Endpoint {
    pub fn new(ip: Ipv4Addr, port: u16) -> Self {
        Endpoint { ip, port }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.ip, self.port)
    }
}

/// Result of a half-open (SYN-style) port probe, mirroring masscan's view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeOutcome {
    /// SYN-ACK received: something is listening.
    Open,
    /// RST received: port closed.
    Closed,
    /// No answer within the probe deadline (dropped or filtered).
    Filtered,
}

/// Certificate information surfaced by an HTTPS connection.
///
/// Used by the responsible-disclosure step of the study: the scanner
/// inspects certificates for contactable domain names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertificateInfo {
    /// Subject common name / first SAN, if the host presented one.
    pub subject: Option<String>,
}

/// A byte-stream connection plus connection-level metadata.
pub trait Connection: Read + Write + Send {
    /// Certificate presented during an HTTPS handshake, if any.
    fn certificate(&self) -> Option<CertificateInfo> {
        None
    }

    /// Bound every later blocking read and write on this connection to
    /// `timeout`; an operation that exceeds it fails with a timed-out
    /// I/O error. The client calls this with what is left of its
    /// per-exchange deadline. In-memory connections never block, so the
    /// default is a no-op.
    fn set_io_timeout(&mut self, timeout: Duration) -> std::io::Result<()> {
        let _ = timeout;
        Ok(())
    }
}

/// What the caller knows about one try at an endpoint: the request
/// target (empty for a probe or a bare handshake) and the try number
/// each retry layer advances. Fault injection keys its draws on it;
/// every other transport ignores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attempt<'a> {
    pub target: &'a str,
    pub n: u32,
}

impl Attempt<'_> {
    /// The first try, with no request target.
    pub const FIRST: Attempt<'static> = Attempt { target: "", n: 0 };

    /// Try `k` of a retry loop around this one.
    pub fn retry(mut self, k: u32) -> Self {
        self.n = self.n.wrapping_add(k);
        self
    }
}

/// The operation a fault-injecting transport fails on purpose. Each
/// discriminant is its lane's hash tag, so probe and connect tries with
/// otherwise equal keys draw independent fates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultLane {
    /// Stage-I SYN probe: an injected fault drops the answer, so the
    /// endpoint reads as [`ProbeOutcome::Filtered`].
    Probe = 0x50,
    /// Connection establishment: an injected fault times the attempt
    /// out ([`Error::Timeout`]).
    Connect = 0x43,
}

/// Told the lane of every fault a transport injects.
pub type FaultObserver = Arc<dyn Fn(FaultLane) + Send + Sync>;

/// Blocking transport used by the scanner, the client and the honeypots.
///
/// Implementations: [`TcpTransport`] (real sockets) and
/// `nokeys_netsim::SimTransport` (simulated universe).
pub trait Transport: Send + Sync {
    /// Concrete connection type.
    type Conn: Connection;

    /// Half-open probe of a single port. Must be cheap: stage I of the
    /// pipeline issues one probe per (address, port) pair.
    fn probe(&self, ep: Endpoint, attempt: Attempt<'_>) -> ProbeOutcome;

    /// Full connection establishment with the given scheme.
    fn connect(&self, ep: Endpoint, scheme: Scheme, attempt: Attempt<'_>) -> Result<Self::Conn>;

    /// The addresses of `block` that may answer a probe, ascending, as
    /// `u32`s; `None` (the default) means any of them may. Every
    /// address left out must answer [`ProbeOutcome::Closed`] on every
    /// port, to every try, so a sweep may skip it.
    fn live_addresses(&self, block: Cidr) -> Option<&[u32]> {
        let _ = block;
        None
    }

    /// From now on, report every fault this transport injects to
    /// `observer`, in place of wherever its faults went before, so a
    /// caller can count a unit of work's faults with the rest of its
    /// telemetry. A transport that injects no faults ignores it; a
    /// wrapper passes it on to the transport it wraps.
    fn report_faults_to(&mut self, observer: FaultObserver) {
        let _ = observer;
    }
}

/// A borrowed transport is a transport, so a [`Client`](crate::Client)
/// can be built around one it does not own.
impl<T: Transport> Transport for &T {
    type Conn = T::Conn;

    fn probe(&self, ep: Endpoint, attempt: Attempt<'_>) -> ProbeOutcome {
        (**self).probe(ep, attempt)
    }

    fn connect(&self, ep: Endpoint, scheme: Scheme, attempt: Attempt<'_>) -> Result<Self::Conn> {
        (**self).connect(ep, scheme, attempt)
    }

    fn live_addresses(&self, block: Cidr) -> Option<&[u32]> {
        (**self).live_addresses(block)
    }
}

/// Real-socket transport over `std::net`. HTTPS is rejected — the real
/// transport exists to prove the pipeline runs on actual sockets (see the
/// `live_scan` example), and the locally served app models speak plain HTTP.
#[derive(Debug, Clone)]
pub struct TcpTransport {
    /// Deadline for both probes and connects.
    pub connect_timeout: Duration,
}

impl Default for TcpTransport {
    fn default() -> Self {
        TcpTransport {
            connect_timeout: Duration::from_secs(3),
        }
    }
}

impl Connection for TcpStream {
    fn set_io_timeout(&mut self, timeout: Duration) -> std::io::Result<()> {
        // A zero timeout is an error to the socket API; the caller's
        // deadline has passed, so the next operation should fail at once.
        let timeout = Some(timeout.max(Duration::from_millis(1)));
        self.set_read_timeout(timeout)?;
        self.set_write_timeout(timeout)
    }
}

impl TcpTransport {
    fn dial(&self, ep: Endpoint) -> std::io::Result<TcpStream> {
        TcpStream::connect_timeout(&SocketAddr::from((ep.ip, ep.port)), self.connect_timeout)
    }
}

impl Transport for TcpTransport {
    type Conn = TcpStream;

    fn probe(&self, ep: Endpoint, _: Attempt<'_>) -> ProbeOutcome {
        match self.dial(ep) {
            Ok(_stream) => ProbeOutcome::Open,
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => ProbeOutcome::Closed,
            Err(_) => ProbeOutcome::Filtered,
        }
    }

    fn connect(&self, ep: Endpoint, scheme: Scheme, _: Attempt<'_>) -> Result<Self::Conn> {
        if scheme == Scheme::Https {
            return Err(Error::SchemeUnsupported);
        }
        self.dial(ep).map_err(|e| match e.kind() {
            std::io::ErrorKind::TimedOut => Error::Timeout,
            _ => Error::Connect(e.to_string()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn scheme_defaults() {
        assert_eq!(Scheme::Http.default_port(), 80);
        assert_eq!(Scheme::Https.default_port(), 443);
        assert_eq!(Scheme::Https.as_str(), "https");
    }

    #[test]
    fn endpoint_display() {
        let ep = Endpoint::new(Ipv4Addr::new(192, 0, 2, 7), 8080);
        assert_eq!(ep.to_string(), "192.0.2.7:8080");
    }

    #[test]
    fn tcp_probe_open_and_closed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let t = TcpTransport::default();
        let open = t.probe(Endpoint::new(Ipv4Addr::LOCALHOST, port), Attempt::FIRST);
        assert_eq!(open, ProbeOutcome::Open);
        drop(listener);
        let closed = t.probe(Endpoint::new(Ipv4Addr::LOCALHOST, port), Attempt::FIRST);
        assert_eq!(closed, ProbeOutcome::Closed);
    }

    #[test]
    fn tcp_connect_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4];
            s.read_exact(&mut buf).unwrap();
            s.write_all(&buf).unwrap();
        });
        let t = TcpTransport::default();
        let mut conn = t
            .connect(
                Endpoint::new(Ipv4Addr::LOCALHOST, port),
                Scheme::Http,
                Attempt::FIRST,
            )
            .unwrap();
        conn.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        conn.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        server.join().unwrap();
    }

    #[test]
    fn tcp_rejects_https() {
        let t = TcpTransport::default();
        let err = t
            .connect(
                Endpoint::new(Ipv4Addr::LOCALHOST, 1),
                Scheme::Https,
                Attempt::FIRST,
            )
            .unwrap_err();
        assert_eq!(err, Error::SchemeUnsupported);
    }
}
