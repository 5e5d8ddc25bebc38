//! Minimal HTTP server loop for exposing handlers over real sockets.
//!
//! Application models from `nokeys-apps` implement [`Handler`]; the
//! `live_scan` example serves them on loopback and scans them with the real
//! pipeline. In-memory transports, the simulator's included, serve
//! handlers without a socket through [`MemConn`](crate::memory::MemConn).

use crate::encode::encode_response;
use crate::error::{Error, Result};
use crate::parse::{Decoder, Limits};
use crate::request::Request;
use crate::response::Response;
use crate::version::Version;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A synchronous request handler.
///
/// Handlers are synchronous on purpose: application models are pure state
/// machines, and keeping them sync lets the discrete-event simulation call
/// them deterministically.
pub trait Handler: Send + Sync {
    /// Produce the response for `req` arriving from `peer`.
    fn handle(&self, req: &Request, peer: Ipv4Addr) -> Response;
}

impl<F> Handler for F
where
    F: Fn(&Request, Ipv4Addr) -> Response + Send + Sync,
{
    fn handle(&self, req: &Request, peer: Ipv4Addr) -> Response {
        self(req, peer)
    }
}

/// A shared handler is a handler, so one mounted instance can serve
/// many connections.
impl<H: Handler + ?Sized> Handler for Arc<H> {
    fn handle(&self, req: &Request, peer: Ipv4Addr) -> Response {
        (**self).handle(req, peer)
    }
}

/// Serve a single already-accepted connection: read requests until the
/// peer closes or an error occurs, answering each via `handler`.
/// Pipelined requests arriving in one read are answered in order — the
/// decoder is drained of messages before more bytes are read.
///
/// Connection lifecycle follows the request's HTTP version: 1.1 keeps
/// the connection open unless a `close` token appears, 1.0 closes
/// unless the peer opted into `keep-alive`. A handler response carrying
/// `Connection: close` also closes. The decision is echoed explicitly
/// (`Connection: close` before closing, `Connection: keep-alive` for
/// 1.0 peers being kept open) so clients never have to guess. Returning
/// ends the connection: the caller closes the stream.
pub fn serve_connection<S, H>(stream: &mut S, handler: &H, peer: Ipv4Addr) -> Result<()>
where
    S: Read + Write,
    H: Handler + ?Sized,
{
    let mut decoder = Decoder::request(Limits::default());
    let mut chunk = [0u8; 4096];
    loop {
        match decoder.next(false) {
            Ok(Some(req)) => {
                let request_close = req.headers.connection_close()
                    || (req.version == Version::Http10 && !req.headers.connection_keep_alive());
                let mut resp = handler.handle(&req, peer);
                let close = request_close || resp.headers.connection_close();
                if close {
                    resp.headers.set("Connection", "close");
                } else if req.version == Version::Http10 {
                    resp.headers.set("Connection", "keep-alive");
                }
                stream.write_all(&encode_response(&resp))?;
                if close {
                    return Ok(());
                }
            }
            Ok(None) => {
                let n = match stream.read(&mut chunk) {
                    Ok(n) => n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e.into()),
                };
                if n == 0 {
                    // Clean close between messages is fine; mid-message is
                    // a protocol error from the peer.
                    return if decoder.is_empty() {
                        Ok(())
                    } else {
                        Err(Error::UnexpectedEof)
                    };
                }
                decoder.feed(&chunk[..n]);
            }
            Err(e) => {
                let resp = Response::new(crate::StatusCode::BAD_REQUEST)
                    .with_body(format!("bad request: {e}"));
                let _ = stream.write_all(&encode_response(&resp));
                return Err(e);
            }
        }
    }
}

/// A running TCP server; dropping the returned handle does not stop the
/// accept loop — call [`ServerHandle::shutdown`].
pub struct ServerHandle {
    /// Port the server is listening on (useful with port 0 binds).
    pub port: u16,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl ServerHandle {
    /// Stop accepting, close every open connection and wait for the
    /// accept loop and its connection threads to end.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop blocks in `accept`; one throwaway connection
        // wakes it so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
        let _ = self.thread.join();
    }
}

/// Bind `addr:port` (port 0 allocates) and serve `handler` until shutdown.
pub fn serve_tcp<H>(addr: Ipv4Addr, port: u16, handler: Arc<H>) -> Result<ServerHandle>
where
    H: Handler + 'static,
{
    let listener = TcpListener::bind((addr, port)).map_err(|e| Error::Connect(e.to_string()))?;
    let addr = listener.local_addr().map_err(Error::from)?;
    let stop = Arc::new(AtomicBool::new(false));
    let thread = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || accept_loop(|| listener.accept(), handler, &stop))
    };
    Ok(ServerHandle {
        port: addr.port(),
        addr,
        stop,
        thread,
    })
}

/// Accept connections from `accept` until `stop` is set, serving each
/// on its own thread via [`serve_connection`]. On the way out every
/// still-open connection is shut down and its thread joined.
///
/// Accept errors are survived, not fatal: they are routinely transient
/// (`EMFILE`/`ENFILE` under descriptor pressure, `ECONNABORTED` when a
/// peer resets between SYN and accept) and a permanent exit would
/// silently kill the listener. The loop backs off briefly — doubling
/// from 1ms and capped at 100ms — which lets descriptor pressure drain
/// instead of spinning, and resets the backoff after the next
/// successful accept.
fn accept_loop<A, H>(mut accept: A, handler: Arc<H>, stop: &AtomicBool)
where
    A: FnMut() -> std::io::Result<(TcpStream, SocketAddr)>,
    H: Handler + ?Sized + 'static,
{
    // A second handle on each served socket, kept to unblock its thread
    // at shutdown.
    let mut conns: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
    let mut backoff = Duration::from_millis(1);
    while !stop.load(Ordering::SeqCst) {
        let (mut stream, peer) = match accept() {
            Ok(accepted) => accepted,
            Err(_) => {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(100));
                continue;
            }
        };
        backoff = Duration::from_millis(1);
        if stop.load(Ordering::SeqCst) {
            break; // the wake-up connection of `shutdown`
        }
        conns.retain(|(_, thread)| !thread.is_finished());
        let Ok(closer) = stream.try_clone() else {
            continue;
        };
        let peer_ip = match peer.ip() {
            std::net::IpAddr::V4(ip) => ip,
            std::net::IpAddr::V6(_) => Ipv4Addr::UNSPECIFIED,
        };
        let handler = Arc::clone(&handler);
        let thread = std::thread::spawn(move || {
            let _ = serve_connection(&mut stream, handler.as_ref(), peer_ip);
            // `closer` keeps the descriptor alive; end the connection
            // for the peer explicitly.
            let _ = stream.shutdown(Shutdown::Both);
        });
        conns.push((closer, thread));
    }
    for (closer, thread) in conns {
        let _ = closer.shutdown(Shutdown::Both);
        let _ = thread.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Visit;
    use crate::transport::{Endpoint, Scheme, TcpTransport};

    #[test]
    fn serves_handler_over_tcp() {
        let handler = Arc::new(|req: &Request, _peer: Ipv4Addr| {
            if req.path() == "/version" {
                Response::json(r#"{"MinAPIVersion":"1.12"}"#)
            } else {
                Response::not_found()
            }
        });
        let server = serve_tcp(Ipv4Addr::LOCALHOST, 0, handler).unwrap();
        let transport = TcpTransport::default();
        let ep = Endpoint::new(Ipv4Addr::LOCALHOST, server.port);
        let visit = Visit::new(&transport, ep, Scheme::Http);
        let fetched = visit.get("/version").unwrap();
        assert!(fetched.response.body_text().contains("MinAPIVersion"));
        let miss = visit.get("/other").unwrap();
        assert_eq!(miss.response.status.as_u16(), 404);
        server.shutdown();
    }

    #[test]
    fn keep_alive_handles_sequential_requests() {
        let handler = Arc::new(|req: &Request, _| Response::text(req.path().to_string()));
        let server = serve_tcp(Ipv4Addr::LOCALHOST, 0, handler).unwrap();

        // Speak raw keep-alive HTTP over one connection.
        let mut stream = TcpStream::connect(("127.0.0.1", server.port)).unwrap();
        for path in ["/a", "/b"] {
            let req = format!("GET {path} HTTP/1.1\r\nHost: h\r\n\r\n");
            stream.write_all(req.as_bytes()).unwrap();
            let mut buf = vec![0u8; 1024];
            let n = stream.read(&mut buf).unwrap();
            let text = String::from_utf8_lossy(&buf[..n]).into_owned();
            assert!(text.contains(&format!("\r\n\r\n{path}")), "{text}");
        }
        server.shutdown();
    }

    /// Open a raw socket to the server and return the full byte stream
    /// the server sends before closing — hangs (and fails via the test
    /// timeout) if the server never closes.
    fn raw_exchange(port: u16, request: &str) -> String {
        let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut out = Vec::new();
        stream.read_to_end(&mut out).unwrap();
        String::from_utf8_lossy(&out).into_owned()
    }

    #[test]
    fn http10_request_closes_after_response() {
        let handler = Arc::new(|_: &Request, _| Response::text("legacy"));
        let server = serve_tcp(Ipv4Addr::LOCALHOST, 0, handler).unwrap();
        // An HTTP/1.0 client without keep-alive reads to EOF; the old
        // server held the connection open and this would hang forever.
        let text = raw_exchange(server.port, "GET / HTTP/1.0\r\nHost: h\r\n\r\n");
        assert!(text.contains("legacy"), "{text}");
        assert!(text.contains("Connection: close"), "{text}");
        server.shutdown();
    }

    #[test]
    fn http10_keep_alive_opt_in_is_honored() {
        let handler = Arc::new(|req: &Request, _| Response::text(req.path().to_string()));
        let server = serve_tcp(Ipv4Addr::LOCALHOST, 0, handler).unwrap();
        let mut stream = TcpStream::connect(("127.0.0.1", server.port)).unwrap();
        for path in ["/a", "/b"] {
            let req = format!("GET {path} HTTP/1.0\r\nHost: h\r\nConnection: keep-alive\r\n\r\n");
            stream.write_all(req.as_bytes()).unwrap();
            let mut buf = vec![0u8; 1024];
            let n = stream.read(&mut buf).unwrap();
            let text = String::from_utf8_lossy(&buf[..n]).into_owned();
            assert!(text.contains(&format!("\r\n\r\n{path}")), "{text}");
            // The server must echo the keep-alive it is granting.
            assert!(text.contains("Connection: keep-alive"), "{text}");
        }
        server.shutdown();
    }

    #[test]
    fn connection_token_list_closes() {
        let handler = Arc::new(|_: &Request, _| Response::text("ok"));
        let server = serve_tcp(Ipv4Addr::LOCALHOST, 0, handler).unwrap();
        // `close` buried in a token list defeated the old exact match.
        let text = raw_exchange(
            server.port,
            "GET / HTTP/1.1\r\nHost: h\r\nConnection: keep-alive, close\r\n\r\n",
        );
        assert!(text.contains("ok"), "{text}");
        assert!(text.contains("Connection: close"), "{text}");
        server.shutdown();
    }

    #[test]
    fn handler_close_header_closes_the_connection() {
        let handler =
            Arc::new(|_: &Request, _| Response::text("bye").with_header("Connection", "close"));
        let server = serve_tcp(Ipv4Addr::LOCALHOST, 0, handler).unwrap();
        // Plain keep-alive request; the handler decides to close.
        let text = raw_exchange(server.port, "GET / HTTP/1.1\r\nHost: h\r\n\r\n");
        assert!(text.contains("bye"), "{text}");
        assert!(text.contains("Connection: close"), "{text}");
        server.shutdown();
    }

    #[test]
    fn accept_loop_survives_transient_accept_errors() {
        let handler = Arc::new(|_: &Request, _: Ipv4Addr| Response::text("served"));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        // Acceptor script: three transient errors, then the real
        // listener. A loop that gave up on the first error would never
        // answer the exchange below.
        let attempts = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let accept = {
            let attempts = Arc::clone(&attempts);
            move || {
                if attempts.fetch_add(1, Ordering::SeqCst) < 3 {
                    Err(std::io::Error::other("accept: EMFILE"))
                } else {
                    listener.accept()
                }
            }
        };
        let loop_thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || accept_loop(accept, handler, &stop))
        };
        let text = raw_exchange(
            addr.port(),
            "GET / HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n",
        );
        assert!(text.contains("served"), "{text}");
        assert!(
            attempts.load(Ordering::SeqCst) >= 4,
            "errors were not retried"
        );
        stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
        loop_thread.join().unwrap();
    }

    #[test]
    fn malformed_request_gets_400() {
        let handler = Arc::new(|_: &Request, _| Response::text("never"));
        let server = serve_tcp(Ipv4Addr::LOCALHOST, 0, handler).unwrap();
        let mut stream = TcpStream::connect(("127.0.0.1", server.port)).unwrap();
        stream.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let mut buf = vec![0u8; 1024];
        let n = stream.read(&mut buf).unwrap();
        let text = String::from_utf8_lossy(&buf[..n]).into_owned();
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
        server.shutdown();
    }
}
