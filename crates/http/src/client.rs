//! The one fetch type: a [`Visit`] is one endpoint over one scheme
//! through one [`Transport`], optionally under a virtual-host name.
//!
//! Mirrors the paper's scanning constraints: bounded redirects ("we
//! followed redirects until we received a response body"), bounded body
//! sizes and a crawler-style `User-Agent`. A request goes to an
//! `(endpoint, scheme, path)`: the scanner addresses IPv4 endpoints
//! only. The transport that can block bounds each exchange in time
//! ([`TcpTransport`](crate::transport::TcpTransport)).

use crate::encode::encode_request;
use crate::error::{Error, Result};
use crate::parse::{Decoder, Limits};
use crate::request::Request;
use crate::response::Response;
use crate::transport::{Attempt, Connection, Endpoint, Scheme, Transport};
use std::net::Ipv4Addr;

/// Redirects a `GET` follows before it gives up.
pub const MAX_REDIRECTS: usize = 5;

/// `User-Agent` header value.
const USER_AGENT: &str = "nokeys-scanner/0.1 (research; non-intrusive)";

/// The response a `GET` finally received and the redirect-chain length.
#[derive(Debug, Clone)]
pub struct Fetched {
    pub response: Response,
    pub redirects: usize,
}

/// One endpoint over one scheme through one transport, and so at one
/// instant. Stage II's `/`, a stage-III plugin, stage IV's crawl, the
/// Figure 2 recheck, CT, the defender model and the honeypot attackers
/// all fetch through a visit.
pub struct Visit<'a, T> {
    transport: &'a T,
    ep: Endpoint,
    scheme: Scheme,
    /// Name-based virtual host every request is addressed to, if any.
    host: Option<&'a str>,
}

impl<T> Clone for Visit<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Visit<'_, T> {}

impl<'a, T: Transport> Visit<'a, T> {
    pub fn new(transport: &'a T, ep: Endpoint, scheme: Scheme) -> Self {
        Visit {
            transport,
            ep,
            scheme,
            host: None,
        }
    }

    /// The same visit with every request naming the virtual host
    /// `name`: `Host: name` goes wherever [`execute`](Self::execute)
    /// would have written the endpoint. This is how a site behind a
    /// shared IP is scanned by name (the paper's §6.2 "under counting"
    /// discussion).
    pub fn named(self, name: &'a str) -> Self {
        Visit {
            host: Some(name),
            ..self
        }
    }

    /// Issue a single request without following redirects: dial, one
    /// exchange, drop the connection.
    ///
    /// A caller-provided `Host` header is preserved; absent one, the
    /// header names the visit's virtual host ([`named`](Self::named))
    /// or else the endpoint: its address, with the port when it is not
    /// the scheme's default. The same holds for a caller-provided
    /// `Connection` header; absent one, the visit asks for
    /// `Connection: close`, since it never sends a second request down
    /// a connection.
    pub fn execute(&self, mut req: Request) -> Result<Response> {
        self.exchange(self.ep, self.scheme, &mut req)
    }

    /// `GET path` with redirect following; an empty path is `/`.
    /// Returns the first response that is not a followable redirect.
    pub fn get(&self, path: &str) -> Result<Fetched> {
        let (mut ep, mut scheme) = (self.ep, self.scheme);
        let mut req = Request::get(path);
        for hop in 0..=MAX_REDIRECTS {
            let response = self.exchange(ep, scheme, &mut req)?;
            if !response.is_followable_redirect() {
                return Ok(Fetched {
                    response,
                    redirects: hop,
                });
            }
            let location = response
                .location()
                .expect("checked by is_followable_redirect");
            let path;
            (ep, scheme, path) = resolve(ep, scheme, &req.target, location)?;
            req = Request::get(path);
        }
        Err(Error::TooManyRedirects(MAX_REDIRECTS))
    }

    /// [`execute`](Self::execute) at `(ep, scheme)` on a request the
    /// caller keeps, so a redirect can be resolved against its target.
    fn exchange(&self, ep: Endpoint, scheme: Scheme, req: &mut Request) -> Result<Response> {
        if !req.headers.contains("host") {
            match self.host {
                Some(name) => req.headers.set("Host", name),
                None if ep.port == scheme.default_port() => {
                    req.headers.set("Host", ep.ip.to_string())
                }
                None => req.headers.set("Host", ep.to_string()),
            }
        }
        if !req.headers.contains("user-agent") {
            req.headers.set("User-Agent", USER_AGENT);
        }
        if !req.headers.contains("connection") {
            req.headers.set("Connection", "close");
        }
        let wire = encode_request(req);
        let attempt = Attempt {
            target: &req.target,
            n: 0,
        };
        let mut conn = self.transport.connect(ep, scheme, attempt)?;
        exchange_once(&mut conn, &wire, req.method == crate::Method::Head)
    }
}

/// Where a redirect to `location` from `path` on `(ep, scheme)` leads.
///
/// Handles absolute URLs, scheme-relative (`//host/..`), absolute paths
/// and relative paths — all four appear in real redirect chains. A
/// relative path replaces what follows the last `/` of `path`, whose
/// query is ignored. The scanner addresses IPv4 endpoints only, so a
/// host name is refused: DNS would be an external dependency.
fn resolve(
    ep: Endpoint,
    scheme: Scheme,
    path: &str,
    location: &str,
) -> Result<(Endpoint, Scheme, String)> {
    let (scheme, rest) = if let Some(rest) = location.strip_prefix("http://") {
        (Scheme::Http, rest)
    } else if let Some(rest) = location.strip_prefix("https://") {
        (Scheme::Https, rest)
    } else if let Some(rest) = location.strip_prefix("//") {
        (scheme, rest)
    } else if location.starts_with('/') {
        return Ok((ep, scheme, location.to_string()));
    } else {
        let path = path.split_once('?').map_or(path, |(path, _)| path);
        let base = path.rfind('/').map_or("/", |idx| &path[..=idx]);
        return Ok((ep, scheme, format!("{base}{location}")));
    };
    let (authority, path) = match rest.find('/') {
        Some(idx) => rest.split_at(idx),
        None => (rest, "/"),
    };
    if authority.is_empty() {
        return Err(Error::InvalidUrl("empty authority"));
    }
    let (host, port) = match authority.rsplit_once(':') {
        Some((host, port)) => (
            host,
            port.parse().map_err(|_| Error::InvalidUrl("bad port"))?,
        ),
        None => (authority, scheme.default_port()),
    };
    if host.is_empty() {
        return Err(Error::InvalidUrl("empty host"));
    }
    if let Ok(ip) = host.parse::<Ipv4Addr>() {
        return Ok((Endpoint::new(ip, port), scheme, path.to_string()));
    }
    if !host
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '.' | '_'))
    {
        return Err(Error::InvalidUrl("invalid host characters"));
    }
    Err(Error::Connect("DNS resolution not supported".into()))
}

/// Write `wire` and read one response: read, feed the [`Decoder`], ask
/// it for the message.
fn exchange_once<C: Connection>(conn: &mut C, wire: &[u8], head_method: bool) -> Result<Response> {
    // Not all transports propagate flush, but it is correct to ask.
    conn.write_all(wire)?;
    conn.flush()?;
    let mut decoder = Decoder::response(head_method, Limits::default());
    let mut chunk = [0u8; 4096];
    let mut eof = false;
    loop {
        if let Some(resp) = decoder.next(eof)? {
            return Ok(resp);
        }
        match conn.read(&mut chunk) {
            Ok(0) => eof = true,
            Ok(n) => decoder.feed(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_response;
    use crate::status::StatusCode;
    use crate::transport::TcpTransport;
    use std::io::{Read, Write};

    /// Spawn a TCP server that answers each connection with a canned
    /// response produced by `f(path)`. The accept thread is detached on
    /// purpose: it blocks in `accept` until the test process exits.
    fn canned_server<F>(f: F) -> Endpoint
    where
        F: Fn(&str) -> Response + Send + Sync + 'static,
    {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        std::thread::spawn(move || {
            while let Ok((mut stream, _)) = listener.accept() {
                let mut buf = vec![0u8; 4096];
                let n = stream.read(&mut buf).unwrap_or(0);
                let text = String::from_utf8_lossy(&buf[..n]).into_owned();
                let path = text.split_whitespace().nth(1).unwrap_or("/").to_string();
                let resp = f(&path);
                let _ = stream.write_all(&encode_response(&resp));
            }
        });
        Endpoint::new(Ipv4Addr::LOCALHOST, port)
    }

    #[test]
    fn get_fetches_body() {
        let ep = canned_server(|_| Response::html("<h1>hello</h1>"));
        let transport = TcpTransport::default();
        let fetched = Visit::new(&transport, ep, Scheme::Http).get("/").unwrap();
        assert_eq!(fetched.response.status, StatusCode::OK);
        assert_eq!(fetched.response.body_text(), "<h1>hello</h1>");
        assert_eq!(fetched.redirects, 0);
    }

    #[test]
    fn follows_redirects_to_final_body() {
        let ep = canned_server(|path| match path {
            "/" => Response::redirect("/step1"),
            "/step1" => Response::redirect("/step2"),
            "/step2" => Response::html(format!("done at {path}")),
            _ => Response::not_found(),
        });
        let transport = TcpTransport::default();
        let fetched = Visit::new(&transport, ep, Scheme::Http).get("/").unwrap();
        assert_eq!(fetched.response.body_text(), "done at /step2");
        assert_eq!(fetched.redirects, 2);
    }

    #[test]
    fn redirect_loops_are_bounded() {
        let ep = canned_server(|_| Response::redirect("/loop"));
        let transport = TcpTransport::default();
        let err = Visit::new(&transport, ep, Scheme::Http)
            .get("/")
            .unwrap_err();
        assert_eq!(err, Error::TooManyRedirects(MAX_REDIRECTS));
    }

    #[test]
    fn connect_refused_is_reported() {
        // Bind then drop to find a (very likely) closed port.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        drop(listener);
        let transport = TcpTransport::default();
        let ep = Endpoint::new(Ipv4Addr::LOCALHOST, port);
        let err = Visit::new(&transport, ep, Scheme::Http)
            .get("/")
            .unwrap_err();
        assert!(matches!(err, Error::Connect(_)));
    }

    const EP: Endpoint = Endpoint {
        ip: Ipv4Addr::new(1, 2, 3, 4),
        port: 8080,
    };

    fn resolved(scheme: Scheme, path: &str, location: &str) -> (Endpoint, Scheme, String) {
        resolve(EP, scheme, path, location).unwrap()
    }

    #[test]
    fn resolve_handles_each_location_form() {
        let at = |ip: [u8; 4], port| Endpoint::new(Ipv4Addr::from(ip), port);
        // Absolute: scheme, address, port and path all from the location.
        assert_eq!(
            resolved(Scheme::Http, "/a/b?q=1", "https://5.6.7.8:8443/login?x"),
            (at([5, 6, 7, 8], 8443), Scheme::Https, "/login?x".into())
        );
        // Scheme-relative: the scheme stays.
        assert_eq!(
            resolved(Scheme::Https, "/a/b", "//5.6.7.8/x"),
            (at([5, 6, 7, 8], 443), Scheme::Https, "/x".into())
        );
        // Absolute path: the endpoint and scheme stay.
        assert_eq!(
            resolved(Scheme::Http, "/a/b?q=1", "/root"),
            (EP, Scheme::Http, "/root".into())
        );
        // Relative: replaces what follows the last `/`, query ignored.
        assert_eq!(
            resolved(Scheme::Http, "/a/b?q=1/z", "c.html").2,
            "/a/c.html"
        );
        assert_eq!(resolved(Scheme::Http, "/", "c.html").2, "/c.html");
    }

    #[test]
    fn resolve_fills_in_default_ports_and_path() {
        assert_eq!(
            resolved(Scheme::Https, "/", "http://5.6.7.8"),
            (
                Endpoint::new(Ipv4Addr::new(5, 6, 7, 8), 80),
                Scheme::Http,
                "/".into()
            )
        );
        assert_eq!(resolved(Scheme::Http, "/", "https://5.6.7.8/x").0.port, 443);
    }

    #[test]
    fn resolve_rejects_bad_authorities() {
        let fails = |location| resolve(EP, Scheme::Http, "/", location).unwrap_err();
        assert_eq!(fails("http://"), Error::InvalidUrl("empty authority"));
        assert_eq!(fails("http:///x"), Error::InvalidUrl("empty authority"));
        assert_eq!(fails("http://:80/"), Error::InvalidUrl("empty host"));
        assert_eq!(
            fails("http://1.2.3.4:70000/"),
            Error::InvalidUrl("bad port")
        );
        assert_eq!(fails("//h:/"), Error::InvalidUrl("bad port"));
        assert_eq!(
            fails("http://ex ample/"),
            Error::InvalidUrl("invalid host characters")
        );
    }

    #[test]
    fn resolve_refuses_host_names() {
        for location in [
            "https://example-cdn.invalid/",
            "//localhost:8080/",
            "http://example.org",
        ] {
            let err = resolve(EP, Scheme::Http, "/", location).unwrap_err();
            assert_eq!(err, Error::Connect("DNS resolution not supported".into()));
        }
    }
}

#[cfg(test)]
mod error_path_tests {
    use super::*;
    use crate::memory::HandlerTransport;
    use crate::response::Response;
    use crate::transport::TcpTransport;
    use std::io::{Read, Write};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn body_cap_is_enforced_end_to_end() {
        let ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 9), 80);
        let max_body = Limits::default().max_body;
        let big = Response::html("x".repeat(max_body + 1));
        let handler = Arc::new(move |_: &Request, _| big.clone());
        let transport = HandlerTransport::new().with(ep, handler);
        let err = Visit::new(&transport, ep, Scheme::Http)
            .get("/")
            .unwrap_err();
        assert_eq!(
            err,
            Error::TooLarge {
                what: "body",
                limit: max_body
            }
        );
    }

    #[test]
    fn request_timeout_fires_on_a_stalled_server() {
        // A real TCP server that accepts but never answers: the
        // listener's backlog completes the handshake, and nobody reads.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let ep = Endpoint::new(Ipv4Addr::LOCALHOST, listener.local_addr().unwrap().port());
        let transport = TcpTransport {
            request_timeout: Duration::from_millis(200),
            ..TcpTransport::default()
        };
        let err = Visit::new(&transport, ep, Scheme::Http)
            .get("/")
            .unwrap_err();
        assert_eq!(err, Error::Timeout);
    }

    #[test]
    fn request_timeout_bounds_a_trickling_server() {
        // Every byte arrives well within the timeout, but the whole
        // response would take about 2.9 s: one deadline for the
        // exchange, not one per read, ends it after 300 ms.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let ep = Endpoint::new(Ipv4Addr::LOCALHOST, listener.local_addr().unwrap().port());
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let _ = stream.read(&mut [0u8; 4096]);
            let response = b"HTTP/1.1 200 OK\r\nContent-Length: 20\r\n\r\n01234567890123456789";
            for byte in response.chunks(1) {
                std::thread::sleep(Duration::from_millis(50));
                if stream.write_all(byte).is_err() {
                    break;
                }
            }
        });
        let transport = TcpTransport {
            request_timeout: Duration::from_millis(300),
            ..TcpTransport::default()
        };
        let start = Instant::now();
        let err = Visit::new(&transport, ep, Scheme::Http)
            .get("/")
            .unwrap_err();
        let elapsed = start.elapsed();
        assert_eq!(err, Error::Timeout);
        assert!(elapsed < Duration::from_secs(2), "{elapsed:?}");
        // The client has closed its end, so the server's next writes fail.
        server.join().unwrap();
    }

    /// A transport whose endpoints answer with the request line and
    /// the header `name`.
    fn echo(name: &'static str, eps: &[Endpoint]) -> HandlerTransport {
        let handler = Arc::new(move |req: &Request, _| {
            let value = req.headers.get(name).unwrap_or("none");
            Response::text(format!("{} {} {value}", req.method, req.target))
        });
        eps.iter().fold(HandlerTransport::new(), |t, &ep| {
            t.with(ep, handler.clone())
        })
    }

    #[test]
    fn an_empty_path_gets_the_root() {
        let ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 6), 80);
        let transport = echo("host", &[ep]);
        let fetched = Visit::new(&transport, ep, Scheme::Http).get("").unwrap();
        assert_eq!(fetched.response.body_text(), "GET / 10.0.0.6");
    }

    #[test]
    fn host_header_omits_default_port() {
        let ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 9), 80);
        let alt = Endpoint::new(ep.ip, 8080);
        let transport = echo("host", &[ep, alt]);
        // The endpoint's address, with a port only when it is not the
        // scheme's default.
        let visit = Visit::new(&transport, ep, Scheme::Http);
        let resp = visit.execute(Request::get("/")).unwrap();
        assert_eq!(resp.body_text(), "GET / 10.0.0.9");
        let visit = Visit::new(&transport, alt, Scheme::Http);
        let resp = visit.execute(Request::get("/")).unwrap();
        assert_eq!(resp.body_text(), "GET / 10.0.0.9:8080");
    }

    #[test]
    fn caller_host_header_is_preserved() {
        let ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 8), 80);
        let transport = echo("host", &[ep]);
        let visit = Visit::new(&transport, ep, Scheme::Http);
        // Default: the endpoint's address.
        let resp = visit.execute(Request::get("/")).unwrap();
        assert_eq!(resp.body_text(), "GET / 10.0.0.8");
        // Caller override survives (virtual-host addressing).
        let req = Request::get("/").with_header("Host", "named.example");
        let resp = visit.execute(req).unwrap();
        assert_eq!(resp.body_text(), "GET / named.example");
        // A visit to a named virtual host addresses what it builds to
        // that name.
        let fetched = visit.named("vhost.example").get("/").unwrap();
        assert_eq!(fetched.response.body_text(), "GET / vhost.example");
    }

    #[test]
    fn caller_connection_header_is_preserved() {
        let ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 7), 80);
        let transport = echo("connection", &[ep]);
        let visit = Visit::new(&transport, ep, Scheme::Http);
        // Default: the visit requests close.
        let resp = visit.execute(Request::get("/")).unwrap();
        assert_eq!(resp.body_text(), "GET / close");
        // A caller-provided value must not be clobbered.
        let req = Request::get("/").with_header("Connection", "keep-alive, close");
        let resp = visit.execute(req).unwrap();
        assert_eq!(resp.body_text(), "GET / keep-alive, close");
    }
}
