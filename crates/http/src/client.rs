//! HTTP client generic over a [`Transport`].
//!
//! Mirrors the paper's scanning constraints: bounded redirects ("we
//! followed redirects until we received a response body"), bounded body
//! sizes, per-request timeouts, and a crawler-style `User-Agent`.

use crate::encode::encode_request;
use crate::error::{Error, Result};
use crate::parse::{Decoder, Limits};
use crate::request::Request;
use crate::response::Response;
use crate::transport::{Attempt, Connection, Endpoint, Scheme, Transport};
use crate::url::{Host, Url};
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

/// Client configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Maximum number of redirects to follow before giving up.
    pub max_redirects: usize,
    /// Overall deadline per individual exchange (connect + request +
    /// response).
    pub request_timeout: Duration,
    /// Parser limits.
    pub limits: Limits,
    /// `User-Agent` header value.
    pub user_agent: String,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            max_redirects: 5,
            request_timeout: Duration::from_secs(10),
            limits: Limits::default(),
            user_agent: "nokeys-scanner/0.1 (research; non-intrusive)".to_string(),
        }
    }
}

/// The response together with the URL it was finally served from (after
/// redirects) and the redirect-chain length.
#[derive(Debug, Clone)]
pub struct Fetched {
    pub response: Response,
    pub final_url: Url,
    pub redirects: usize,
}

/// An HTTP client bound to a transport.
#[derive(Debug, Clone)]
pub struct Client<T> {
    transport: T,
    config: ClientConfig,
    /// Name-based virtual host every request is addressed to, if any.
    host: Option<String>,
}

impl<T: Transport> Client<T> {
    /// Create a client with default configuration.
    pub fn new(transport: T) -> Self {
        Self::with_config(transport, ClientConfig::default())
    }

    /// Create a client with explicit configuration.
    pub fn with_config(transport: T, config: ClientConfig) -> Self {
        Client {
            transport,
            config,
            host: None,
        }
    }

    /// Access the underlying transport.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Access the configuration.
    pub fn config(&self) -> &ClientConfig {
        &self.config
    }

    /// Rebuild this client around a different transport, keeping the
    /// configuration — e.g. to wrap the current transport with retry or
    /// fault-injection behaviour.
    pub fn with_transport<U: Transport>(&self, transport: U) -> Client<U> {
        Client {
            transport,
            config: self.config.clone(),
            host: self.host.clone(),
        }
    }

    /// A client over the same transport and configuration whose
    /// requests all name the virtual host `name`: `Host: name` goes
    /// wherever [`execute`](Self::execute) would have written the
    /// URL's own host. This is how a site behind a shared IP is
    /// scanned by name (the paper's §6.2 "under counting" discussion).
    pub fn for_host(&self, name: &str) -> Client<&T> {
        let mut client = self.with_transport(&self.transport);
        client.host = Some(name.to_string());
        client
    }

    /// Issue a single request to `url` without following redirects:
    /// dial, one exchange, drop the connection.
    ///
    /// A caller-provided `Host` header is preserved; absent one, the
    /// header names this client's virtual host
    /// ([`for_host`](Self::for_host)) or else the URL's host. The same
    /// holds for a caller-provided `Connection` header; absent one, the
    /// client asks for `Connection: close`, since it never sends a
    /// second request down a connection.
    pub fn execute(&self, url: &Url, mut req: Request) -> Result<Response> {
        let ep = endpoint_of(url)?;
        if !req.headers.contains("host") {
            match &self.host {
                Some(name) => req.headers.set("Host", name),
                None => req.headers.set("Host", url.host_header()),
            }
        }
        if !req.headers.contains("user-agent") {
            req.headers.set("User-Agent", &self.config.user_agent);
        }
        if !req.headers.contains("connection") {
            req.headers.set("Connection", "close");
        }
        let head_method = req.method == crate::Method::Head;
        let wire = encode_request(&req);

        let deadline = Instant::now() + self.config.request_timeout;
        let attempt = Attempt {
            target: &req.target,
            n: 0,
        };
        let mut conn = self.transport.connect(ep, url.scheme, attempt)?;
        exchange_once(&mut conn, &wire, head_method, &self.config.limits, deadline)
    }

    /// `GET` with redirect following. Returns the first response that is
    /// not a followable redirect.
    pub fn get(&self, url: &Url) -> Result<Fetched> {
        let mut current = url.clone();
        for hop in 0..=self.config.max_redirects {
            let resp = self.execute(&current, Request::get(current.path.clone()))?;
            if resp.is_followable_redirect() {
                let location = resp.location().expect("checked by is_followable_redirect");
                current = current.join(location)?;
                continue;
            }
            return Ok(Fetched {
                response: resp,
                final_url: current,
                redirects: hop,
            });
        }
        Err(Error::TooManyRedirects(self.config.max_redirects))
    }

    /// `GET` a path on a raw endpoint (scanner convenience).
    pub fn get_path(&self, ep: Endpoint, scheme: Scheme, path: &str) -> Result<Fetched> {
        let url = Url::for_ip(scheme, ep.ip, ep.port, path);
        self.get(&url)
    }
}

fn endpoint_of(url: &Url) -> Result<Endpoint> {
    match &url.host {
        Host::Ip(ip) => Ok(Endpoint::new(*ip, url.port)),
        // The scanner operates on IPs; DNS would be an external dependency.
        // Loopback names are mapped for the live examples' convenience.
        Host::Name(n) if n == "localhost" => Ok(Endpoint::new(Ipv4Addr::LOCALHOST, url.port)),
        Host::Name(_) => Err(Error::Connect("DNS resolution not supported".into())),
    }
}

/// Write `wire` and read one response: read, feed the [`Decoder`], ask
/// it for the message.
///
/// Every blocking operation is bounded by what is left until
/// `deadline`, so a stalled or trickling peer costs at most the
/// configured request timeout.
fn exchange_once<C: Connection>(
    conn: &mut C,
    wire: &[u8],
    head_method: bool,
    limits: &Limits,
    deadline: Instant,
) -> Result<Response> {
    let arm = |conn: &mut C| -> Result<()> {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(Error::Timeout);
        }
        conn.set_io_timeout(left).map_err(Error::from)
    };
    arm(conn)?;
    // Not all transports propagate flush, but it is correct to ask.
    conn.write_all(wire)?;
    conn.flush()?;
    let mut decoder = Decoder::response(head_method, *limits);
    let mut chunk = [0u8; 4096];
    let mut eof = false;
    loop {
        if let Some(resp) = decoder.next(eof)? {
            return Ok(resp);
        }
        arm(conn)?;
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
    use std::io::{Read, Write};

    /// Spawn a TCP server that answers each connection with a canned
    /// response produced by `f(path)`. The accept thread is detached on
    /// purpose: it blocks in `accept` until the test process exits.
    fn canned_server<F>(f: F) -> u16
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
        port
    }

    #[test]
    fn get_fetches_body() {
        let port = canned_server(|_| Response::html("<h1>hello</h1>"));
        let client = Client::new(crate::transport::TcpTransport::default());
        let url = Url::parse(&format!("http://127.0.0.1:{port}/")).unwrap();
        let fetched = client.get(&url).unwrap();
        assert_eq!(fetched.response.status, StatusCode::OK);
        assert_eq!(fetched.response.body_text(), "<h1>hello</h1>");
        assert_eq!(fetched.redirects, 0);
    }

    #[test]
    fn follows_redirects_to_final_body() {
        let port = canned_server(|path| match path {
            "/" => Response::redirect("/step1"),
            "/step1" => Response::redirect("/step2"),
            "/step2" => Response::html("done"),
            _ => Response::not_found(),
        });
        let client = Client::new(crate::transport::TcpTransport::default());
        let url = Url::parse(&format!("http://127.0.0.1:{port}/")).unwrap();
        let fetched = client.get(&url).unwrap();
        assert_eq!(fetched.response.body_text(), "done");
        assert_eq!(fetched.redirects, 2);
        assert_eq!(fetched.final_url.path, "/step2");
    }

    #[test]
    fn redirect_loops_are_bounded() {
        let port = canned_server(|_| Response::redirect("/loop"));
        let config = ClientConfig {
            max_redirects: 3,
            ..Default::default()
        };
        let client = Client::with_config(crate::transport::TcpTransport::default(), config);
        let url = Url::parse(&format!("http://127.0.0.1:{port}/")).unwrap();
        assert_eq!(client.get(&url).unwrap_err(), Error::TooManyRedirects(3));
    }

    #[test]
    fn connect_refused_is_reported() {
        // Bind then drop to find a (very likely) closed port.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        drop(listener);
        let client = Client::new(crate::transport::TcpTransport::default());
        let url = Url::parse(&format!("http://127.0.0.1:{port}/")).unwrap();
        assert!(matches!(client.get(&url).unwrap_err(), Error::Connect(_)));
    }

    #[test]
    fn dns_names_are_rejected() {
        let client = Client::new(crate::transport::TcpTransport::default());
        let url = Url::parse("http://example.invalid/").unwrap();
        assert!(matches!(client.get(&url).unwrap_err(), Error::Connect(_)));
    }
}

#[cfg(test)]
mod error_path_tests {
    use super::*;
    use crate::memory::HandlerTransport;
    use crate::response::Response;
    use std::sync::Arc;

    #[test]
    fn body_cap_is_enforced_end_to_end() {
        let ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 9), 80);
        let big = Response::html("x".repeat(64 * 1024));
        let handler = Arc::new(move |_: &Request, _| big.clone());
        let transport = HandlerTransport::new().with(ep, handler);
        let limits = crate::parse::Limits {
            max_body: 1024,
            ..Default::default()
        };
        let config = ClientConfig {
            limits,
            ..Default::default()
        };
        let client = Client::with_config(transport, config);
        let err = client
            .get(&Url::for_ip(Scheme::Http, ep.ip, ep.port, "/"))
            .unwrap_err();
        assert!(
            matches!(err, Error::TooLarge { what: "body", .. }),
            "{err:?}"
        );
    }

    #[test]
    fn request_timeout_fires_on_a_stalled_server() {
        // A real TCP server that accepts but never answers: the
        // listener's backlog completes the handshake, and nobody reads.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let config = ClientConfig {
            request_timeout: Duration::from_millis(200),
            ..Default::default()
        };
        let client = Client::with_config(crate::transport::TcpTransport::default(), config);
        let url = Url::parse(&format!("http://127.0.0.1:{port}/")).unwrap();
        let err = client.get(&url).unwrap_err();
        assert_eq!(err, Error::Timeout);
    }

    #[test]
    fn caller_host_header_is_preserved() {
        let ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 8), 80);
        let handler = Arc::new(|req: &Request, _| {
            Response::text(req.headers.get("host").unwrap_or("none").to_string())
        });
        let transport = HandlerTransport::new().with(ep, handler);
        let client = Client::new(transport);
        let url = Url::for_ip(Scheme::Http, ep.ip, ep.port, "/");
        // Default: the URL's host.
        let resp = client.execute(&url, Request::get("/")).unwrap();
        assert_eq!(resp.body_text(), "10.0.0.8");
        // Caller override survives (virtual-host addressing).
        let req = Request::get("/").with_header("Host", "named.example");
        let resp = client.execute(&url, req).unwrap();
        assert_eq!(resp.body_text(), "named.example");
        // A client for a named virtual host addresses what it builds
        // to that name.
        let named = client.for_host("vhost.example");
        let fetched = named.get(&url).unwrap();
        assert_eq!(fetched.response.body_text(), "vhost.example");
    }

    #[test]
    fn caller_connection_header_is_preserved() {
        let ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 7), 80);
        let handler = Arc::new(|req: &Request, _| {
            Response::text(req.headers.get("connection").unwrap_or("none").to_string())
        });
        let transport = HandlerTransport::new().with(ep, handler);
        let client = Client::new(transport);
        let url = Url::for_ip(Scheme::Http, ep.ip, ep.port, "/");
        // Default: the client requests close.
        let resp = client.execute(&url, Request::get("/")).unwrap();
        assert_eq!(resp.body_text(), "close");
        // A caller-provided value must not be clobbered.
        let req = Request::get("/").with_header("Connection", "keep-alive, close");
        let resp = client.execute(&url, req).unwrap();
        assert_eq!(resp.body_text(), "keep-alive, close");
    }
}
