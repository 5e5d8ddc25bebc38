//! Connection-pool integration tests over real loopback TCP: reuse
//! accounting, close-signal handling, and the stale keep-alive retry.

use nokeys_http::server::serve_tcp;
use nokeys_http::transport::TcpTransport;
use nokeys_http::{Client, PooledTransport, Request, Response, Url};
use std::io::{Read, Write};
use std::net::Ipv4Addr;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

fn pooled_client() -> (
    Client<PooledTransport<TcpTransport>>,
    PooledTransport<TcpTransport>,
) {
    let transport = PooledTransport::new(TcpTransport::default());
    // Clones share the pool, so the handle can watch the client's stats.
    let watch = transport.clone();
    (Client::new(transport), watch)
}

fn url(port: u16, path: &str) -> Url {
    Url::parse(&format!("http://127.0.0.1:{port}{path}")).unwrap()
}

#[test]
fn sequential_requests_reuse_one_connection() {
    let handler = Arc::new(|req: &Request, _| Response::text(req.path().to_string()));
    let server = serve_tcp(Ipv4Addr::LOCALHOST, 0, handler).unwrap();
    let (client, pool) = pooled_client();

    let first = client.get(&url(server.port, "/a")).unwrap();
    assert_eq!(first.response.body_text(), "/a");
    assert_eq!(pool.idle_count(), 1, "clean exchange pools the connection");

    let second = client.get(&url(server.port, "/b")).unwrap();
    assert_eq!(second.response.body_text(), "/b");
    assert_eq!(pool.stats().misses(), 1, "only the first request dialed");
    assert_eq!(
        pool.stats().hits(),
        1,
        "the second rode the pooled connection"
    );
    assert_eq!(pool.stats().stale_retries(), 0);

    server.shutdown();
}

#[test]
fn connection_close_responses_are_not_pooled() {
    let handler =
        Arc::new(|_: &Request, _| Response::text("bye").with_header("Connection", "close"));
    let server = serve_tcp(Ipv4Addr::LOCALHOST, 0, handler).unwrap();
    let (client, pool) = pooled_client();

    for _ in 0..2 {
        let fetched = client.get(&url(server.port, "/")).unwrap();
        assert_eq!(fetched.response.body_text(), "bye");
        assert_eq!(pool.idle_count(), 0, "close responses must not pool");
    }
    assert_eq!(pool.stats().hits(), 0);
    assert_eq!(pool.stats().misses(), 2);
    assert_eq!(pool.stats().discarded(), 2);

    server.shutdown();
}

/// A server whose keep-alive promise is a lie: it answers one request
/// with a plain HTTP/1.1 response (implicitly keep-alive) and then
/// closes the connection — the classic stale keep-alive race, as seen
/// from a client that pooled the connection.
///
/// The accept thread is detached on purpose: it blocks in `accept`
/// until the test process exits.
fn lying_keepalive_server() -> u16 {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let port = listener.local_addr().unwrap().port();
    std::thread::spawn(move || {
        while let Ok((mut stream, _)) = listener.accept() {
            let mut buf = [0u8; 4096];
            if stream.read(&mut buf).unwrap_or(0) == 0 {
                continue;
            }
            let _ = stream.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok");
            // Dropping the stream closes the "kept-alive" connection.
        }
    });
    port
}

#[test]
fn stale_pooled_connection_recovers_with_one_retry() {
    let port = lying_keepalive_server();
    let (client, pool) = pooled_client();

    let first = client.get(&url(port, "/")).unwrap();
    assert_eq!(first.response.body_text(), "ok");
    assert_eq!(pool.idle_count(), 1, "the lie was believed");

    // Let the server's FIN land so the pooled connection is a corpse.
    std::thread::sleep(Duration::from_millis(50));

    let second = client.get(&url(port, "/")).unwrap();
    assert_eq!(second.response.body_text(), "ok");
    assert_eq!(pool.stats().hits(), 1, "the corpse was checked out");
    assert_eq!(
        pool.stats().stale_retries(),
        1,
        "exactly one fresh-connection retry"
    );
    assert_eq!(
        pool.stats().misses(),
        1,
        "the retry bypassed normal connect"
    );
}

/// HTTP/1.0 responses without a keep-alive opt-in must not be pooled,
/// even when the server (wrongly) leaves the connection open.
#[test]
fn http10_responses_are_not_pooled() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let port = listener.local_addr().unwrap().port();
    // Detached: both threads end when the client side closes or the
    // test process exits.
    std::thread::spawn(move || {
        while let Ok((mut stream, _)) = listener.accept() {
            std::thread::spawn(move || {
                let mut buf = [0u8; 4096];
                while stream.read(&mut buf).unwrap_or(0) > 0 {
                    let _ = stream.write_all(b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok");
                    // Keep the socket open: a 1.0 server that forgets
                    // to close. The client must still not reuse it.
                }
            });
        }
    });
    let (client, pool) = pooled_client();
    for _ in 0..2 {
        let fetched = client.get(&url(port, "/")).unwrap();
        assert_eq!(fetched.response.body_text(), "ok");
    }
    assert_eq!(pool.idle_count(), 0);
    assert_eq!(pool.stats().hits(), 0);
    assert_eq!(pool.stats().misses(), 2);
}

/// Pooling is a transport-level knob: the response a caller sees must
/// be semantically identical with and without it.
#[test]
fn pooled_and_unpooled_responses_agree() {
    let handler =
        Arc::new(|req: &Request, _| Response::json(format!(r#"{{"path":"{}"}}"#, req.path())));
    let server = serve_tcp(Ipv4Addr::LOCALHOST, 0, handler).unwrap();
    let plain = Client::new(TcpTransport::default());
    let (pooled, _) = pooled_client();
    for path in ["/x", "/y", "/x"] {
        let a = plain.get(&url(server.port, path)).unwrap();
        let b = pooled.get(&url(server.port, path)).unwrap();
        assert_eq!(a.response.status, b.response.status);
        assert_eq!(a.response.body, b.response.body);
        assert_eq!(a.redirects, b.redirects);
    }
    server.shutdown();
}
