//! Property tests for the HTTP/1.1 parser, driven by the seeded case
//! generator in `nokeys_http::cases`: encode/parse round trips,
//! split-point invariance of the incremental parser and chunked-body
//! reassembly. A failure prints `seed=<n>`; rerun with
//! `NOKEYS_CASE_SEED=<n>` to replay that case alone.

use nokeys_http::cases::{check, Gen, PRINTABLE};
use nokeys_http::encode::{encode_request, encode_response};
use nokeys_http::parse::{
    parse_request, parse_response, parse_response_incremental, HeadScanner, Limits, Parsed,
};
use nokeys_http::{Headers, Method, Request, Response, StatusCode};

const NAME_HEAD: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
const NAME_TAIL: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-";
const PATH: &str = "abcdefghijklmnopqrstuvwxyz0123456789/_.-";

fn arb_headers(g: &mut Gen) -> Headers {
    let mut h = Headers::new();
    for _ in 0..g.index(0..8) {
        let name = g.string(NAME_HEAD, 1..2) + &g.string(NAME_TAIL, 0..21);
        // Avoid framing headers; encode_* adds Content-Length itself.
        if ["content-length", "transfer-encoding", "host"]
            .iter()
            .any(|f| name.eq_ignore_ascii_case(f))
        {
            continue;
        }
        // Header values: printable ASCII, no CR/LF, no outer whitespace.
        h.append(name, g.string(PRINTABLE, 0..41).trim());
    }
    h
}

fn complete<T>(parsed: Parsed<T>) -> (T, usize) {
    match parsed {
        Parsed::Complete(msg, used) => (msg, used),
        Parsed::Partial => panic!("partial on full input"),
    }
}

#[test]
fn response_round_trip() {
    check(256, |g| {
        let code = g.range(200..600) as u16;
        let body = g.bytes(0..512);
        let resp = Response {
            status: StatusCode(code),
            version: Default::default(),
            headers: arb_headers(g),
            body: body.clone(),
        };
        let wire = encode_response(&resp);
        let (back, used) =
            complete(parse_response(&wire, false, false, &Limits::default()).expect("parses"));
        assert_eq!(used, wire.len());
        assert_eq!(back.status.as_u16(), code);
        // The encoder appends its own framing header after the caller's.
        assert!(back
            .headers
            .iter()
            .take(resp.headers.len())
            .eq(resp.headers.iter()));
        if code != 204 && code != 304 {
            assert_eq!(back.body, body);
        }
    });
}

/// The case a property-testing crate once shrank a failure to: a
/// bodyless status constructed with a body must still round-trip.
#[test]
fn bodyless_status_with_a_body_round_trips() {
    let resp = Response::new(StatusCode::NO_CONTENT).with_body(vec![0u8]);
    let wire = encode_response(&resp);
    let (back, used) =
        complete(parse_response(&wire, false, false, &Limits::default()).expect("parses"));
    assert_eq!(used, wire.len());
    assert!(back.body.is_empty());
}

/// Split-point invariance: cutting the wire bytes anywhere never
/// changes the outcome — every proper prefix is `Partial` (never an
/// error, never a premature message), and feeding prefix-then-whole
/// through one incremental scanner yields the same message as parsing
/// the whole buffer statelessly.
#[test]
fn split_point_invariance() {
    check(256, |g| {
        let chunked = g.bool();
        let body = g.bytes(0..300);
        let wire = if chunked {
            let mut wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
            let mut rest = body.as_slice();
            while !rest.is_empty() {
                let take = g.index(1..64).min(rest.len());
                wire.extend_from_slice(format!("{take:x}\r\n").as_bytes());
                wire.extend_from_slice(&rest[..take]);
                wire.extend_from_slice(b"\r\n");
                rest = &rest[take..];
            }
            wire.extend_from_slice(b"0\r\n\r\n");
            wire
        } else {
            let mut resp = Response::html(body.clone());
            resp.headers = arb_headers(g);
            encode_response(&resp)
        };
        let limits = Limits::default();
        let (whole, used) = complete(parse_response(&wire, false, false, &limits).expect("parses"));
        assert_eq!(used, wire.len());
        assert_eq!(whole.body, body);

        let cut = g.index(0..wire.len());
        let mut scanner = HeadScanner::new();
        assert_eq!(
            parse_response_incremental(&wire[..cut], false, false, &limits, &mut scanner)
                .expect("a prefix of a valid message is not an error"),
            Parsed::Partial,
            "cut at {cut} of {}",
            wire.len()
        );
        let (resumed, used) = complete(
            parse_response_incremental(&wire, false, false, &limits, &mut scanner)
                .expect("parses after the rest arrives"),
        );
        assert_eq!(used, wire.len());
        assert_eq!(resumed, whole);
    });
}

#[test]
fn request_round_trip() {
    check(256, |g| {
        let target = format!("/{}", g.string(PATH, 0..41));
        let body = g.bytes(0..512);
        let req = Request {
            method: Method::Post,
            target: target.clone(),
            version: Default::default(),
            headers: arb_headers(g),
            body: body.clone(),
        };
        let wire = encode_request(&req);
        let (back, used) = complete(parse_request(&wire, &Limits::default()).expect("parses"));
        assert_eq!(used, wire.len());
        assert_eq!(back.target, target);
        assert_eq!(back.body, body);
    });
}

/// The parser never panics on arbitrary bytes, nor on a valid message
/// with a few bytes flipped.
#[test]
fn parser_never_panics() {
    check(512, |g| {
        let mut bytes = if g.bool() {
            g.bytes(0..600)
        } else {
            encode_response(&Response::html(g.bytes(0..64)))
        };
        for _ in 0..g.index(0..4) {
            if !bytes.is_empty() {
                let at = g.index(0..bytes.len());
                bytes[at] = g.byte();
            }
        }
        let limits = Limits::default();
        let _ = parse_response(&bytes, false, false, &limits);
        let _ = parse_response(&bytes, true, true, &limits);
        let _ = parse_request(&bytes, &limits);
    });
}

/// URL parse/display round trip for IPv4 URLs.
#[test]
fn url_round_trip() {
    check(256, |g| {
        let text = format!(
            "http://{}.{}.{}.{}:{}/{}",
            g.range(1..224),
            g.byte(),
            g.byte(),
            g.byte(),
            g.range(1..65536),
            g.string(PATH, 0..31)
        );
        let url = nokeys_http::Url::parse(&text).expect("valid url");
        let back = nokeys_http::Url::parse(&url.to_string()).expect("reparses");
        assert_eq!(url, back);
    });
}
