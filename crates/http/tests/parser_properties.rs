//! Property tests for the HTTP/1.1 decoder, driven by the seeded case
//! generator in `nokeys_http::cases`: encode/parse round trips,
//! split-point invariance under any feed schedule (however the wire
//! bytes are cut into reads, the same message comes out), pipelining,
//! survival of mangled chunk framing, and linear cost on trickled input. A failure prints
//! `seed=<n>`; rerun with `NOKEYS_CASE_SEED=<n>` to replay that case
//! alone.

use nokeys_http::cases::{check, Gen, PRINTABLE};
use nokeys_http::encode::{encode_request, encode_response};
use nokeys_http::parse::{parse_request, parse_response, Decoder, Limits, Message, Parsed};
use nokeys_http::{Headers, Method, Request, Response, StatusCode};
use std::fmt::Debug;
use std::time::{Duration, Instant};

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

/// `body` in chunked framing: chunks of 1–63 bytes, some with an
/// extension, and sometimes a trailer section after the last one.
fn chunked(g: &mut Gen, body: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    for chunk in body.chunks(g.index(1..64)) {
        let ext = if g.bool() { ";ext=\"v\"" } else { "" };
        wire.extend_from_slice(format!("{:x}{ext}\r\n", chunk.len()).as_bytes());
        wire.extend_from_slice(chunk);
        wire.extend_from_slice(b"\r\n");
    }
    wire.extend_from_slice(b"0\r\n");
    for _ in 0..g.index(0..3) {
        wire.extend_from_slice(format!("X-Sum: {}\r\n", g.range(0..1000)).as_bytes());
    }
    wire.extend_from_slice(b"\r\n");
    wire
}

/// A valid message on the wire — a request or a response, framed by
/// Content-Length or chunked — and the body it carries.
fn arb_wire(g: &mut Gen, request: bool) -> (Vec<u8>, Vec<u8>) {
    let body = g.bytes(0..300);
    let wire = if g.bool() {
        let start_line = if request {
            "POST /p HTTP/1.1"
        } else {
            "HTTP/1.1 200 OK"
        };
        let head = format!("{start_line}\r\nTransfer-Encoding: chunked\r\n\r\n");
        [head.into_bytes(), chunked(g, &body)].concat()
    } else if request {
        let mut req = Request::post(format!("/{}", g.string(PATH, 0..41)), body.clone());
        req.headers = arb_headers(g);
        encode_request(&req)
    } else {
        let mut resp = Response::html(body.clone());
        resp.headers = arb_headers(g);
        encode_response(&resp)
    };
    (wire, body)
}

/// Cut `wire` into consecutive non-empty pieces. The largest piece
/// size is drawn first, so one schedule in five is a 1-byte trickle
/// and one in five is a cut or two anywhere.
fn partition<'a>(g: &mut Gen, mut wire: &'a [u8]) -> Vec<&'a [u8]> {
    let max_piece = *g.pick(&[1, 2, 7, 64, wire.len().max(1)]);
    let mut pieces = Vec::new();
    while !wire.is_empty() {
        let (piece, rest) = wire.split_at(g.index(1..max_piece + 1).min(wire.len()));
        pieces.push(piece);
        wire = rest;
    }
    pieces
}

/// Feed valid messages one read (`pieces[i]`) at a time, `eof` arriving
/// with the last, and collect each message with the index of the read
/// that completed it. Every byte must be used.
fn decode<M: Message>(mut decoder: Decoder<M>, pieces: &[&[u8]], eof: bool) -> Vec<(usize, M)> {
    let mut out = Vec::new();
    for (i, piece) in pieces.iter().enumerate() {
        decoder.feed(piece);
        let eof = eof && i + 1 == pieces.len();
        while !decoder.is_empty() {
            match decoder.next(eof).expect("valid messages") {
                Some(msg) => out.push((i, msg)),
                None => break,
            }
        }
    }
    assert!(decoder.is_empty(), "nothing left over");
    out
}

/// Split-point invariance, for any feed schedule: however the wire
/// bytes are cut into reads — once anywhere, into arbitrary pieces, or
/// a 1-byte trickle — every proper prefix is `Ok(None)` (never an
/// error, never a premature message), and the last read completes the
/// same message as parsing the whole buffer in one shot. Covers
/// requests and responses under Content-Length, chunked (with
/// extensions and trailers) and read-to-close framing.
#[test]
fn split_point_invariance() {
    fn holds<M: Message + Debug + PartialEq>(
        g: &mut Gen,
        new: fn(Limits) -> Decoder<M>,
        (wire, body): (Vec<u8>, Vec<u8>),
        eof: bool,
        one_shot: Parsed<M>,
    ) {
        let (mut whole, used) = complete(one_shot);
        assert_eq!(used, wire.len());
        assert_eq!(*whole.body_mut(), body);
        let pieces = partition(g, &wire);
        let fed = decode(new(Limits::default()), &pieces, eof);
        assert_eq!(
            fed,
            [(pieces.len() - 1, whole)],
            "complete at the last read only"
        );
    }
    check(512, |g| {
        let limits = Limits::default();
        let kind = g.index(0..3);
        let message = if kind == 2 {
            let body = g.bytes(0..300);
            let head = b"HTTP/1.0 200 OK\r\nServer: old\r\n\r\n".to_vec();
            ([head, body.clone()].concat(), body)
        } else {
            arb_wire(g, kind == 0)
        };
        if kind == 0 {
            let one_shot = parse_request(&message.0, &limits).expect("parses");
            holds(g, Decoder::request, message, false, one_shot);
        } else {
            let eof = kind == 2;
            let one_shot = parse_response(&message.0, eof, false, &limits).expect("parses");
            holds(g, |l| Decoder::response(false, l), message, eof, one_shot);
        }
    });
}

/// Pipelining: two messages back to back, cut anywhere (inside either,
/// or across their seam), come out in order and leave nothing behind.
#[test]
fn pipelined_messages_come_out_in_order() {
    fn holds<M: Message + Debug + PartialEq>(
        g: &mut Gen,
        new: fn(Limits) -> Decoder<M>,
        wires: [Vec<u8>; 2],
    ) {
        let alone = |wire: &Vec<u8>| decode(new(Limits::default()), &[wire], false).remove(0).1;
        let want: Vec<M> = wires.iter().map(alone).collect();
        let both = wires.concat();
        let got = decode(new(Limits::default()), &partition(g, &both), false);
        assert_eq!(
            got.into_iter().map(|(_, msg)| msg).collect::<Vec<M>>(),
            want
        );
    }
    check(256, |g| {
        let request = g.bool();
        let wires = [arb_wire(g, request).0, arb_wire(g, request).0];
        if request {
            holds(g, Decoder::request, wires);
        } else {
            holds(g, |l| Decoder::response(false, l), wires);
        }
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

/// A chunked response whose framing is mangled: size lines replaced by
/// 1–17 hex digits (random, or the sizes next to where an offset or
/// the body limit overflows), CRLFs dropped or doubled.
fn mangled_chunked(g: &mut Gen) -> Vec<u8> {
    fn crlf(g: &mut Gen, wire: &mut Vec<u8>) {
        match g.index(0..8) {
            0 => {}
            1 => wire.extend_from_slice(b"\r\n\r\n"),
            _ => wire.extend_from_slice(b"\r\n"),
        }
    }
    let mut wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
    for _ in 0..g.index(0..6) {
        let data = g.bytes(0..40);
        let size = match g.index(0..4) {
            0 => g.string("0123456789abcdefABCDEF", 1..18),
            1 => g
                .pick(&["ffffffffffffffff", "7fffffffffffffff", "400001"])
                .to_string(),
            _ => format!("{:x}", data.len()),
        };
        wire.extend_from_slice(size.as_bytes());
        crlf(g, &mut wire);
        wire.extend_from_slice(&data);
        crlf(g, &mut wire);
    }
    wire.push(b'0');
    crlf(g, &mut wire);
    crlf(g, &mut wire);
    wire
}

/// The parser never panics on arbitrary bytes, on a valid message with
/// a few bytes flipped, or on mangled chunk framing — in one shot or
/// trickled.
#[test]
fn parser_never_panics() {
    check(1024, |g| {
        let mut bytes = match g.index(0..4) {
            0 => g.bytes(0..600),
            1 => encode_response(&Response::html(g.bytes(0..64))),
            _ => mangled_chunked(g),
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
        let mut decoder = Decoder::response(false, limits);
        for piece in partition(g, &bytes) {
            decoder.feed(piece);
            if decoder.next(false).is_err() {
                assert!(decoder.next(false).is_err(), "an error is final");
                break;
            }
        }
    });
}

/// Linear cost: a 2 MiB body in 16-byte chunks, fed 4 KiB at a time,
/// costs about what it costs in one piece. The bound is loose (20×) so
/// a noisy host cannot fail it; re-parsing from the start on every
/// read, as the parser once did, is ~330× here.
#[test]
fn trickled_chunked_body_costs_linear_time() {
    let mut wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
    for _ in 0..(2 << 20) / 16 {
        wire.extend_from_slice(b"10\r\n0123456789abcdef\r\n");
    }
    wire.extend_from_slice(b"0\r\n\r\n");
    // Best of three, to shed scheduling noise.
    let best = |piece: usize| -> Duration {
        let timed = |_| {
            let start = Instant::now();
            let pieces: Vec<&[u8]> = wire.chunks(piece).collect();
            let got = decode(Decoder::response(false, Limits::default()), &pieces, false);
            assert_eq!(got[0].1.body.len(), 2 << 20);
            start.elapsed()
        };
        (0..3).map(timed).min().expect("three runs")
    };
    let (one_shot, trickled) = (best(wire.len()), best(4096));
    assert!(
        trickled <= one_shot * 20,
        "4 KiB feeds took {trickled:?}, one shot {one_shot:?}"
    );
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
