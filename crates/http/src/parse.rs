//! Incremental HTTP/1.1 message decoder.
//!
//! A [`Decoder`] owns the bytes read off a connection and hands back
//! complete messages; callers never see a buffer offset. It supports
//! `Content-Length` bodies, `chunked` transfer encoding and
//! read-to-close responses, which covers everything encountered by the
//! scanning pipeline. However the bytes are split across reads, each is
//! examined once: the head is parsed when its blank line arrives, and
//! body decoding resumes where the previous read left it.
//!
//! ```text
//!                    blank line found, head parsed
//!   Head { scanned } ─────────────────────────────▶ Body { msg, at }
//!          ▲                                               │
//!          └───── body complete: `next` returns `msg` ─────┘
//!
//!   at:  Remaining(n)   Content-Length (n = 0: no body)
//!        ToEof          until the peer closes
//!        ChunkSize ─▶ ChunkData(n) ─▶ ChunkSize ─▶ … ─▶ Trailers
//! ```

use crate::error::{Error, Result, NOT_HTTP};
use crate::headers::Headers;
use crate::method::Method;
use crate::request::Request;
use crate::response::Response;
use crate::status::StatusCode;
use crate::version::Version;

/// Limits applied while parsing; generous defaults match the client's
/// "behave like a web crawler" posture.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum size of the head (start line + headers) in bytes. A
    /// chunk-size line and a chunked body's trailer section are each
    /// held to the same bound.
    pub max_head: usize,
    /// Maximum body size in bytes.
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head: 32 * 1024,
            max_body: 4 * 1024 * 1024,
        }
    }
}

/// Outcome of a one-shot parse over a (possibly incomplete) buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum Parsed<T> {
    /// A complete message plus the number of bytes it consumed.
    Complete(T, usize),
    /// More bytes are required before a verdict is possible.
    Partial,
}

/// Parse the header block (everything after the start line).
fn parse_header_lines(block: &str) -> Result<Headers> {
    let mut headers = Headers::new();
    for line in block.split("\r\n").filter(|l| !l.is_empty()) {
        let (name, value) = line
            .split_once(':')
            .ok_or(Error::Malformed("header line"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(Error::Malformed("header name"));
        }
        headers.append(name, value.trim());
    }
    Ok(headers)
}

/// How the body length of a message is determined.
#[derive(Debug, PartialEq, Eq)]
pub enum BodyFraming {
    None,
    Length(usize),
    Chunked,
    /// Response bodies without explicit framing run until connection close.
    ToEof,
}

fn response_framing(
    status: StatusCode,
    method_was_head: bool,
    headers: &Headers,
) -> Result<BodyFraming> {
    // Validate `Content-Length` before anything else, including on bodyless
    // and chunked messages: a malformed length must fail hard rather than
    // silently falling through to read-to-close framing.
    let length = headers.content_length()?;
    if method_was_head
        || status == StatusCode::NO_CONTENT
        || (100..200).contains(&status.as_u16())
        || status.as_u16() == 304
    {
        return Ok(BodyFraming::None);
    }
    if headers.is_chunked() {
        // RFC 9112 §6.3: Transfer-Encoding wins over Content-Length.
        return Ok(BodyFraming::Chunked);
    }
    Ok(match length {
        Some(n) => BodyFraming::Length(n),
        None => BodyFraming::ToEof,
    })
}

fn request_framing(headers: &Headers) -> Result<BodyFraming> {
    let length = headers.content_length()?;
    if headers.is_chunked() {
        // RFC 9112 §6.1: a request carrying both Transfer-Encoding and
        // Content-Length is the request-smuggling primitive — reject it.
        if length.is_some() {
            return Err(Error::Malformed("content-length with chunked"));
        }
        return Ok(BodyFraming::Chunked);
    }
    Ok(match length {
        Some(n) => BodyFraming::Length(n),
        None => BodyFraming::None,
    })
}

/// A message kind a [`Decoder`] produces: [`Request`] or [`Response`].
/// The two differ only in their start line and in the rule that picks
/// the body framing.
pub trait Message: Sized {
    /// Bytes every message of this kind begins with. A peer whose
    /// first bytes differ is not speaking HTTP, which is a definite
    /// answer as soon as they arrive rather than something to wait out.
    const START: &'static [u8];

    /// Parse a complete head (start line and header block, without the
    /// blank line that ends it) into a message with an empty body, and
    /// say how the body that follows is framed. `head_method` tells a
    /// response that it answers a `HEAD` request; requests ignore it.
    fn parse_head(head: &str, head_method: bool) -> Result<(Self, BodyFraming)>;

    /// The body, for the decoder to fill in.
    fn body_mut(&mut self) -> &mut Vec<u8>;
}

impl Message for Response {
    const START: &'static [u8] = b"HTTP/";

    fn parse_head(head: &str, head_method: bool) -> Result<(Self, BodyFraming)> {
        let (status_line, header_block) = head.split_once("\r\n").unwrap_or((head, ""));

        // Status line: HTTP/1.x SP code SP reason.
        let mut parts = status_line.splitn(3, ' ');
        let version: Version = parts
            .next()
            .unwrap_or("")
            .parse()
            .map_err(|()| Error::Malformed("http version"))?;
        let code: u16 = parts
            .next()
            .ok_or(Error::Malformed("status code"))?
            .parse()
            .map_err(|_| Error::Malformed("status code"))?;
        if !(100..600).contains(&code) {
            return Err(Error::Malformed("status code range"));
        }
        let status = StatusCode(code);
        let headers = parse_header_lines(header_block)?;
        let framing = response_framing(status, head_method, &headers)?;
        let response = Response {
            status,
            version,
            headers,
            body: Vec::new(),
        };
        Ok((response, framing))
    }

    fn body_mut(&mut self) -> &mut Vec<u8> {
        &mut self.body
    }
}

impl Message for Request {
    /// Requests open with a method, which has no fixed spelling.
    const START: &'static [u8] = b"";

    fn parse_head(head: &str, _head_method: bool) -> Result<(Self, BodyFraming)> {
        let (request_line, header_block) = head.split_once("\r\n").unwrap_or((head, ""));

        let mut parts = request_line.split(' ');
        let method: Method = parts
            .next()
            .unwrap_or("")
            .parse()
            .map_err(|_| Error::Malformed("method"))?;
        let target = parts
            .next()
            .ok_or(Error::Malformed("request target"))?
            .to_string();
        if target.is_empty() || (!target.starts_with('/') && target != "*") {
            return Err(Error::Malformed("request target form"));
        }
        let version: Version = parts
            .next()
            .ok_or(Error::Malformed("http version"))?
            .parse()
            .map_err(|()| Error::Malformed("http version"))?;
        if parts.next().is_some() {
            return Err(Error::Malformed("request line"));
        }
        let headers = parse_header_lines(header_block)?;
        let framing = request_framing(&headers)?;
        let request = Request {
            method,
            target,
            version,
            headers,
            body: Vec::new(),
        };
        Ok((request, framing))
    }

    fn body_mut(&mut self) -> &mut Vec<u8> {
        &mut self.body
    }
}

/// Where a [`Decoder`] stands in the message at the front of its buffer.
#[derive(Debug)]
enum ParseState<M> {
    /// Waiting for the blank line that ends the head. The first
    /// `scanned` unconsumed bytes are known not to hold it, so trickled
    /// input is searched once, not once per read.
    Head { scanned: usize },
    /// The head is parsed into `msg` and consumed; `at` is how far the
    /// body got.
    Body { msg: M, at: BodyCursor },
}

/// Progress through a message body. Every byte before the cursor is
/// already consumed and, if it was body data, appended to the message.
#[derive(Debug)]
enum BodyCursor {
    /// This many body bytes are still to come (`Content-Length`
    /// framing; zero for a message without a body).
    Remaining(usize),
    /// Everything until the peer closes is body.
    ToEof,
    /// At a chunk-size line; `scanned` as in [`ParseState::Head`].
    ChunkSize { scanned: usize },
    /// Inside a chunk: this many data bytes to come, then its CRLF.
    ChunkData(usize),
    /// Past the last chunk's size: trailer fields, if any (ignored),
    /// up to a blank line; `scanned` as in [`ParseState::Head`].
    Trailers { scanned: usize },
}

/// Offset one past the first `terminator` in `rest`, skipping the
/// `scanned` bytes earlier calls already searched. Fails as soon as
/// the terminated part, or an unterminated `rest`, is longer than
/// `limit` — an endless line is refused while it is still partial,
/// not buffered.
fn find_end(
    rest: &[u8],
    terminator: &[u8],
    scanned: &mut usize,
    limit: usize,
    what: &'static str,
) -> Result<Option<usize>> {
    // A terminator spanning the old/new boundary starts at most
    // `terminator.len() - 1` bytes before the searched frontier.
    let from = scanned.saturating_sub(terminator.len() - 1);
    let end = rest[from..]
        .windows(terminator.len())
        .position(|w| w == terminator)
        .map(|idx| from + idx + terminator.len());
    if end.unwrap_or(rest.len()) > limit {
        return Err(Error::TooLarge { what, limit });
    }
    if end.is_none() {
        *scanned = rest.len();
    }
    Ok(end)
}

/// Incremental decoder for the messages arriving on one connection.
///
/// The read loop is `read → feed → next`: [`feed`](Decoder::feed) hands
/// over whatever a read returned, and [`next`](Decoder::next) yields
/// the message at the front of the buffer once it is complete,
/// consuming its bytes and re-arming for the one after it (pipelined
/// messages come out of successive `next` calls without another feed).
/// An error is final for the connection: every later `next` fails too.
#[derive(Debug)]
pub struct Decoder<M> {
    /// Bytes fed so far; `buf[..pos]` is consumed and dropped by the
    /// next `feed`.
    buf: Vec<u8>,
    pos: usize,
    state: ParseState<M>,
    limits: Limits,
    head_method: bool,
}

impl Decoder<Request> {
    /// A decoder for the requests a client sends.
    pub fn request(limits: Limits) -> Self {
        Self::new(limits, false)
    }
}

impl Decoder<Response> {
    /// A decoder for the response to one request. `head_method` says
    /// that request was `HEAD`, whose response has a head and no body.
    pub fn response(head_method: bool, limits: Limits) -> Self {
        Self::new(limits, head_method)
    }
}

impl<M: Message> Decoder<M> {
    fn new(limits: Limits, head_method: bool) -> Self {
        Decoder {
            buf: Vec::new(),
            pos: 0,
            state: ParseState::Head { scanned: 0 },
            limits,
            head_method,
        }
    }

    /// Append bytes read off the connection.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Dropping the consumed prefix here, once per read, keeps the
        // buffer at one read plus an undecided tail, whatever the
        // message size.
        self.buf.drain(..self.pos);
        self.pos = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Whether the decoder sits between messages with nothing
    /// buffered: no byte of a next message has arrived.
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len() && matches!(self.state, ParseState::Head { .. })
    }

    /// The next complete message, or `None` while more bytes are
    /// needed. `eof` says the peer has closed: it ends a read-to-close
    /// body, and makes any other incomplete message (an empty buffer
    /// included) [`Error::UnexpectedEof`]. A response that does not
    /// begin `HTTP/` is [`Error::Malformed`] as soon as that shows,
    /// closed or not.
    pub fn next(&mut self, eof: bool) -> Result<Option<M>> {
        let Limits { max_head, max_body } = self.limits;
        let body_too_large = Error::TooLarge {
            what: "body",
            limit: max_body,
        };
        loop {
            let rest = &self.buf[self.pos..];
            let complete = match &mut self.state {
                ParseState::Head { scanned } => {
                    let known = rest.len().min(M::START.len());
                    if rest[..known] != M::START[..known] {
                        return Err(Error::Malformed(NOT_HTTP));
                    }
                    let Some(end) = find_end(rest, b"\r\n\r\n", scanned, max_head, "head")? else {
                        break;
                    };
                    let head = std::str::from_utf8(&rest[..end - 4])
                        .map_err(|_| Error::Malformed("head encoding"))?;
                    let (msg, framing) = M::parse_head(head, self.head_method)?;
                    let at = match framing {
                        BodyFraming::None => BodyCursor::Remaining(0),
                        BodyFraming::Length(n) if n > max_body => return Err(body_too_large),
                        BodyFraming::Length(n) => BodyCursor::Remaining(n),
                        BodyFraming::Chunked => BodyCursor::ChunkSize { scanned: 0 },
                        BodyFraming::ToEof => BodyCursor::ToEof,
                    };
                    self.pos += end;
                    self.state = ParseState::Body { msg, at };
                    false
                }
                ParseState::Body { msg, at } => {
                    let body = msg.body_mut();
                    // What the body may still grow by. Sizes from the
                    // wire are compared against this, never added to
                    // an offset, so no hostile size can overflow.
                    let room = max_body.saturating_sub(body.len());
                    match at {
                        BodyCursor::Remaining(left) | BodyCursor::ChunkData(left) if *left > 0 => {
                            let take = (*left).min(rest.len());
                            if take == 0 {
                                break;
                            }
                            body.extend_from_slice(&rest[..take]);
                            self.pos += take;
                            *left -= take;
                            false
                        }
                        BodyCursor::Remaining(_) => true,
                        BodyCursor::ToEof => {
                            if rest.len() > room {
                                return Err(body_too_large);
                            }
                            body.extend_from_slice(rest);
                            self.pos += rest.len();
                            if !eof {
                                break;
                            }
                            true
                        }
                        BodyCursor::ChunkSize { scanned } => {
                            let Some(end) =
                                find_end(rest, b"\r\n", scanned, max_head, "chunk size line")?
                            else {
                                break;
                            };
                            let line = std::str::from_utf8(&rest[..end - 2])
                                .map_err(|_| Error::Malformed("chunk size encoding"))?;
                            // Chunk extensions (";ext=...") are permitted and ignored.
                            let size_str = line.split(';').next().unwrap_or("").trim();
                            let size = usize::from_str_radix(size_str, 16)
                                .map_err(|_| Error::Malformed("chunk size"))?;
                            if size > room {
                                return Err(body_too_large);
                            }
                            // The last chunk's line keeps its CRLF, so that
                            // the trailer section, empty or not, ends at
                            // the first blank line.
                            (self.pos, *at) = match size {
                                0 => (self.pos + end - 2, BodyCursor::Trailers { scanned: 0 }),
                                _ => (self.pos + end, BodyCursor::ChunkData(size)),
                            };
                            false
                        }
                        BodyCursor::ChunkData(_) => {
                            match rest.get(..2) {
                                None => break,
                                Some(b"\r\n") => {}
                                Some(_) => return Err(Error::Malformed("chunk terminator")),
                            }
                            self.pos += 2;
                            *at = BodyCursor::ChunkSize { scanned: 0 };
                            false
                        }
                        BodyCursor::Trailers { scanned } => {
                            let Some(end) =
                                find_end(rest, b"\r\n\r\n", scanned, max_head, "trailers")?
                            else {
                                break;
                            };
                            self.pos += end;
                            true
                        }
                    }
                }
            };
            if complete {
                let next = ParseState::Head { scanned: 0 };
                if let ParseState::Body { msg, .. } = std::mem::replace(&mut self.state, next) {
                    return Ok(Some(msg));
                }
            }
        }
        if eof {
            Err(Error::UnexpectedEof)
        } else {
            Ok(None)
        }
    }
}

/// Feed all of `buf` to a fresh decoder and report its first message.
fn parse_one<M: Message>(mut decoder: Decoder<M>, buf: &[u8], eof: bool) -> Result<Parsed<M>> {
    decoder.feed(buf);
    Ok(match decoder.next(eof)? {
        Some(msg) => Parsed::Complete(msg, decoder.pos),
        None => Parsed::Partial,
    })
}

/// Attempt to parse a complete response from `buf`.
///
/// `eof` indicates the peer closed the connection (needed for
/// read-to-close bodies). `head_method` tells the parser whether the
/// request was `HEAD`.
pub fn parse_response(
    buf: &[u8],
    eof: bool,
    head_method: bool,
    limits: &Limits,
) -> Result<Parsed<Response>> {
    parse_one(Decoder::response(head_method, *limits), buf, eof)
}

/// Attempt to parse a complete request from `buf`.
pub fn parse_request(buf: &[u8], limits: &Limits) -> Result<Parsed<Request>> {
    parse_one(Decoder::request(*limits), buf, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits() -> Limits {
        Limits::default()
    }

    #[test]
    fn parses_simple_response() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Type: text/plain\r\n\r\nhello";
        let Parsed::Complete(resp, used) = parse_response(raw, false, false, &limits()).unwrap()
        else {
            panic!("expected complete");
        };
        assert_eq!(used, raw.len());
        assert_eq!(resp.status, StatusCode::OK);
        assert_eq!(resp.body_text(), "hello");
        assert_eq!(resp.headers.get("content-type"), Some("text/plain"));
    }

    #[test]
    fn partial_until_body_arrives() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhel";
        assert_eq!(
            parse_response(raw, false, false, &limits()).unwrap(),
            Parsed::Partial
        );
    }

    #[test]
    fn eof_mid_body_is_an_error() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhel";
        assert_eq!(
            parse_response(raw, true, false, &limits()).unwrap_err(),
            Error::UnexpectedEof
        );
    }

    #[test]
    fn read_to_close_body() {
        let raw = b"HTTP/1.0 200 OK\r\n\r\nall the bytes";
        assert_eq!(
            parse_response(raw, false, false, &limits()).unwrap(),
            Parsed::Partial
        );
        let Parsed::Complete(resp, _) = parse_response(raw, true, false, &limits()).unwrap() else {
            panic!();
        };
        assert_eq!(resp.body_text(), "all the bytes");
    }

    #[test]
    fn head_response_has_no_body() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n";
        let Parsed::Complete(resp, used) = parse_response(raw, false, true, &limits()).unwrap()
        else {
            panic!();
        };
        assert!(resp.body.is_empty());
        assert_eq!(used, raw.len());
    }

    #[test]
    fn chunked_response_decodes() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n";
        let Parsed::Complete(resp, used) = parse_response(raw, false, false, &limits()).unwrap()
        else {
            panic!();
        };
        assert_eq!(resp.body_text(), "hello world");
        assert_eq!(used, raw.len());
    }

    #[test]
    fn chunked_with_extensions_and_trailers() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3;ext=1\r\nabc\r\n0\r\nX-Sum: 3\r\n\r\n";
        let Parsed::Complete(resp, used) = parse_response(raw, false, false, &limits()).unwrap()
        else {
            panic!();
        };
        assert_eq!(resp.body_text(), "abc");
        assert_eq!(used, raw.len());
    }

    #[test]
    fn chunked_partial() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhel";
        assert_eq!(
            parse_response(raw, false, false, &limits()).unwrap(),
            Parsed::Partial
        );
    }

    #[test]
    fn wire_version_is_captured() {
        let raw = b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok";
        let Parsed::Complete(resp, _) = parse_response(raw, false, false, &limits()).unwrap()
        else {
            panic!();
        };
        assert_eq!(resp.version, Version::Http10);

        let raw = b"GET / HTTP/1.0\r\nHost: h\r\n\r\n";
        let Parsed::Complete(req, _) = parse_request(raw, &limits()).unwrap() else {
            panic!();
        };
        assert_eq!(req.version, Version::Http10);
        assert_eq!(
            Request::get("/").version,
            Version::Http11,
            "constructed messages default to 1.1"
        );
    }

    #[test]
    fn rejects_bad_status_lines() {
        for raw in [
            &b"HTTP/2 200 OK\r\n\r\n"[..],
            &b"HTTP/1.1 abc OK\r\n\r\n"[..],
            &b"HTTP/1.1 42 OK\r\n\r\n"[..],
        ] {
            assert!(
                parse_response(raw, true, false, &limits()).is_err(),
                "{raw:?}"
            );
        }
    }

    #[test]
    fn head_limit_enforced() {
        let small = Limits {
            max_head: 16,
            max_body: 1024,
        };
        let raw = b"HTTP/1.1 200 OK\r\nX-Long-Header-Name: value\r\n\r\n";
        assert!(matches!(
            parse_response(raw, false, false, &small),
            Err(Error::TooLarge { what: "head", .. })
        ));
    }

    #[test]
    fn body_limit_enforced_via_content_length() {
        let small = Limits {
            max_head: 1024,
            max_body: 4,
        };
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n0123456789";
        assert!(matches!(
            parse_response(raw, false, false, &small),
            Err(Error::TooLarge { what: "body", .. })
        ));
    }

    #[test]
    fn parses_request_with_body() {
        let raw = b"POST /exec HTTP/1.1\r\nHost: h\r\nContent-Length: 6\r\n\r\nwhoami";
        let Parsed::Complete(req, used) = parse_request(raw, &limits()).unwrap() else {
            panic!();
        };
        assert_eq!(used, raw.len());
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.target, "/exec");
        assert_eq!(req.body_text(), "whoami");
    }

    #[test]
    fn request_without_length_has_empty_body() {
        let raw = b"GET /a?b=1 HTTP/1.1\r\nHost: h\r\n\r\n";
        let Parsed::Complete(req, _) = parse_request(raw, &limits()).unwrap() else {
            panic!();
        };
        assert!(req.body.is_empty());
        assert_eq!(req.query(), Some("b=1"));
    }

    #[test]
    fn rejects_bad_request_lines() {
        for raw in [
            &b"FETCH / HTTP/1.1\r\n\r\n"[..],
            &b"GET HTTP/1.1\r\n\r\n"[..],
            &b"GET /a b HTTP/1.1\r\n\r\n"[..],
            &b"GET noslash HTTP/1.1\r\n\r\n"[..],
        ] {
            assert!(parse_request(raw, &limits()).is_err(), "{raw:?}");
        }
    }

    #[test]
    fn malformed_content_length_is_a_hard_error() {
        // Each of these used to silently fall through to read-to-close
        // framing, mis-attributing whatever follows to the body.
        for raw in [
            &b"HTTP/1.1 200 OK\r\nContent-Length: +5\r\n\r\nhello"[..],
            &b"HTTP/1.1 200 OK\r\nContent-Length: nope\r\n\r\n"[..],
            &b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n"[..],
            &b"HTTP/1.1 200 OK\r\nContent-Length: 99999999999999999999999999\r\n\r\n"[..],
        ] {
            assert!(
                matches!(
                    parse_response(raw, false, false, &limits()),
                    Err(Error::Malformed(_))
                ),
                "{raw:?}"
            );
        }
    }

    #[test]
    fn malformed_content_length_rejected_even_when_chunked_or_bodyless() {
        // Chunked framing must not mask a malformed length...
        let raw =
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: x\r\n\r\n0\r\n\r\n";
        assert!(matches!(
            parse_response(raw, false, false, &limits()),
            Err(Error::Malformed(_))
        ));
        // ...and neither must a bodyless status.
        let raw = b"HTTP/1.1 204 No Content\r\nContent-Length: +0\r\n\r\n";
        assert!(matches!(
            parse_response(raw, false, false, &limits()),
            Err(Error::Malformed(_))
        ));
    }

    #[test]
    fn request_with_both_length_and_chunked_is_rejected() {
        // The classic CL.TE smuggling shape.
        let raw = b"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n";
        assert_eq!(
            parse_request(raw, &limits()).unwrap_err(),
            Error::Malformed("content-length with chunked")
        );
    }

    #[test]
    fn agreeing_duplicate_content_lengths_still_parse() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello";
        let Parsed::Complete(resp, used) = parse_response(raw, false, false, &limits()).unwrap()
        else {
            panic!();
        };
        assert_eq!(resp.body_text(), "hello");
        assert_eq!(used, raw.len());
    }

    #[test]
    fn scanner_resumes_instead_of_rescanning() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello";
        let mut decoder = Decoder::response(false, limits());
        // Feed byte by byte; every step must agree with the stateless parse.
        for (n, byte) in raw.iter().enumerate().take(raw.len() - 1) {
            decoder.feed(std::slice::from_ref(byte));
            assert_eq!(decoder.next(false).unwrap(), None, "at {}", n + 1);
        }
        decoder.feed(&raw[raw.len() - 1..]);
        let resp = decoder.next(false).unwrap().expect("complete");
        assert_eq!(resp.body_text(), "hello");
        assert!(decoder.is_empty(), "consumed exactly the message");
    }

    #[test]
    fn scanner_fails_oversized_head_while_still_partial() {
        let small = Limits {
            max_head: 16,
            max_body: 1024,
        };
        // No terminator anywhere — the old stateless loop only failed once
        // the *complete* head arrived; the decoder fails as soon as the
        // buffered prefix crosses the limit.
        let raw = b"HTTP/1.1 200 OK\r\nX-Pad: aaaaaaaaaaaaaaaa";
        let mut decoder = Decoder::response(false, small);
        let mut failed_at = None;
        for (n, byte) in raw.iter().enumerate() {
            decoder.feed(std::slice::from_ref(byte));
            match decoder.next(false) {
                Ok(None) => {}
                Err(Error::TooLarge { what: "head", .. }) => {
                    failed_at = Some(n + 1);
                    break;
                }
                other => panic!("unexpected: {other:?}"),
            }
        }
        assert_eq!(failed_at, Some(small.max_head + 1));
    }

    #[test]
    fn scanner_reset_handles_pipelined_messages() {
        let raw = b"GET /a HTTP/1.1\r\nHost: h\r\n\r\nGET /b HTTP/1.1\r\nHost: h\r\n\r\n";
        let mut decoder = Decoder::request(limits());
        decoder.feed(raw);
        let first = decoder.next(false).unwrap().expect("complete");
        assert_eq!(first.target, "/a");
        assert!(!decoder.is_empty());
        let second = decoder.next(false).unwrap().expect("complete");
        assert_eq!(second.target, "/b");
        assert!(decoder.is_empty());
    }

    #[test]
    fn scanner_finds_terminator_split_across_feeds() {
        let raw = b"HTTP/1.1 204 No Content\r\n\r\n";
        // Split inside the terminator so the boundary rescan matters.
        for cut in raw.len() - 3..raw.len() {
            let mut decoder = Decoder::response(false, limits());
            decoder.feed(&raw[..cut]);
            assert_eq!(decoder.next(false).unwrap(), None);
            decoder.feed(&raw[cut..]);
            assert!(decoder.next(false).unwrap().is_some());
        }
    }

    #[test]
    fn hostile_chunk_size_is_too_large_not_a_panic() {
        // `body.len() + size` and `pos + size + 2` used to overflow here.
        let body = "1\r\na\r\nffffffffffffffff\r\nxxxxxxxx";
        let raw = format!("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n{body}");
        assert!(matches!(
            parse_response(raw.as_bytes(), false, false, &limits()),
            Err(Error::TooLarge { what: "body", .. })
        ));
        let raw = format!("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n{body}");
        assert!(matches!(
            parse_request(raw.as_bytes(), &limits()),
            Err(Error::TooLarge { what: "body", .. })
        ));
    }

    #[test]
    fn chunk_lines_and_trailers_are_bounded_by_the_head_limit() {
        let small = Limits {
            max_head: 64,
            max_body: 1024,
        };
        let head = "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n";
        for (tail, what) in [
            (format!("1;{}", "e".repeat(80)), "chunk size line"),
            (format!("0\r\nX-Pad: {}", "t".repeat(80)), "trailers"),
        ] {
            let err = parse_response(format!("{head}{tail}").as_bytes(), false, false, &small)
                .unwrap_err();
            assert_eq!(err, Error::TooLarge { what, limit: 64 });
        }
    }

    #[test]
    fn a_decoder_is_empty_only_between_messages() {
        let mut decoder = Decoder::response(false, limits());
        assert_eq!(decoder.next(true).unwrap_err(), Error::UnexpectedEof);
        decoder.feed(b"HTTP/1.0 200 OK\r\n\r\n");
        assert_eq!(decoder.next(false).unwrap(), None);
        assert!(!decoder.is_empty(), "every byte consumed, yet mid-message");
    }

    /// A service that answers with its own protocol's banner has given
    /// a definite answer; one that says nothing has not. (A status line
    /// trickled a byte per feed passes the same check on every byte in
    /// `scanner_resumes_instead_of_rescanning`.)
    #[test]
    fn a_banner_is_not_http_but_silence_is_only_eof() {
        let mut banner = Decoder::response(false, limits());
        banner.feed(b"SSH-2.0-OpenSSH_8.9\r\n");
        assert_eq!(banner.next(true).unwrap_err(), Error::Malformed("not HTTP"));
        // Decided on the first differing byte, open connection or not.
        let mut early = Decoder::response(false, limits());
        early.feed(b"HTS");
        assert_eq!(early.next(false).unwrap_err(), Error::Malformed("not HTTP"));
        assert!(!Error::Malformed("not HTTP").is_transient());

        let mut silent = Decoder::response(false, limits());
        assert_eq!(silent.next(false).unwrap(), None);
        assert_eq!(silent.next(true).unwrap_err(), Error::UnexpectedEof);
        assert!(Error::UnexpectedEof.is_transient());
    }

    #[test]
    fn pipelined_messages_consume_exactly_one() {
        let raw = b"HTTP/1.1 204 No Content\r\n\r\nHTTP/1.1 200 OK\r\n\r\n";
        let Parsed::Complete(resp, used) = parse_response(raw, false, false, &limits()).unwrap()
        else {
            panic!();
        };
        assert_eq!(resp.status, StatusCode::NO_CONTENT);
        assert_eq!(used, b"HTTP/1.1 204 No Content\r\n\r\n".len());
    }
}
