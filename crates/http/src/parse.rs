//! Incremental HTTP/1.1 message parser.
//!
//! The parser consumes bytes from a growable buffer and reports either
//! "need more bytes" or a complete message. It supports `Content-Length`
//! bodies, `chunked` transfer encoding and read-to-close responses, which
//! covers everything encountered by the scanning pipeline.

use crate::error::{Error, Result};
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
    /// Maximum size of the head (start line + headers) in bytes.
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

/// Outcome of a parse attempt over a (possibly incomplete) buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum Parsed<T> {
    /// A complete message plus the number of bytes it consumed.
    Complete(T, usize),
    /// More bytes are required before a verdict is possible.
    Partial,
}

/// Incremental finder for the head terminator (`\r\n\r\n`).
///
/// Re-scanning the whole buffer on every feed makes trickled input O(n²);
/// the scanner instead remembers how far previous calls got and only
/// examines new bytes. It also rejects an unterminated head the moment the
/// buffered prefix crosses `Limits::max_head`, instead of buffering an
/// arbitrarily long head while still reporting `Partial`.
///
/// One scanner tracks one message: callers that parse several messages off
/// the same connection must [`HeadScanner::reset`] after consuming a
/// message from the front of the buffer (offsets shift).
#[derive(Debug, Clone, Copy, Default)]
pub struct HeadScanner {
    /// Buffer offset below which `\r\n\r\n` is known not to start.
    scanned: usize,
    /// Cached terminator offset (one past `\r\n\r\n`) once found.
    head_end: Option<usize>,
}

impl HeadScanner {
    /// A scanner positioned at the start of a message.
    pub fn new() -> Self {
        Self::default()
    }

    /// Find the offset one past the head terminator, scanning only bytes
    /// that previous calls have not examined. Returns `Ok(None)` while the
    /// head is incomplete and within limits.
    pub fn find(&mut self, buf: &[u8], limits: &Limits) -> Result<Option<usize>> {
        if let Some(end) = self.head_end {
            return Ok(Some(end));
        }
        // A terminator spanning the old/new boundary can start at most
        // three bytes before the previously scanned frontier.
        let from = self.scanned.saturating_sub(3);
        if let Some(idx) = buf[from..].windows(4).position(|w| w == b"\r\n\r\n") {
            let end = from + idx + 4;
            if end > limits.max_head {
                return Err(Error::TooLarge {
                    what: "head",
                    limit: limits.max_head,
                });
            }
            self.head_end = Some(end);
            return Ok(Some(end));
        }
        self.scanned = buf.len();
        if buf.len() > limits.max_head {
            return Err(Error::TooLarge {
                what: "head",
                limit: limits.max_head,
            });
        }
        Ok(None)
    }

    /// Forget all progress, ready for the next message on the connection.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
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
enum BodyFraming {
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

/// Decode a chunked body starting at `buf[start..]`.
///
/// Returns the decoded body and the offset one past the terminating
/// zero-chunk, or `Partial` if incomplete.
fn decode_chunked(buf: &[u8], start: usize, limits: &Limits) -> Result<Parsed<Vec<u8>>> {
    let mut pos = start;
    let mut body = Vec::new();
    loop {
        let rest = &buf[pos..];
        let Some(line_end) = rest.windows(2).position(|w| w == b"\r\n") else {
            return Ok(Parsed::Partial);
        };
        let size_line = std::str::from_utf8(&rest[..line_end])
            .map_err(|_| Error::Malformed("chunk size encoding"))?;
        // Chunk extensions (";ext=...") are permitted and ignored.
        let size_str = size_line.split(';').next().unwrap_or("").trim();
        let size =
            usize::from_str_radix(size_str, 16).map_err(|_| Error::Malformed("chunk size"))?;
        pos += line_end + 2;
        if size == 0 {
            // Trailer section: skip until the blank line.
            let rest = &buf[pos..];
            let Some(end) = rest.windows(2).position(|w| w == b"\r\n") else {
                return Ok(Parsed::Partial);
            };
            if end == 0 {
                return Ok(Parsed::Complete(body, pos + 2));
            }
            // There are trailers; find the terminating CRLFCRLF.
            let Some(tend) = rest.windows(4).position(|w| w == b"\r\n\r\n") else {
                return Ok(Parsed::Partial);
            };
            return Ok(Parsed::Complete(body, pos + tend + 4));
        }
        if body.len() + size > limits.max_body {
            return Err(Error::TooLarge {
                what: "body",
                limit: limits.max_body,
            });
        }
        if buf.len() < pos + size + 2 {
            return Ok(Parsed::Partial);
        }
        body.extend_from_slice(&buf[pos..pos + size]);
        if &buf[pos + size..pos + size + 2] != b"\r\n" {
            return Err(Error::Malformed("chunk terminator"));
        }
        pos += size + 2;
    }
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
    parse_response_incremental(buf, eof, head_method, limits, &mut HeadScanner::new())
}

/// Like [`parse_response`], but resumes head scanning from where the
/// caller's [`HeadScanner`] left off — feed loops stay O(n) on trickled
/// input instead of re-scanning the buffer from the start every read.
pub fn parse_response_incremental(
    buf: &[u8],
    eof: bool,
    head_method: bool,
    limits: &Limits,
    scanner: &mut HeadScanner,
) -> Result<Parsed<Response>> {
    let Some(head_end) = scanner.find(buf, limits)? else {
        if eof {
            return Err(Error::UnexpectedEof);
        }
        return Ok(Parsed::Partial);
    };

    let head =
        std::str::from_utf8(&buf[..head_end - 4]).map_err(|_| Error::Malformed("head encoding"))?;
    let (status_line, header_block) = match head.split_once("\r\n") {
        Some((s, h)) => (s, h),
        None => (head, ""),
    };

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

    match response_framing(status, head_method, &headers)? {
        BodyFraming::None => Ok(Parsed::Complete(
            Response {
                status,
                version,
                headers,
                body: Vec::new(),
            },
            head_end,
        )),
        BodyFraming::Length(n) => {
            if n > limits.max_body {
                return Err(Error::TooLarge {
                    what: "body",
                    limit: limits.max_body,
                });
            }
            if buf.len() < head_end + n {
                if eof {
                    return Err(Error::UnexpectedEof);
                }
                return Ok(Parsed::Partial);
            }
            let body = buf[head_end..head_end + n].to_vec();
            Ok(Parsed::Complete(
                Response {
                    status,
                    version,
                    headers,
                    body,
                },
                head_end + n,
            ))
        }
        BodyFraming::Chunked => match decode_chunked(buf, head_end, limits)? {
            Parsed::Complete(body, consumed) => Ok(Parsed::Complete(
                Response {
                    status,
                    version,
                    headers,
                    body,
                },
                consumed,
            )),
            Parsed::Partial => {
                if eof {
                    Err(Error::UnexpectedEof)
                } else {
                    Ok(Parsed::Partial)
                }
            }
        },
        BodyFraming::ToEof => {
            if !eof {
                if buf.len() - head_end > limits.max_body {
                    return Err(Error::TooLarge {
                        what: "body",
                        limit: limits.max_body,
                    });
                }
                return Ok(Parsed::Partial);
            }
            let body = &buf[head_end..];
            if body.len() > limits.max_body {
                return Err(Error::TooLarge {
                    what: "body",
                    limit: limits.max_body,
                });
            }
            Ok(Parsed::Complete(
                Response {
                    status,
                    version,
                    headers,
                    body: body.to_vec(),
                },
                buf.len(),
            ))
        }
    }
}

/// Attempt to parse a complete request from `buf`.
pub fn parse_request(buf: &[u8], limits: &Limits) -> Result<Parsed<Request>> {
    parse_request_incremental(buf, limits, &mut HeadScanner::new())
}

/// Like [`parse_request`], but resumes head scanning from where the
/// caller's [`HeadScanner`] left off. Reset the scanner after consuming a
/// complete request from the front of the buffer.
pub fn parse_request_incremental(
    buf: &[u8],
    limits: &Limits,
    scanner: &mut HeadScanner,
) -> Result<Parsed<Request>> {
    let Some(head_end) = scanner.find(buf, limits)? else {
        return Ok(Parsed::Partial);
    };

    let head =
        std::str::from_utf8(&buf[..head_end - 4]).map_err(|_| Error::Malformed("head encoding"))?;
    let (request_line, header_block) = match head.split_once("\r\n") {
        Some((s, h)) => (s, h),
        None => (head, ""),
    };

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

    match request_framing(&headers)? {
        BodyFraming::None | BodyFraming::ToEof => Ok(Parsed::Complete(
            Request {
                method,
                target,
                version,
                headers,
                body: Vec::new(),
            },
            head_end,
        )),
        BodyFraming::Length(n) => {
            if n > limits.max_body {
                return Err(Error::TooLarge {
                    what: "body",
                    limit: limits.max_body,
                });
            }
            if buf.len() < head_end + n {
                return Ok(Parsed::Partial);
            }
            let body = buf[head_end..head_end + n].to_vec();
            Ok(Parsed::Complete(
                Request {
                    method,
                    target,
                    version,
                    headers,
                    body,
                },
                head_end + n,
            ))
        }
        BodyFraming::Chunked => match decode_chunked(buf, head_end, limits)? {
            Parsed::Complete(body, consumed) => Ok(Parsed::Complete(
                Request {
                    method,
                    target,
                    version,
                    headers,
                    body,
                },
                consumed,
            )),
            Parsed::Partial => Ok(Parsed::Partial),
        },
    }
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
        let mut scanner = HeadScanner::new();
        // Feed byte by byte; every step must agree with the stateless parse.
        for n in 1..raw.len() {
            assert_eq!(
                parse_response_incremental(&raw[..n], false, false, &limits(), &mut scanner)
                    .unwrap(),
                Parsed::Partial,
                "at {n}"
            );
        }
        let Parsed::Complete(resp, used) =
            parse_response_incremental(raw, false, false, &limits(), &mut scanner).unwrap()
        else {
            panic!();
        };
        assert_eq!(resp.body_text(), "hello");
        assert_eq!(used, raw.len());
    }

    #[test]
    fn scanner_fails_oversized_head_while_still_partial() {
        let small = Limits {
            max_head: 16,
            max_body: 1024,
        };
        // No terminator anywhere — the old stateless loop only failed once
        // the *complete* head arrived; the scanner fails as soon as the
        // buffered prefix crosses the limit.
        let raw = b"HTTP/1.1 200 OK\r\nX-Pad: aaaaaaaaaaaaaaaa";
        let mut scanner = HeadScanner::new();
        let mut failed_at = None;
        for n in 1..=raw.len() {
            match parse_response_incremental(&raw[..n], false, false, &small, &mut scanner) {
                Ok(Parsed::Partial) => {}
                Err(Error::TooLarge { what: "head", .. }) => {
                    failed_at = Some(n);
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
        let mut scanner = HeadScanner::new();
        let Parsed::Complete(first, used) =
            parse_request_incremental(raw, &limits(), &mut scanner).unwrap()
        else {
            panic!();
        };
        assert_eq!(first.target, "/a");
        scanner.reset();
        let Parsed::Complete(second, _) =
            parse_request_incremental(&raw[used..], &limits(), &mut scanner).unwrap()
        else {
            panic!();
        };
        assert_eq!(second.target, "/b");
    }

    #[test]
    fn scanner_finds_terminator_split_across_feeds() {
        let raw = b"HTTP/1.1 204 No Content\r\n\r\n";
        // Split inside the terminator so the boundary rescan matters.
        for cut in raw.len() - 3..raw.len() {
            let mut scanner = HeadScanner::new();
            assert_eq!(
                parse_response_incremental(&raw[..cut], false, false, &limits(), &mut scanner)
                    .unwrap(),
                Parsed::Partial
            );
            assert!(matches!(
                parse_response_incremental(raw, false, false, &limits(), &mut scanner).unwrap(),
                Parsed::Complete(_, _)
            ));
        }
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
