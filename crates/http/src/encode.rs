//! HTTP/1.1 message serialization.

use crate::request::Request;
use crate::response::Response;

fn put_headers(buf: &mut Vec<u8>, headers: &crate::headers::Headers) {
    for (n, v) in headers.iter() {
        buf.extend_from_slice(n.as_bytes());
        buf.extend_from_slice(b": ");
        buf.extend_from_slice(v.as_bytes());
        buf.extend_from_slice(b"\r\n");
    }
}

/// Serialize a request in origin form. A `Content-Length` header is added
/// for non-empty bodies unless the caller already set explicit framing.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut buf = Vec::with_capacity(128 + req.body.len());
    buf.extend_from_slice(req.method.as_str().as_bytes());
    buf.push(b' ');
    buf.extend_from_slice(req.target.as_bytes());
    buf.extend_from_slice(b" HTTP/1.1\r\n");
    put_headers(&mut buf, &req.headers);
    if !req.body.is_empty() && !req.headers.contains("content-length") && !req.headers.is_chunked()
    {
        buf.extend_from_slice(format!("Content-Length: {}\r\n", req.body.len()).as_bytes());
    }
    buf.extend_from_slice(b"\r\n");
    buf.extend_from_slice(&req.body);
    buf
}

/// Serialize a response. `Content-Length` is always emitted (even for empty
/// bodies) unless the message is chunked, so clients never need
/// read-to-close framing for our own servers.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::with_capacity(128 + resp.body.len());
    buf.extend_from_slice(b"HTTP/1.1 ");
    buf.extend_from_slice(resp.status.as_u16().to_string().as_bytes());
    let reason = resp.status.reason();
    if !reason.is_empty() {
        buf.push(b' ');
        buf.extend_from_slice(reason.as_bytes());
    }
    buf.extend_from_slice(b"\r\n");
    put_headers(&mut buf, &resp.headers);
    // 1xx, 204 and 304 responses never carry a body (RFC 9110 §6.4.1).
    let code = resp.status.as_u16();
    let bodyless = (100..200).contains(&code) || code == 204 || code == 304;
    if !bodyless && !resp.headers.contains("content-length") && !resp.headers.is_chunked() {
        buf.extend_from_slice(format!("Content-Length: {}\r\n", resp.body.len()).as_bytes());
    }
    buf.extend_from_slice(b"\r\n");
    if !bodyless {
        buf.extend_from_slice(&resp.body);
    }
    buf
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_request, parse_response, Limits, Parsed};
    use crate::status::StatusCode;

    #[test]
    fn request_round_trip() {
        let req = Request::post("/run", "id").with_header("Host", "10.0.0.1");
        let wire = encode_request(&req);
        let Parsed::Complete(back, used) = parse_request(&wire, &Limits::default()).unwrap() else {
            panic!();
        };
        assert_eq!(used, wire.len());
        assert_eq!(back.method, req.method);
        assert_eq!(back.target, req.target);
        assert_eq!(back.body, req.body);
        assert_eq!(back.headers.content_length().unwrap(), Some(2));
    }

    #[test]
    fn response_round_trip() {
        let resp = Response::html("<title>Polynote</title>").with_header("Server", "sim");
        let wire = encode_response(&resp);
        let Parsed::Complete(back, used) =
            parse_response(&wire, false, false, &Limits::default()).unwrap()
        else {
            panic!();
        };
        assert_eq!(used, wire.len());
        assert_eq!(back.status, StatusCode::OK);
        assert_eq!(back.body, resp.body);
        assert_eq!(back.headers.get("server"), Some("sim"));
    }

    #[test]
    fn empty_body_still_has_explicit_length() {
        let wire = encode_response(&Response::new(StatusCode::NOT_FOUND));
        let text = String::from_utf8(wire).unwrap();
        assert!(text.contains("Content-Length: 0\r\n"), "{text}");
    }

    #[test]
    fn explicit_content_length_not_duplicated() {
        let resp = Response::new(StatusCode::OK)
            .with_header("Content-Length", "2")
            .with_body("ok");
        let wire = encode_response(&resp);
        let text = String::from_utf8(wire).unwrap();
        assert_eq!(text.matches("Content-Length").count(), 1);
    }

    #[test]
    fn get_request_has_no_length_header() {
        let wire = encode_request(&Request::get("/"));
        let text = String::from_utf8(wire).unwrap();
        assert!(!text.contains("Content-Length"));
        assert!(text.starts_with("GET / HTTP/1.1\r\n"));
    }
}
