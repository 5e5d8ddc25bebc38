//! HTTP response message.

use crate::headers::Headers;
use crate::status::StatusCode;
use crate::version::Version;

/// An HTTP/1.x response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: StatusCode,
    /// Protocol version from the status line; constructed responses are
    /// HTTP/1.1. The client uses it to decide whether the connection
    /// may be reused (HTTP/1.0 defaults to close).
    pub version: Version,
    pub headers: Headers,
    pub body: Vec<u8>,
}

impl Response {
    /// A response with the given status and empty body.
    pub fn new(status: StatusCode) -> Self {
        Response {
            status,
            version: Version::default(),
            headers: Headers::new(),
            body: Vec::new(),
        }
    }

    /// `200 OK` with an HTML body.
    pub fn html(body: impl Into<Vec<u8>>) -> Self {
        Response::new(StatusCode::OK)
            .with_header("Content-Type", "text/html; charset=utf-8")
            .with_body(body)
    }

    /// `200 OK` with a plain-text body.
    pub fn text(body: impl Into<Vec<u8>>) -> Self {
        Response::new(StatusCode::OK)
            .with_header("Content-Type", "text/plain; charset=utf-8")
            .with_body(body)
    }

    /// `200 OK` with a JSON body.
    pub fn json(body: impl Into<Vec<u8>>) -> Self {
        Response::new(StatusCode::OK)
            .with_header("Content-Type", "application/json")
            .with_body(body)
    }

    /// `404 Not Found` with a small HTML body.
    pub fn not_found() -> Self {
        Response::new(StatusCode::NOT_FOUND)
            .with_header("Content-Type", "text/html")
            .with_body("<html><body><h1>404 Not Found</h1></body></html>")
    }

    /// `401` challenge, as produced by password-protected admin panels.
    pub fn unauthorized(realm: &str) -> Self {
        Response::new(StatusCode::UNAUTHORIZED)
            .with_header(
                "WWW-Authenticate",
                format!("Basic realm=\"{realm}\"").as_str(),
            )
            .with_body("Authorization Required")
    }

    /// A `302 Found` redirect to `location`.
    pub fn redirect(location: &str) -> Self {
        Response::new(StatusCode::FOUND).with_header("Location", location)
    }

    /// Builder-style header addition.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.set(name, value);
        self
    }

    /// Builder-style body assignment.
    pub fn with_body(mut self, body: impl Into<Vec<u8>>) -> Self {
        self.body = body.into();
        self
    }

    /// Body interpreted as UTF-8 (lossy); the prefilter and plugins match
    /// on this text.
    pub fn body_text(&self) -> String {
        self.body_str().into_owned()
    }

    /// Borrowing variant of [`body_text`](Self::body_text): clean UTF-8
    /// bodies (the common case) come back as a view into the response
    /// bytes; only bodies with invalid sequences allocate a repaired
    /// copy.
    pub fn body_str(&self) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }

    /// `Location` header for redirect handling.
    pub fn location(&self) -> Option<&str> {
        self.headers.get("location")
    }

    /// Whether this response should be followed by the client
    /// (redirect status *and* a Location header).
    pub fn is_followable_redirect(&self) -> bool {
        self.status.is_redirect() && self.location().is_some()
    }
}

impl From<&str> for Response {
    fn from(s: &str) -> Self {
        Response::html(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_content_type() {
        assert_eq!(
            Response::html("<p>").headers.get("content-type"),
            Some("text/html; charset=utf-8")
        );
        assert_eq!(
            Response::json("{}").headers.get("content-type"),
            Some("application/json")
        );
        assert!(Response::text("x")
            .headers
            .get("content-type")
            .unwrap()
            .starts_with("text/plain"));
    }

    #[test]
    fn redirect_detection_requires_location() {
        let r = Response::redirect("/next");
        assert!(r.is_followable_redirect());
        assert_eq!(r.location(), Some("/next"));
        let bare = Response::new(StatusCode::FOUND);
        assert!(!bare.is_followable_redirect());
    }

    #[test]
    fn unauthorized_carries_challenge() {
        let r = Response::unauthorized("Jenkins");
        assert_eq!(r.status, StatusCode::UNAUTHORIZED);
        assert_eq!(
            r.headers.get("www-authenticate"),
            Some("Basic realm=\"Jenkins\"")
        );
    }

    #[test]
    fn body_text_is_lossy() {
        let r = Response::new(StatusCode::OK).with_body(vec![0x68, 0x69, 0xff]);
        assert_eq!(r.body_text(), "hi\u{fffd}");
    }

    #[test]
    fn body_str_borrows_clean_utf8() {
        let clean = Response::new(StatusCode::OK).with_body("plain ascii");
        assert!(matches!(clean.body_str(), std::borrow::Cow::Borrowed(_)));
        let dirty = Response::new(StatusCode::OK).with_body(vec![0x68, 0x69, 0xff]);
        assert!(matches!(dirty.body_str(), std::borrow::Cow::Owned(_)));
        assert_eq!(dirty.body_str(), "hi\u{fffd}");
    }
}
