//! HTTP status codes.

use std::fmt;

/// An HTTP status code.
///
/// Stored as the raw `u16`; helper constructors exist for the codes the
/// study actually exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StatusCode(pub u16);

impl StatusCode {
    pub const OK: StatusCode = StatusCode(200);
    pub const CREATED: StatusCode = StatusCode(201);
    pub const NO_CONTENT: StatusCode = StatusCode(204);
    pub const MOVED_PERMANENTLY: StatusCode = StatusCode(301);
    pub const FOUND: StatusCode = StatusCode(302);
    pub const SEE_OTHER: StatusCode = StatusCode(303);
    pub const TEMPORARY_REDIRECT: StatusCode = StatusCode(307);
    pub const PERMANENT_REDIRECT: StatusCode = StatusCode(308);
    pub const BAD_REQUEST: StatusCode = StatusCode(400);
    pub const UNAUTHORIZED: StatusCode = StatusCode(401);
    pub const FORBIDDEN: StatusCode = StatusCode(403);
    pub const NOT_FOUND: StatusCode = StatusCode(404);
    pub const METHOD_NOT_ALLOWED: StatusCode = StatusCode(405);
    pub const INTERNAL_SERVER_ERROR: StatusCode = StatusCode(500);
    pub const BAD_GATEWAY: StatusCode = StatusCode(502);
    pub const SERVICE_UNAVAILABLE: StatusCode = StatusCode(503);

    /// The numeric code.
    pub fn as_u16(self) -> u16 {
        self.0
    }

    /// `2xx`.
    pub fn is_success(self) -> bool {
        (200..300).contains(&self.0)
    }

    /// `3xx` codes that carry a `Location` header the client should follow.
    pub fn is_redirect(self) -> bool {
        matches!(self.0, 301 | 302 | 303 | 307 | 308)
    }

    /// `4xx`.
    pub fn is_client_error(self) -> bool {
        (400..500).contains(&self.0)
    }

    /// `5xx`.
    pub fn is_server_error(self) -> bool {
        (500..600).contains(&self.0)
    }

    /// Canonical reason phrase; unknown codes get an empty phrase, which is
    /// valid on the wire.
    pub fn reason(self) -> &'static str {
        match self.0 {
            200 => "OK",
            201 => "Created",
            204 => "No Content",
            301 => "Moved Permanently",
            302 => "Found",
            303 => "See Other",
            307 => "Temporary Redirect",
            308 => "Permanent Redirect",
            400 => "Bad Request",
            401 => "Unauthorized",
            403 => "Forbidden",
            404 => "Not Found",
            405 => "Method Not Allowed",
            500 => "Internal Server Error",
            502 => "Bad Gateway",
            503 => "Service Unavailable",
            _ => "",
        }
    }
}

impl fmt::Display for StatusCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let reason = self.reason();
        if reason.is_empty() {
            write!(f, "{}", self.0)
        } else {
            write!(f, "{} {}", self.0, reason)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(StatusCode::OK.is_success());
        assert!(StatusCode::FOUND.is_redirect());
        assert!(
            !StatusCode(304).is_redirect(),
            "304 has no Location to follow"
        );
        assert!(StatusCode::NOT_FOUND.is_client_error());
        assert!(StatusCode::BAD_GATEWAY.is_server_error());
    }

    #[test]
    fn display_includes_reason_when_known() {
        assert_eq!(StatusCode::OK.to_string(), "200 OK");
        assert_eq!(StatusCode(299).to_string(), "299");
    }
}
