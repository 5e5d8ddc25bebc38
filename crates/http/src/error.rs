//! Error types shared across the HTTP stack.

use std::fmt;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by parsing, transport or client logic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The peer closed the connection before a full message was received.
    UnexpectedEof,
    /// The bytes on the wire are not valid HTTP/1.x.
    Malformed(&'static str),
    /// A message exceeded a configured size limit.
    TooLarge {
        /// Which part of the message overflowed ("head" or "body").
        what: &'static str,
        /// The configured limit in bytes.
        limit: usize,
    },
    /// The URL could not be parsed.
    InvalidUrl(&'static str),
    /// Establishing a connection failed (refused, unreachable, reset).
    Connect(String),
    /// The operation did not complete within the configured deadline.
    Timeout,
    /// Redirect chain exceeded the configured maximum.
    TooManyRedirects(usize),
    /// The transport does not support the requested scheme (e.g. plain TCP
    /// transport asked for HTTPS).
    SchemeUnsupported,
    /// An I/O error bubbled up from the underlying stream.
    Io(String),
}

/// What [`Error::Malformed`] says of a peer whose first bytes cannot
/// begin an HTTP message; [`Error::class`] sets it apart by this text.
pub(crate) const NOT_HTTP: &str = "not HTTP";

impl Error {
    /// Whether the failure is plausibly transient — a retry with
    /// backoff may succeed. Timeouts, peers dying mid-message and raw
    /// I/O failures qualify; protocol and addressing errors are
    /// terminal (retrying a refused connect or a malformed response
    /// reproduces the same failure).
    pub fn is_transient(&self) -> bool {
        matches!(self, Error::Timeout | Error::UnexpectedEof | Error::Io(_))
    }

    /// The closed set of names [`class`](Self::class) draws from.
    pub const CLASSES: [&'static str; 10] = [
        "refused",
        "not_http",
        "malformed",
        "eof",
        "timeout",
        "too_large",
        "redirect_loop",
        "scheme",
        "url",
        "io",
    ];

    /// Where this failure's class stands in [`CLASSES`](Self::CLASSES),
    /// for a caller that keeps one counter per class.
    pub fn class_index(&self) -> usize {
        match self {
            Error::Connect(_) => 0,
            Error::Malformed(NOT_HTTP) => 1,
            Error::Malformed(_) => 2,
            Error::UnexpectedEof => 3,
            Error::Timeout => 4,
            Error::TooLarge { .. } => 5,
            Error::TooManyRedirects(_) => 6,
            Error::SchemeUnsupported => 7,
            Error::InvalidUrl(_) => 8,
            Error::Io(_) => 9,
        }
    }

    /// A name from a small closed set, for counting failures by kind
    /// (`stage2.error.<class>`, `stage3.error.<class>`): the variant,
    /// except that a peer whose first bytes cannot begin an HTTP status
    /// line is `not_http` rather than one more `malformed` response.
    pub fn class(&self) -> &'static str {
        Self::CLASSES[self.class_index()]
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnexpectedEof => write!(f, "connection closed mid-message"),
            Error::Malformed(what) => write!(f, "malformed HTTP message: {what}"),
            Error::TooLarge { what, limit } => {
                write!(f, "HTTP {what} exceeds limit of {limit} bytes")
            }
            Error::InvalidUrl(what) => write!(f, "invalid URL: {what}"),
            Error::Connect(e) => write!(f, "connect failed: {e}"),
            Error::Timeout => write!(f, "operation timed out"),
            Error::TooManyRedirects(n) => write!(f, "more than {n} redirects"),
            Error::SchemeUnsupported => write!(f, "scheme not supported by transport"),
            Error::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof => Error::UnexpectedEof,
            // A socket read/write timeout surfaces as `WouldBlock` on
            // Unix and `TimedOut` on Windows.
            std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => Error::Timeout,
            _ => Error::Io(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        let e = Error::TooLarge {
            what: "body",
            limit: 42,
        };
        assert_eq!(e.to_string(), "HTTP body exceeds limit of 42 bytes");
        assert_eq!(Error::Timeout.to_string(), "operation timed out");
    }

    #[test]
    fn transient_classification_separates_retryable_from_terminal() {
        assert!(Error::Timeout.is_transient());
        assert!(Error::UnexpectedEof.is_transient());
        assert!(Error::Io("reset".into()).is_transient());
        assert!(!Error::Connect("refused".into()).is_transient());
        assert!(!Error::Malformed("bad status line").is_transient());
        assert!(!Error::SchemeUnsupported.is_transient());
        assert!(!Error::InvalidUrl("empty").is_transient());
        assert!(!Error::TooManyRedirects(5).is_transient());
        assert!(!Error::TooLarge {
            what: "body",
            limit: 1
        }
        .is_transient());
    }

    #[test]
    fn class_names_each_failure_and_sets_not_http_apart() {
        assert_eq!(Error::Connect("refused".into()).class(), "refused");
        assert_eq!(Error::Malformed("not HTTP").class(), "not_http");
        assert_eq!(Error::Malformed("bad status line").class(), "malformed");
        assert_eq!(Error::UnexpectedEof.class(), "eof");
        assert_eq!(Error::Timeout.class(), "timeout");
        let too_large = Error::TooLarge {
            what: "head",
            limit: 1,
        };
        assert_eq!(too_large.class(), "too_large");
        assert_eq!(Error::TooManyRedirects(5).class(), "redirect_loop");
        assert_eq!(Error::SchemeUnsupported.class(), "scheme");
        assert_eq!(Error::InvalidUrl("empty").class(), "url");
        assert_eq!(Error::Io("reset".into()).class(), "io");
    }

    #[test]
    fn io_error_conversion_maps_kinds() {
        let eof = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof");
        assert_eq!(Error::from(eof), Error::UnexpectedEof);
        let to = std::io::Error::new(std::io::ErrorKind::TimedOut, "slow");
        assert_eq!(Error::from(to), Error::Timeout);
        let blocked = std::io::Error::new(std::io::ErrorKind::WouldBlock, "read timeout");
        assert_eq!(Error::from(blocked), Error::Timeout);
        let other = std::io::Error::other("boom");
        assert!(matches!(Error::from(other), Error::Io(_)));
    }
}
