//! HTTP protocol version.
//!
//! The stack only speaks HTTP/1.0 and HTTP/1.1 (the parser rejects
//! anything else), but the distinction matters for connection lifecycle:
//! an HTTP/1.0 peer defaults to one-message-per-connection unless it
//! opts into `Connection: keep-alive`, while HTTP/1.1 defaults to
//! persistent connections unless a `Connection: close` token appears.

/// The protocol version a message was framed with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Version {
    Http10,
    Http11,
}

impl Default for Version {
    /// Messages built in code (as opposed to parsed off the wire) are
    /// HTTP/1.1 — the only version the encoder emits.
    fn default() -> Self {
        Version::Http11
    }
}

impl Version {
    /// The wire spelling, e.g. `HTTP/1.1`.
    pub fn as_str(self) -> &'static str {
        match self {
            Version::Http10 => "HTTP/1.0",
            Version::Http11 => "HTTP/1.1",
        }
    }
}

impl std::fmt::Display for Version {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Version {
    type Err = ();

    fn from_str(s: &str) -> std::result::Result<Self, ()> {
        match s {
            "HTTP/1.0" => Ok(Version::Http10),
            "HTTP/1.1" => Ok(Version::Http11),
            _ => Err(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_http11() {
        assert_eq!(Version::default(), Version::Http11);
    }

    #[test]
    fn wire_spelling_round_trips() {
        for v in [Version::Http10, Version::Http11] {
            assert_eq!(v.as_str().parse::<Version>(), Ok(v));
        }
        assert_eq!("HTTP/2".parse::<Version>(), Err(()));
        assert_eq!(Version::Http10.to_string(), "HTTP/1.0");
    }
}
