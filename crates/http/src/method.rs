//! HTTP request methods.

use std::fmt;
use std::str::FromStr;

/// The subset of HTTP methods the study needs.
///
/// The paper's scanner is restricted to non-state-changing `GET` requests
/// (plus `HEAD` for cheap liveness checks); the honeypot side additionally
/// observes attacker `POST`/`PUT`/`DELETE` traffic, so the full common set
/// is modeled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    Get,
    Head,
    Post,
    Put,
    Delete,
    Options,
    Patch,
}

impl Method {
    /// Canonical wire representation.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Head => "HEAD",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
            Method::Options => "OPTIONS",
            Method::Patch => "PATCH",
        }
    }

    /// Whether the method is safe in the RFC 7231 sense (no server state
    /// change). The scanner only ever issues safe methods, matching the
    /// paper's ethical constraints.
    pub fn is_safe(self) -> bool {
        matches!(self, Method::Get | Method::Head | Method::Options)
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Method {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s {
            "GET" => Method::Get,
            "HEAD" => Method::Head,
            "POST" => Method::Post,
            "PUT" => Method::Put,
            "DELETE" => Method::Delete,
            "OPTIONS" => Method::Options,
            "PATCH" => Method::Patch,
            _ => return Err(()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_strings() {
        for m in [
            Method::Get,
            Method::Head,
            Method::Post,
            Method::Put,
            Method::Delete,
            Method::Options,
            Method::Patch,
        ] {
            assert_eq!(m.as_str().parse::<Method>(), Ok(m));
        }
    }

    #[test]
    fn rejects_unknown_and_lowercase() {
        assert!("TRACE".parse::<Method>().is_err());
        assert!("get".parse::<Method>().is_err());
    }

    #[test]
    fn safety_classification() {
        assert!(Method::Get.is_safe());
        assert!(Method::Head.is_safe());
        assert!(!Method::Post.is_safe());
        assert!(!Method::Delete.is_safe());
    }
}
