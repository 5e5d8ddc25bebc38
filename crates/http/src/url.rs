//! A small URL type sufficient for scan targets and redirect resolution.

use crate::error::{Error, Result};
use crate::transport::Scheme;
use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// Host component of a URL: scanning works on raw IPv4 addresses, but
/// redirects and certificate names can introduce DNS names.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Host {
    Ip(Ipv4Addr),
    Name(String),
}

impl fmt::Display for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Host::Ip(ip) => write!(f, "{ip}"),
            Host::Name(n) => f.write_str(n),
        }
    }
}

/// An absolute `http`/`https` URL.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Url {
    pub scheme: Scheme,
    pub host: Host,
    pub port: u16,
    /// Path including the leading `/`, plus query string if any.
    pub path: String,
}

impl Url {
    /// Build a URL directly from scan-pipeline components.
    pub fn new(scheme: Scheme, host: Host, port: u16, path: impl Into<String>) -> Self {
        let mut path = path.into();
        if path.is_empty() {
            path.push('/');
        }
        Url {
            scheme,
            host,
            port,
            path,
        }
    }

    /// Convenience constructor for an IPv4 target.
    pub fn for_ip(scheme: Scheme, ip: Ipv4Addr, port: u16, path: &str) -> Self {
        Url::new(scheme, Host::Ip(ip), port, path)
    }

    /// Parse an absolute URL. Only `http` and `https` schemes are accepted.
    pub fn parse(s: &str) -> Result<Self> {
        let (scheme, rest) = if let Some(rest) = s.strip_prefix("http://") {
            (Scheme::Http, rest)
        } else if let Some(rest) = s.strip_prefix("https://") {
            (Scheme::Https, rest)
        } else {
            return Err(Error::InvalidUrl("unsupported or missing scheme"));
        };

        let (authority, path) = match rest.find('/') {
            Some(idx) => (&rest[..idx], &rest[idx..]),
            None => (rest, "/"),
        };
        if authority.is_empty() {
            return Err(Error::InvalidUrl("empty authority"));
        }

        let (host_str, port) = match authority.rsplit_once(':') {
            Some((h, p)) => {
                let port: u16 = p.parse().map_err(|_| Error::InvalidUrl("bad port"))?;
                (h, Some(port))
            }
            None => (authority, None),
        };
        if host_str.is_empty() {
            return Err(Error::InvalidUrl("empty host"));
        }

        let host = match Ipv4Addr::from_str(host_str) {
            Ok(ip) => Host::Ip(ip),
            Err(_) => {
                if !host_str
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '.' | '_'))
                {
                    return Err(Error::InvalidUrl("invalid host characters"));
                }
                Host::Name(host_str.to_string())
            }
        };

        Ok(Url {
            scheme,
            host,
            port: port.unwrap_or_else(|| scheme.default_port()),
            path: path.to_string(),
        })
    }

    /// Resolve a redirect `Location` value against this URL.
    ///
    /// Handles absolute URLs, scheme-relative (`//host/..`), absolute paths
    /// and relative paths — all four appear in real redirect chains.
    pub fn join(&self, location: &str) -> Result<Url> {
        if location.starts_with("http://") || location.starts_with("https://") {
            return Url::parse(location);
        }
        if let Some(rest) = location.strip_prefix("//") {
            return Url::parse(&format!("{}://{}", self.scheme.as_str(), rest));
        }
        let mut out = self.clone();
        if location.starts_with('/') {
            out.path = location.to_string();
        } else {
            // Relative path: replace everything after the final `/`.
            let base = match self.path_only().rfind('/') {
                Some(idx) => &self.path_only()[..=idx],
                None => "/",
            };
            out.path = format!("{base}{location}");
        }
        Ok(out)
    }

    /// The path without any query string.
    pub fn path_only(&self) -> &str {
        match self.path.find('?') {
            Some(idx) => &self.path[..idx],
            None => &self.path,
        }
    }

    /// The query string (without `?`), if any.
    pub fn query(&self) -> Option<&str> {
        self.path.find('?').map(|idx| &self.path[idx + 1..])
    }

    /// Whether the port is the default for the scheme (affects `Host`
    /// header serialization).
    pub fn is_default_port(&self) -> bool {
        self.port == self.scheme.default_port()
    }

    /// Value for the `Host` request header.
    pub fn host_header(&self) -> String {
        if self.is_default_port() {
            self.host.to_string()
        } else {
            format!("{}:{}", self.host, self.port)
        }
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}://{}{}",
            self.scheme.as_str(),
            self.host_header(),
            self.path
        )
    }
}

impl FromStr for Url {
    type Err = Error;
    fn from_str(s: &str) -> Result<Self> {
        Url::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_ip_url_with_port_and_query() {
        let u = Url::parse("http://10.0.0.1:8080/wp-admin/install.php?step=1").unwrap();
        assert_eq!(u.scheme, Scheme::Http);
        assert_eq!(u.host, Host::Ip(Ipv4Addr::new(10, 0, 0, 1)));
        assert_eq!(u.port, 8080);
        assert_eq!(u.path_only(), "/wp-admin/install.php");
        assert_eq!(u.query(), Some("step=1"));
    }

    #[test]
    fn default_ports_fill_in() {
        assert_eq!(Url::parse("http://example.org").unwrap().port, 80);
        assert_eq!(Url::parse("https://example.org/x").unwrap().port, 443);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Url::parse("ftp://x").is_err());
        assert!(Url::parse("http://").is_err());
        assert!(Url::parse("http://:80/").is_err());
        assert!(Url::parse("http://ex ample/").is_err());
        assert!(Url::parse("http://h:70000/").is_err());
    }

    #[test]
    fn join_absolute_and_relative() {
        let base = Url::parse("http://1.2.3.4:8080/a/b?q=1").unwrap();
        assert_eq!(
            base.join("https://other/login").unwrap().to_string(),
            "https://other/login"
        );
        assert_eq!(
            base.join("/root").unwrap().to_string(),
            "http://1.2.3.4:8080/root"
        );
        assert_eq!(base.join("c.html").unwrap().path, "/a/c.html");
        assert_eq!(
            base.join("//mirror/x").unwrap().to_string(),
            "http://mirror/x"
        );
    }

    #[test]
    fn display_omits_default_port() {
        assert_eq!(
            Url::parse("http://5.6.7.8:80/x").unwrap().to_string(),
            "http://5.6.7.8/x"
        );
        assert_eq!(
            Url::parse("http://5.6.7.8:81/x").unwrap().to_string(),
            "http://5.6.7.8:81/x"
        );
    }

    #[test]
    fn empty_path_normalizes_to_slash() {
        let u = Url::new(Scheme::Http, Host::Name("h".into()), 80, "");
        assert_eq!(u.path, "/");
    }
}
