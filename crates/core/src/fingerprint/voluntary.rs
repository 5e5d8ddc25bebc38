//! Voluntary version disclosure.
//!
//! "We first try to extract the exact version number from the 13
//! applications where this information is usually voluntarily revealed,
//! e.g., Kubernetes has the /version API endpoint while Consul includes a
//! HTML comment."

use nokeys_apps::version::history;
use nokeys_apps::{AppId, Version};
use nokeys_http::{Client, Endpoint, Response, Scheme, Transport};

/// Parse a leading `major.minor[.patch]` from `s`. Slices the digit
/// prefix in place — `[0-9.]` is single-byte, so the byte position of
/// the first non-digit-non-dot is a char boundary — instead of the
/// `chars().take_while().collect()` copy this used to make per call.
pub fn parse_version_number(s: &str) -> Option<(u16, u16, u16)> {
    let s = s.trim_start();
    let end = s
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(s.len());
    let digits = &s[..end];
    // Every dot must separate two non-empty digit runs: "1.2." and
    // "1..2" are malformed strings (a trailing or doubled dot), not
    // versions with an implied zero component.
    if digits.split('.').any(|part| part.is_empty()) {
        return None;
    }
    let mut parts = digits.split('.');
    let major: u16 = parts.next()?.parse().ok()?;
    let minor: u16 = parts.next()?.parse().ok()?;
    let patch: u16 = match parts.next() {
        Some(p) => p.parse().ok()?,
        None => 0,
    };
    Some((major, minor, patch))
}

/// Resolve a parsed triple against the app's release history.
fn resolve(app: AppId, triple: (u16, u16, u16)) -> Option<Version> {
    history(app).iter().copied().find(|v| v.triple() == triple)
}

/// Extract the substring following `marker` up to `terminator`.
fn after<'a>(body: &'a str, marker: &str, terminator: char) -> Option<&'a str> {
    let start = body.find(marker)? + marker.len();
    let rest = &body[start..];
    let end = rest.find(terminator).unwrap_or(rest.len());
    Some(&rest[..end])
}

/// Fetch a page and hand back the whole response: the extraction arms
/// borrow its body in place with [`Response::body_str`] and parse the
/// version out of the borrowed slice — no body copy per probe.
fn fetch_response<T: Transport>(
    client: &Client<T>,
    ep: Endpoint,
    scheme: Scheme,
    path: &str,
) -> Option<Response> {
    Some(client.get_path(ep, scheme, path).ok()?.response)
}

/// Attempt voluntary version extraction for `app` at `ep`.
pub fn extract<T: Transport>(
    client: &Client<T>,
    app: AppId,
    ep: Endpoint,
    scheme: Scheme,
) -> Option<Version> {
    let triple = match app {
        AppId::Jenkins => {
            // `X-Jenkins` response header on every page, parsed out of
            // the borrowed header slice — no copy.
            let fetched = client.get_path(ep, scheme, "/").ok()?;
            parse_version_number(fetched.response.headers.get("x-jenkins")?)?
        }
        AppId::Kubernetes => {
            let resp = fetch_response(client, ep, scheme, "/version")?;
            let body = resp.body_str();
            parse_version_number(after(&body, "\"gitVersion\":\"v", '"')?)?
        }
        AppId::Consul => {
            let resp = fetch_response(client, ep, scheme, "/ui/")?;
            let body = resp.body_str();
            parse_version_number(after(&body, "CONSUL_VERSION: ", ' ')?)?
        }
        AppId::WordPress => {
            let resp = fetch_response(client, ep, scheme, "/")?;
            let body = resp.body_str();
            parse_version_number(after(&body, "content=\"WordPress ", '"')?)?
        }
        AppId::Grav => {
            let resp = fetch_response(client, ep, scheme, "/")?;
            let body = resp.body_str();
            parse_version_number(after(&body, "content=\"GravCMS ", '"')?)?
        }
        AppId::Zeppelin => {
            let resp = fetch_response(client, ep, scheme, "/api/version")?;
            let body = resp.body_str();
            parse_version_number(after(&body, "\"version\":\"", '"')?)?
        }
        AppId::Nomad => {
            // The UI shell's version meta works even with ACLs on.
            let resp = fetch_response(client, ep, scheme, "/ui/")?;
            let body = resp.body_str();
            parse_version_number(after(&body, "name=\"nomad-version\" content=\"", '"')?)?
        }
        AppId::Docker => {
            // Only open daemons answer /version.
            let resp = fetch_response(client, ep, scheme, "/version")?;
            let body = resp.body_str();
            parse_version_number(after(&body, "\"Version\":\"", '"')?)?
        }
        AppId::Hadoop => {
            let resp = fetch_response(client, ep, scheme, "/ws/v1/cluster/info")?;
            let body = resp.body_str();
            parse_version_number(after(&body, "\"hadoopVersion\":\"", '"')?)?
        }
        AppId::JupyterLab | AppId::JupyterNotebook => {
            // /api/status answers only without auth.
            let resp = fetch_response(client, ep, scheme, "/api/status")?;
            let body = resp.body_str();
            parse_version_number(after(&body, "\"version\":\"", '"')?)?
        }
        AppId::Polynote => {
            let resp = fetch_response(client, ep, scheme, "/")?;
            let body = resp.body_str();
            parse_version_number(after(&body, "name=\"polynote-config\" content=\"", '"')?)?
        }
        AppId::PhpMyAdmin => {
            let resp = fetch_response(client, ep, scheme, "/")?;
            let body = resp.body_str();
            parse_version_number(after(&body, "phpMyAdmin ", '<')?)?
        }
        AppId::Adminer => {
            let resp = fetch_response(client, ep, scheme, "/adminer.php")?;
            let body = resp.body_str();
            parse_version_number(after(&body, "- Adminer ", '<')?)?
        }
        // GoCD, Joomla, Drupal (major only), Ajenti and the out-of-scope
        // applications do not reveal a full version — knowledge base
        // territory.
        _ => return None,
    };
    resolve(app, triple)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugin::AppHandler;
    use nokeys_apps::{build_instance, release_history, AppConfig};
    use nokeys_http::memory::HandlerTransport;
    use std::net::Ipv4Addr;
    use std::sync::Arc;

    #[test]
    fn version_number_parsing() {
        assert_eq!(parse_version_number("1.21.3"), Some((1, 21, 3)));
        assert_eq!(parse_version_number("4.8"), Some((4, 8, 0)));
        assert_eq!(parse_version_number("2.0.0-rc1"), Some((2, 0, 0)));
        assert_eq!(parse_version_number("latest"), None);
        assert_eq!(parse_version_number(""), None);
        assert_eq!(parse_version_number("7"), None, "major alone is not enough");
        // Four-component versions (phpMyAdmin-style "4.9.0.1") keep
        // truncating to the leading triple.
        assert_eq!(parse_version_number("4.9.0.1"), Some((4, 9, 0)));
    }

    /// Regression: empty components used to slip through — `"1.2."`
    /// parsed as `(1, 2, 0)` because the absent-patch fallback also
    /// swallowed the *unparseable* trailing component.
    #[test]
    fn version_parsing_rejects_empty_components() {
        assert_eq!(parse_version_number("1.2."), None, "trailing dot");
        assert_eq!(parse_version_number("1..2"), None, "doubled dot");
        assert_eq!(parse_version_number("1.2..3"), None);
        assert_eq!(parse_version_number(".1.2"), None, "leading dot");
        assert_eq!(parse_version_number("1."), None);
        assert_eq!(parse_version_number("."), None);
        // The well-formed neighbours still parse.
        assert_eq!(parse_version_number("1.2"), Some((1, 2, 0)));
        assert_eq!(parse_version_number("1.2.3"), Some((1, 2, 3)));
        assert_eq!(parse_version_number("1.2.3-beta."), Some((1, 2, 3)));
    }

    fn serve(app: AppId, idx: usize, vulnerable: bool) -> (Client<HandlerTransport>, Endpoint) {
        let version = release_history(app)[idx];
        let cfg = if vulnerable {
            AppConfig::vulnerable_for(app, &version)
        } else {
            AppConfig::secure_for(app, &version)
        };
        let ep = Endpoint::new(Ipv4Addr::new(10, 4, 4, 4), app.scan_ports()[0]);
        let handler = Arc::new(AppHandler::new(build_instance(app, version, cfg)));
        (Client::new(HandlerTransport::new().with(ep, handler)), ep)
    }

    #[test]
    fn voluntary_apps_disclose_versions() {
        for app in [
            AppId::Jenkins,
            AppId::Kubernetes,
            AppId::Consul,
            AppId::WordPress,
            AppId::Grav,
            AppId::Zeppelin,
            AppId::Nomad,
            AppId::Hadoop,
            AppId::Polynote,
            AppId::Adminer,
        ] {
            let idx = release_history(app).len() - 1;
            // Hadoop/Docker/etc. disclose when open; use vulnerable
            // configs where disclosure needs it.
            let vulnerable = matches!(app, AppId::Hadoop | AppId::Polynote);
            let (client, ep) = serve(app, idx, vulnerable);
            let v = extract(&client, app, ep, Scheme::Http);
            assert_eq!(
                v.map(|v| v.triple()),
                Some(release_history(app)[idx].triple()),
                "{app}"
            );
        }
    }

    #[test]
    fn docker_disclosure_requires_open_daemon() {
        let idx = release_history(AppId::Docker).len() - 1;
        let (client, ep) = serve(AppId::Docker, idx, true);
        assert!(extract(&client, AppId::Docker, ep, Scheme::Http).is_some());
        let (client, ep) = serve(AppId::Docker, idx, false);
        assert!(extract(&client, AppId::Docker, ep, Scheme::Http).is_none());
    }

    #[test]
    fn gocd_has_no_voluntary_disclosure() {
        let (client, ep) = serve(AppId::Gocd, 0, false);
        assert!(extract(&client, AppId::Gocd, ep, Scheme::Http).is_none());
    }
}
