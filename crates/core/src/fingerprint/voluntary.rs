//! Stage IV, voluntary version disclosure.
//!
//! "We first try to extract the exact version number from the 13
//! applications where this information is usually voluntarily revealed,
//! e.g., Kubernetes has the /version API endpoint while Consul includes a
//! HTML comment."
//!
//! `DISCLOSURES` has one row per application that reveals its version:
//! the one page to `GET` and where the version sits in the answer.
//! `extract` is the table's one reader and the only code that issues
//! stage-IV disclosure requests. GoCD, Joomla, Drupal (major only),
//! Ajenti and the out-of-scope applications have no row: they do not
//! reveal a full version, so the knowledge-base crawl identifies them.
//! The table has 14 rows where the quote says 13; DESIGN.md §15 records
//! the gap.

use nokeys_apps::version::history;
use nokeys_apps::{AppId, Version};
use nokeys_http::{Client, Endpoint, Scheme, Transport};
use Read::{After, Header};

/// Where a disclosed version string sits in the answer.
enum Read {
    /// The value of a response header.
    Header(&'static str),
    /// The body text after a marker, up to a terminator or the end.
    After(&'static str, char),
}

/// One application's disclosure: a `GET` of `path`, then `read`.
struct Disclosure {
    app: AppId,
    path: &'static str,
    read: Read,
}

/// Stage IV's voluntary disclosures, one row per application.
#[rustfmt::skip]
static DISCLOSURES: [Disclosure; 14] = [
    // The `X-Jenkins` response header is on every page.
    Disclosure { app: AppId::Jenkins, path: "/", read: Header("x-jenkins") },
    Disclosure { app: AppId::Kubernetes, path: "/version", read: After("\"gitVersion\":\"v", '"') },
    Disclosure { app: AppId::Consul, path: "/ui/", read: After("CONSUL_VERSION: ", ' ') },
    Disclosure { app: AppId::WordPress, path: "/", read: After("content=\"WordPress ", '"') },
    Disclosure { app: AppId::Grav, path: "/", read: After("content=\"GravCMS ", '"') },
    Disclosure { app: AppId::Zeppelin, path: "/api/version", read: After("\"version\":\"", '"') },
    // The UI shell's version meta works even with ACLs on.
    Disclosure { app: AppId::Nomad, path: "/ui/", read: After("name=\"nomad-version\" content=\"", '"') },
    // Only open daemons answer /version.
    Disclosure { app: AppId::Docker, path: "/version", read: After("\"Version\":\"", '"') },
    Disclosure { app: AppId::Hadoop, path: "/ws/v1/cluster/info", read: After("\"hadoopVersion\":\"", '"') },
    // /api/status answers only without auth.
    Disclosure { app: AppId::JupyterLab, path: "/api/status", read: After("\"version\":\"", '"') },
    Disclosure { app: AppId::JupyterNotebook, path: "/api/status", read: After("\"version\":\"", '"') },
    Disclosure { app: AppId::Polynote, path: "/", read: After("name=\"polynote-config\" content=\"", '"') },
    Disclosure { app: AppId::PhpMyAdmin, path: "/", read: After("phpMyAdmin ", '<') },
    Disclosure { app: AppId::Adminer, path: "/adminer.php", read: After("- Adminer ", '<') },
];

/// Parse a leading `major.minor[.patch]` from `s`. Slices the digit
/// prefix in place — `[0-9.]` is single-byte, so the byte position of
/// the first non-digit-non-dot is a char boundary.
fn parse_version_number(s: &str) -> Option<(u16, u16, u16)> {
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

/// Extract the substring following `marker` up to `terminator`.
fn after<'a>(body: &'a str, marker: &str, terminator: char) -> Option<&'a str> {
    let start = body.find(marker)? + marker.len();
    let rest = &body[start..];
    let end = rest.find(terminator).unwrap_or(rest.len());
    Some(&rest[..end])
}

/// The version `app` discloses at `ep`, if it has a `DISCLOSURES` row
/// and the answer carries a release of its history.
pub(super) fn extract<T: Transport>(
    client: &Client<T>,
    app: AppId,
    ep: Endpoint,
    scheme: Scheme,
) -> Option<Version> {
    let row = DISCLOSURES.iter().find(|row| row.app == app)?;
    let response = client.get_path(ep, scheme, row.path).ok()?.response;
    let triple = match row.read {
        Header(name) => parse_version_number(response.headers.get(name)?)?,
        After(marker, terminator) => {
            parse_version_number(after(&response.body_str(), marker, terminator)?)?
        }
    };
    history(app).iter().copied().find(|v| v.triple() == triple)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::Fingerprinter;
    use crate::plugin::AppHandler;
    use crate::report::FingerprintMethod;
    use crate::scratch::Scratch;
    use crate::telemetry::Telemetry;
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

    /// Applications that disclose their version only when the instance
    /// is open.
    const OPEN_ONLY: [AppId; 5] = [
        AppId::Docker,
        AppId::Hadoop,
        AppId::JupyterLab,
        AppId::JupyterNotebook,
        AppId::PhpMyAdmin,
    ];

    /// Every `DISCLOSURES` row, held to its application model at every
    /// release: an open instance discloses exactly that release, and so
    /// does a secured one unless only open instances answer. GoCD,
    /// Joomla, Drupal and Ajenti have no row and disclose nothing.
    #[test]
    fn every_row_discloses_every_release() {
        let silent = [AppId::Gocd, AppId::Joomla, AppId::Drupal, AppId::Ajenti];
        assert_eq!(DISCLOSURES.len() + silent.len(), AppId::in_scope().count());
        let fingerprinter = Fingerprinter::with_telemetry(&Telemetry::new());
        let mut scratch = Scratch::new();
        for app in AppId::in_scope() {
            let has_row = DISCLOSURES.iter().any(|row| row.app == app);
            assert_ne!(has_row, silent.contains(&app), "{app}");
            for (idx, &release) in release_history(app).iter().enumerate() {
                let (client, ep) = serve(app, idx, true);
                if has_row {
                    assert_eq!(
                        fingerprinter.fingerprint_with(
                            &client,
                            app,
                            ep,
                            Scheme::Http,
                            &mut scratch
                        ),
                        Some((release, FingerprintMethod::Voluntary)),
                        "{app} {release}"
                    );
                } else {
                    assert_eq!(extract(&client, app, ep, Scheme::Http), None, "{app}");
                }
                let (client, ep) = serve(app, idx, false);
                let secured = has_row && !OPEN_ONLY.contains(&app);
                assert_eq!(
                    extract(&client, app, ep, Scheme::Http),
                    secured.then_some(release),
                    "{app} {release}, secured"
                );
            }
        }
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
