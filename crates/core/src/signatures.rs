//! The prefilter signature set: 90 hand-crafted patterns, five per
//! in-scope application (Section 3.1, Stage II).
//!
//! A signature matching a response body marks the host as *running* the
//! application (whether or not it is vulnerable — that is Stage III's
//! job). Five signatures per product cover different page variants
//! (dashboards, login walls, installers, API error envelopes) across the
//! supported version range.

use crate::pattern::{Pattern, PreparedBody};
use nokeys_apps::AppId;

/// A prefilter signature.
#[derive(Debug, Clone)]
pub struct Signature {
    pub app: AppId,
    pub pattern: Pattern,
}

/// The full signature set (90 signatures, 5 × 18 applications).
pub fn all_signatures() -> Vec<Signature> {
    let mut out = Vec::with_capacity(90);
    let mut add = |app: AppId, patterns: [Pattern; 5]| {
        out.extend(
            patterns
                .into_iter()
                .map(|pattern| Signature { app, pattern }),
        );
    };

    add(
        AppId::Jenkins,
        [
            Pattern::exact("Dashboard [Jenkins]"),
            Pattern::exact("Jenkins ver."),
            Pattern::exact("jenkins-head-icon"),
            Pattern::exact("hudson.model"),
            Pattern::exact("Sign in - Jenkins"),
        ],
    );
    add(
        AppId::Gocd,
        [
            Pattern::exact("Create a pipeline - Go"),
            Pattern::exact("pipelines-page"),
            Pattern::exact("/go/admin/pipelines"),
            Pattern::exact("cruise gocd"),
            Pattern::exact("Sign in - GoCD"),
        ],
    );
    add(
        AppId::WordPress,
        [
            Pattern::exact("wp-json"),
            Pattern::exact("wp-content"),
            Pattern::exact("wp-includes"),
            Pattern::exact("content=\"WordPress"),
            Pattern::exact("WordPress &rsaquo;"),
        ],
    );
    add(
        AppId::Grav,
        [
            Pattern::exact("Powered by Grav"),
            Pattern::exact("getgrav.org"),
            Pattern::exact("grav-core"),
            Pattern::exact("content=\"GravCMS"),
            Pattern::exact("/user/themes/"),
        ],
    );
    add(
        AppId::Joomla,
        [
            Pattern::exact("Joomla! - Open Source Content Management"),
            Pattern::exact("/media/jui/"),
            Pattern::exact("joomla-script-options"),
            Pattern::exact("Joomla! Web Installer"),
            Pattern::exact("/templates/protostar/"),
        ],
    );
    add(
        AppId::Drupal,
        [
            Pattern::exact("Drupal.settings"),
            Pattern::exact("data-drupal"),
            Pattern::exact("/sites/default/files"),
            Pattern::exact("drupal.js"),
            Pattern::exact("content=\"Drupal"),
        ],
    );
    add(
        AppId::Kubernetes,
        [
            Pattern::exact("certificates.k8s.io"),
            Pattern::exact("healthz/ping"),
            Pattern::exact("system:anonymous"),
            Pattern::nospace("\"kind\":\"Status\""),
            Pattern::exact("k8s.io"),
        ],
    );
    add(
        AppId::Docker,
        [
            Pattern::exact("{\"message\":\"page not found\"}"),
            Pattern::exact("Client sent an HTTP request to an HTTPS server"),
            Pattern::nocase("minapiversion"),
            Pattern::nocase("kernelversion"),
            Pattern::exact("No such container"),
        ],
    );
    add(
        AppId::Consul,
        [
            Pattern::exact("Consul by HashiCorp"),
            Pattern::exact("CONSUL_VERSION:"),
            Pattern::exact("consul-ui"),
            Pattern::exact("data-consul"),
            Pattern::exact("\"Datacenter\""),
        ],
    );
    add(
        AppId::Hadoop,
        [
            Pattern::exact("/static/yarn.css"),
            Pattern::exact("Apache Hadoop"),
            Pattern::nocase("resourcemanager"),
            Pattern::nocase("logged in as: dr.who"),
            Pattern::exact("hadoopVersion"),
        ],
    );
    add(
        AppId::Nomad,
        [
            Pattern::exact("<title>Nomad</title>"),
            Pattern::exact("nomad-ui"),
            Pattern::exact("data-nomad"),
            Pattern::exact("nomad-version"),
            Pattern::exact("/ui/assets/nomad"),
        ],
    );
    add(
        AppId::JupyterLab,
        [
            Pattern::exact("JupyterLab"),
            Pattern::exact("/lab/static/"),
            Pattern::exact("@jupyterlab"),
            Pattern::exact("jupyterlab-session"),
            Pattern::exact("data-app=\"@jupyterlab"),
        ],
    );
    add(
        AppId::JupyterNotebook,
        [
            Pattern::exact("Jupyter Notebook"),
            Pattern::exact("/static/notebook/"),
            Pattern::exact("nbextensions"),
            Pattern::exact("ipython"),
            Pattern::exact("data-app=\"notebook\""),
        ],
    );
    add(
        AppId::Zeppelin,
        [
            Pattern::exact("Apache Zeppelin"),
            Pattern::exact("zeppelinWebApp"),
            Pattern::exact("zeppelin-web"),
            Pattern::exact("/app/home/home.html"),
            Pattern::exact("\"message\":\"Zeppelin version\""),
        ],
    );
    add(
        AppId::Polynote,
        [
            Pattern::exact("<title>Polynote</title>"),
            Pattern::exact("polynote-config"),
            Pattern::exact("data-polynote"),
            Pattern::exact("id=\"Main\" data-polynote"),
            Pattern::exact(">polynote<"),
        ],
    );
    add(
        AppId::Ajenti,
        [
            Pattern::exact("Sign in - Ajenti"),
            Pattern::exact("ajentiPlatformUnmapped"),
            Pattern::exact("customization.plugins.core.title"),
            Pattern::exact("angular.module('ajenti"),
            Pattern::exact("Ajenti control panel"),
        ],
    );
    add(
        AppId::PhpMyAdmin,
        [
            Pattern::exact("phpMyAdmin"),
            Pattern::exact("phpmyadmin.css.php"),
            Pattern::exact("PMA_commonParams"),
            Pattern::exact("pma_login"),
            Pattern::exact("pmahomme"),
        ],
    );
    add(
        AppId::Adminer,
        [
            Pattern::exact("Login - Adminer"),
            Pattern::exact("adminer.org"),
            Pattern::exact("adminer.css"),
            Pattern::exact("- Adminer 4"),
            Pattern::exact("name=\"auth[driver]\""),
        ],
    );
    out
}

/// Run all signatures against `body`, returning the distinct candidate
/// applications ordered by match strength (number of matching
/// signatures, strongest first; ties in catalog order). The pipeline
/// attributes an endpoint to `candidates[0]` unless a plugin confirms a
/// weaker candidate.
///
/// The 90-search linear scan: no production path calls it. It stays
/// `pub` as the reference twin of
/// [`MultiPattern::match_candidates`](crate::multipattern::MultiPattern::match_candidates),
/// which the benchmark (`benchmark/src/program.rs`) and the equivalence
/// tests hold the automaton against.
pub fn match_candidates(signatures: &[Signature], body: &PreparedBody) -> Vec<AppId> {
    rank_candidates(match_counts(signatures, body))
}

/// Order per-application match counts by strength (strongest first, ties
/// in catalog order). Shared by the linear scan above and the
/// single-pass [`MultiPattern`](crate::multipattern::MultiPattern)
/// matcher so both rank identically.
pub fn rank_candidates(mut by_strength: Vec<(AppId, u32)>) -> Vec<AppId> {
    by_strength.sort_by_key(|(app, count)| (std::cmp::Reverse(*count), *app));
    by_strength.into_iter().map(|(app, _)| app).collect()
}

/// The number of matching signatures per candidate application. Like
/// [`match_candidates`], the reference twin of
/// [`MultiPattern::match_counts`](crate::multipattern::MultiPattern::match_counts)
/// and nothing else.
pub fn match_counts(signatures: &[Signature], body: &PreparedBody) -> Vec<(AppId, u32)> {
    let mut counts: std::collections::BTreeMap<AppId, u32> = Default::default();
    for s in signatures.iter().filter(|s| s.pattern.matches(body)) {
        *counts.entry(s.app).or_default() += 1;
    }
    counts.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nokeys_apps::traits::{Driver, WebApp};
    use nokeys_apps::{build_instance, release_history, AppConfig};
    const DRIVER: Driver = Driver::new();

    #[test]
    fn exactly_ninety_signatures_five_per_app() {
        let sigs = all_signatures();
        assert_eq!(sigs.len(), 90);
        for app in AppId::in_scope() {
            assert_eq!(sigs.iter().filter(|s| s.app == app).count(), 5, "{app}");
        }
    }

    /// Follow the app's own redirects (as the prefilter client would) and
    /// return the first real body.
    fn root_body(app: &mut dyn WebApp) -> String {
        let mut path = "/".to_string();
        for _ in 0..5 {
            let out = DRIVER.get(app, &path);
            if let Some(loc) = out.response.location() {
                path = loc.to_string();
                continue;
            }
            return out.response.body_text();
        }
        panic!("redirect loop");
    }

    #[test]
    fn signatures_identify_every_app_in_both_states() {
        let sigs = all_signatures();
        for app in AppId::in_scope() {
            let history = release_history(app);
            for (vulnerable, version) in [(true, history[0]), (false, *history.last().unwrap())] {
                let cfg = if vulnerable {
                    AppConfig::vulnerable_for(app, &version)
                } else {
                    AppConfig::secure_for(app, &version)
                };
                let mut inst = build_instance(app, version, cfg);
                let body = root_body(inst.as_mut());
                let candidates = match_candidates(&sigs, &PreparedBody::new(body.clone()));
                assert!(
                    candidates.contains(&app),
                    "{app} (vulnerable={vulnerable}) not identified; body: {body}"
                );
            }
        }
    }

    #[test]
    fn background_noise_matches_nothing() {
        use nokeys_apps::background::BackgroundKind;
        let sigs = all_signatures();
        for kind in BackgroundKind::ALL {
            if !kind.speaks_http() {
                continue;
            }
            let body = kind
                .handle(
                    &nokeys_http::Request::get("/"),
                    std::net::Ipv4Addr::LOCALHOST,
                )
                .body_text();
            let candidates = match_candidates(&sigs, &PreparedBody::new(body.clone()));
            assert!(
                candidates.is_empty(),
                "{kind:?} matched {candidates:?}: {body}"
            );
        }
    }

    #[test]
    fn cross_app_false_positives_are_rare_and_known() {
        // A WordPress body must not look like Jenkins, etc. Jupyter Lab
        // and Notebook share infrastructure, so a one-directional overlap
        // is tolerated there — the stage III plugins disambiguate.
        let sigs = all_signatures();
        for app in AppId::in_scope() {
            let history = release_history(app);
            let version = *history.last().unwrap();
            let mut inst = build_instance(app, version, AppConfig::secure_for(app, &version));
            let body = root_body(inst.as_mut());
            let candidates = match_candidates(&sigs, &PreparedBody::new(body));
            for c in &candidates {
                let related = matches!(
                    (app, c),
                    (AppId::JupyterLab, AppId::JupyterNotebook)
                        | (AppId::JupyterNotebook, AppId::JupyterLab)
                );
                assert!(*c == app || related, "{app} body misidentified as {c}");
            }
        }
    }
}
