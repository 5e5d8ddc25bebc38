//! The prefilter signature set: 90 hand-crafted patterns, five per
//! in-scope application (Section 3.1, Stage II).
//!
//! A signature matching a response body marks the host as *running* the
//! application (whether or not it is vulnerable — that is Stage III's
//! job). Five signatures per product cover different page variants
//! (dashboards, login walls, installers, API error envelopes) across the
//! supported version range.

use crate::pattern::{Pattern, PreparedBody};
use nokeys_apps::catalog::CATALOG;
use nokeys_apps::AppId;
use std::cmp::Reverse;

/// A prefilter signature.
#[derive(Debug, Clone)]
pub struct Signature {
    pub app: AppId,
    pub pattern: Pattern,
}

/// The signatures a body matched, as a set of catalog indices: bit
/// `i % 64` of word `i / 64` is signature `i`. This is the one form a
/// stage-II result takes from the walk that sets the bits
/// ([`MultiPattern`](crate::multipattern::MultiPattern)) to the tally
/// and the telemetry that read them — two words for the 90-signature
/// catalog, so the body that matches nothing, which is nearly every
/// body, costs two loads to dismiss.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Hits {
    words: Vec<u64>,
}

impl Hits {
    /// The empty set over a catalog of `signatures`.
    pub fn new(signatures: usize) -> Self {
        Hits {
            words: vec![0; signatures.div_ceil(u64::BITS as usize)],
        }
    }

    /// Empty the set and size it for a catalog of `signatures`. A set
    /// that is reused grows once, under the first catalog it meets.
    pub(crate) fn reset(&mut self, signatures: usize) {
        self.words.clear();
        self.words
            .resize(signatures.div_ceil(u64::BITS as usize), 0);
    }

    /// Whether signature `index` matched; an index past the catalog did
    /// not.
    pub fn contains(&self, index: usize) -> bool {
        let word = self.words.get(index / 64);
        word.is_some_and(|word| word >> (index % 64) & 1 != 0)
    }

    pub(crate) fn insert(&mut self, index: usize) {
        self.words[index / 64] |= 1 << (index % 64);
    }

    /// The matching signatures' indices, ascending. A zero word is
    /// passed over whole.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(at, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    at * 64 + bit
                })
            })
        })
    }
}

/// Matching signatures per application, held inline: one tally for each
/// of the catalog's applications, at `app as usize`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppCounts {
    tally: [u32; CATALOG.len()],
}

impl AppCounts {
    /// Count one more matching signature of `app`.
    pub(crate) fn add(&mut self, app: AppId) {
        self.tally[app as usize] += 1;
    }

    /// `(application, matching signatures)` for every application that
    /// matched, ascending by application — what [`match_counts`] returns
    /// for the same body.
    pub fn iter(&self) -> impl Iterator<Item = (AppId, u32)> + '_ {
        let matched = APPS.iter().zip(&self.tally).filter(|(_, &n)| n != 0);
        matched.map(|(&app, &n)| (app, n))
    }
}

/// The application at each index of a tally: `CATALOG`'s ids, packed, so
/// that reading a tally does not walk the catalog's entries.
const APPS: [AppId; CATALOG.len()] = {
    let mut apps = [AppId::Gitlab; CATALOG.len()];
    let mut i = 0;
    while i < apps.len() {
        apps[i] = CATALOG[i].id;
        i += 1;
    }
    apps
};

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
/// tests hold the automaton against; it shares the ranking rule with
/// [`rank_candidates`] and nothing else.
pub fn match_candidates(signatures: &[Signature], body: &PreparedBody) -> Vec<AppId> {
    let mut counts = match_counts(signatures, body);
    counts.sort_by_key(by_strength);
    counts.into_iter().map(|(app, _)| app).collect()
}

/// The ranking rule: strongest first, ties in catalog order.
fn by_strength(&(app, count): &(AppId, u32)) -> (Reverse<u32>, AppId) {
    (Reverse(count), app)
}

/// Order per-application match counts by strength (strongest first, ties
/// in catalog order). A body that matched nothing allocates nothing; one
/// that matched pays for the list that is sorted and for the returned
/// one.
pub fn rank_candidates(counts: AppCounts) -> Vec<AppId> {
    let mut ranked: Vec<(AppId, u32)> = counts.iter().collect();
    ranked.sort_by_key(by_strength);
    ranked.into_iter().map(|(app, _)| app).collect()
}

/// The number of matching signatures per candidate application,
/// ascending by application. Like [`match_candidates`], the reference
/// twin of
/// [`MultiPattern::counts_from_matched`](crate::multipattern::MultiPattern::counts_from_matched)
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
