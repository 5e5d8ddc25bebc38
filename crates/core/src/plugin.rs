//! Stage III: MAV verification, as the paper's Appendix Table 10.
//!
//! `PLUGINS` has one row per in-scope application. A row is one or
//! more alternatives, each a list of `Step`s, and every step carries
//! its Table 10 sentence verbatim next to what it does: an optional
//! `GET` and the checks run on the page it fetched. `verify` is the
//! one interpreter of the table and the only code that issues stage-III
//! requests. A step has no method field, so "non-state-changing `GET`
//! requests only" is a property of the type: the scanner infers a MAV
//! from the presence of the vulnerable functionality without exercising
//! it. `repro table10` prints the same sentences through
//! [`plugin_steps`], and the tests hold every path, marker, selector and
//! JSON key of a row to the quotes in its sentences.

use crate::htmlcheck::{has_element, is_valid_html};
use crate::json::Value;
use crate::pattern::Pattern;
use nokeys_apps::{AppId, WebApp};
use nokeys_http::server::Handler;
use nokeys_http::{Client, Endpoint, Error, Request, Response, Scheme, Transport};
use std::cell::OnceCell;
use std::net::Ipv4Addr;
use std::sync::Mutex;
use Check::{All, AnyOf, Element, Json, JsonEither, JsonKey, JsonNonEmpty, ValidHtml};

/// One application's plugin: alternatives tried in order until one
/// confirms a MAV.
pub(crate) struct Plugin {
    app: AppId,
    alternatives: &'static [&'static [Step]],
}

/// One step of Table 10: its sentence, and what it does.
pub(crate) struct Step {
    /// The Table 10 sentence, verbatim.
    text: &'static str,
    /// The page to fetch; without one, the checks read the page the last
    /// `GET` of the alternative fetched.
    get: Option<Get>,
    /// Checks that must all hold on the page.
    checks: &'static [Check],
}

/// A `GET` of one path.
#[derive(Clone, Copy)]
pub(crate) struct Get {
    path: &'static str,
    /// Whether the page is still checked after a non-2xx final answer
    /// (when false, such an answer fails the step).
    any_status: bool,
}

/// A check on a fetched page.
#[derive(Debug)]
pub(crate) enum Check {
    /// Every marker matches.
    All(&'static [Pattern]),
    /// Every marker of at least one group matches.
    AnyOf(&'static [&'static [Pattern]]),
    /// The body is an HTML document ([`is_valid_html`]).
    ValidHtml,
    /// An element matches a `tag#id` selector ([`has_element`]).
    Element(&'static str),
    /// The body parses as JSON.
    Json,
    /// The JSON has a value at a dotted key path.
    JsonKey(&'static str),
    /// The JSON has a non-empty array at a dotted key path.
    JsonNonEmpty(&'static str),
    /// At least one of two dotted key paths holds `true`.
    JsonEither(&'static str, &'static str),
}

impl Step {
    /// `GET path` (a non-2xx answer fails the step), then `checks`.
    const fn get(text: &'static str, path: &'static str, checks: &'static [Check]) -> Step {
        let get = Get {
            path,
            any_status: false,
        };
        Step {
            text,
            get: Some(get),
            checks,
        }
    }

    /// `GET path`, then `checks` on the body whatever the status.
    const fn get_any_status(
        text: &'static str,
        path: &'static str,
        checks: &'static [Check],
    ) -> Step {
        let get = Get {
            path,
            any_status: true,
        };
        Step {
            text,
            get: Some(get),
            checks,
        }
    }

    /// `checks` on the page the last `GET` fetched.
    const fn check(text: &'static str, checks: &'static [Check]) -> Step {
        Step {
            text,
            get: None,
            checks,
        }
    }
}

const PHPMYADMIN: &[Pattern] = &[
    Pattern::exact("Server connection collation"),
    Pattern::exact("phpMyAdmin documentation"),
];
const ADMINER: &[Pattern] = &[
    Pattern::exact("through PHP extension"),
    Pattern::exact("Logged as"),
];

/// Table 10: the MAV plugin of every in-scope application, paper order.
#[rustfmt::skip]
pub(crate) static PLUGINS: [Plugin; 18] = [
    Plugin { app: AppId::Jenkins, alternatives: &[&[
        Step::get_any_status("Visit '/view/all/newJob'", "/view/all/newJob", &[]),
        Step::check("Check that body contains 'Jenkins' and is valid HTML",
            &[All(&[Pattern::exact("Jenkins")]), ValidHtml]),
        Step::check("Parse HTML response and verify that element 'form#createItem' exists",
            &[Element("form#createItem")]),
    ]] },
    Plugin { app: AppId::Gocd, alternatives: &[&[
        Step::get_any_status("Visit '/go/home'", "/go/home", &[]),
        Step::check(
            "Check that body contains 'Create a pipeline - Go' and 'pipelines-page', or \
             'Add Pipeline' and 'admin_pipelines', or 'Dashboard - Go' and '/go/admin/pipelines/', \
             or 'Pipelines - Go' and '/go/admin/pipelines'",
            &[AnyOf(&[
                &[Pattern::exact("Create a pipeline - Go"), Pattern::exact("pipelines-page")],
                &[Pattern::exact("Add Pipeline"), Pattern::exact("admin_pipelines")],
                &[Pattern::exact("Dashboard - Go"), Pattern::exact("/go/admin/pipelines/")],
                &[Pattern::exact("Pipelines - Go"), Pattern::exact("/go/admin/pipelines")],
            ])]),
    ]] },
    Plugin { app: AppId::WordPress, alternatives: &[&[
        Step::get_any_status("Visit '/wp-admin/install.php?step=1'",
            "/wp-admin/install.php?step=1", &[]),
        Step::check("Check that body contains 'WordPress' and is valid HTML",
            &[All(&[Pattern::exact("WordPress")]), ValidHtml]),
        Step::check(
            "Parse HTML response and verify that elements 'form#setup' and \
             'form#setup input#pass1' exist",
            &[Element("form#setup"), Element("form#setup input#pass1")]),
    ]] },
    Plugin { app: AppId::Grav, alternatives: &[
        &[Step::get_any_status(
            "Visit '/' and check that body contains 'The Admin plugin has been installed' \
             and 'Create User'",
            "/",
            &[All(&[
                Pattern::exact("The Admin plugin has been installed"),
                Pattern::exact("Create User"),
            ])])],
        &[Step::get_any_status(
            "If step 1 is not successful, visit '/admin' and check that body contains \
             'No user accounts found' and 'create one'",
            "/admin",
            &[All(&[Pattern::exact("No user accounts found"), Pattern::exact("create one")])])],
    ] },
    Plugin { app: AppId::Joomla, alternatives: &[&[
        Step::get("Visit '/installation/index.php'", "/installation/index.php", &[]),
        Step::check(
            "Check that the body contains 'Joomla! Web Installer' or \
             'Enter the name of your Joomla! site'",
            &[AnyOf(&[
                &[Pattern::exact("Joomla! Web Installer")],
                &[Pattern::exact("Enter the name of your Joomla! site")],
            ])]),
    ]] },
    Plugin { app: AppId::Drupal, alternatives: &[&[
        Step::get("Visit '/core/install.php?langcode=en&profile=standard&continue=1'",
            "/core/install.php?langcode=en&profile=standard&continue=1", &[]),
        Step::check(
            "Remove all whitespace from response, as their placement differs across versions",
            &[]),
        Step::check(
            "Check that body contains '<li class=\"is-active\">Set up database' (whitespace-free)",
            &[All(&[Pattern::nospace("<liclass=\"is-active\">Setupdatabase")])]),
    ]] },
    Plugin { app: AppId::Kubernetes, alternatives: &[&[
        Step::get(
            "Visit '/' and check that body contains 'certificates.k8s.io' and 'healthz/ping'",
            "/",
            &[All(&[Pattern::exact("certificates.k8s.io"), Pattern::exact("healthz/ping")])]),
        Step::get(
            "Visit '/api/v1/pods', remove all whitespace from the response and check that it \
             contains '\"phase\":\"Running\"'",
            "/api/v1/pods",
            &[All(&[Pattern::nospace("\"phase\":\"Running\"")])]),
        Step::check(
            "Parse the response as JSON and check that the 'items' array exists and is not empty",
            &[JsonNonEmpty("items")]),
    ]] },
    Plugin { app: AppId::Docker, alternatives: &[&[
        Step::get_any_status(
            "Visit '/' and check that body contains '{\"message\":\"page not found\"}'",
            "/",
            &[All(&[Pattern::exact("{\"message\":\"page not found\"}")])]),
        Step::get_any_status(
            "Visit '/version', convert response to lower case and check that it contains \
             'minapiversion' and 'kernelversion'",
            "/version",
            &[All(&[Pattern::nocase("minapiversion"), Pattern::nocase("kernelversion")])]),
    ]] },
    Plugin { app: AppId::Consul, alternatives: &[&[
        Step::get("Visit '/v1/agent/self' and check that response is valid JSON",
            "/v1/agent/self", &[Json]),
        Step::check("Parse JSON response and check that the 'DebugConfig' property does exist",
            &[JsonKey("DebugConfig")]),
        Step::check(
            "Check that at least one of 'DebugConfig.EnableScriptChecks' and \
             'DebugConfig.EnableRemoteScriptChecks' is enabled",
            &[JsonEither("DebugConfig.EnableScriptChecks",
                         "DebugConfig.EnableRemoteScriptChecks")]),
    ]] },
    Plugin { app: AppId::Hadoop, alternatives: &[&[
        Step::get("Visit '/cluster/cluster' and convert response to lower case",
            "/cluster/cluster", &[]),
        Step::check(
            "Check that response contains 'hadoop', 'resourcemanager' and 'logged in as: dr.who'",
            &[All(&[
                Pattern::nocase("hadoop"),
                Pattern::nocase("resourcemanager"),
                Pattern::nocase("logged in as: dr.who"),
            ])]),
        Step::get("Visit '/ws/v1/cluster/apps/new-application' and check that it is valid JSON",
            "/ws/v1/cluster/apps/new-application", &[Json]),
        Step::check(
            "Parse the JSON response and check that it contains the 'application-id' object",
            &[JsonKey("application-id")]),
    ]] },
    Plugin { app: AppId::Nomad, alternatives: &[&[
        Step::get("Visit '/v1/jobs'", "/v1/jobs", &[]),
        Step::check("Check that response contains '<title>Nomad</title>'",
            &[All(&[Pattern::exact("<title>Nomad</title>")])]),
    ]] },
    Plugin { app: AppId::JupyterLab, alternatives: &[&[
        Step::get("Visit '/api/terminals'", "/api/terminals", &[]),
        Step::check("Check that response contains 'JupyterLab'",
            &[All(&[Pattern::exact("JupyterLab")])]),
    ]] },
    Plugin { app: AppId::JupyterNotebook, alternatives: &[&[
        Step::get("Visit '/api/terminals'", "/api/terminals", &[]),
        Step::check("Check that response contains 'Jupyter Notebook'",
            &[All(&[Pattern::exact("Jupyter Notebook")])]),
    ]] },
    Plugin { app: AppId::Zeppelin, alternatives: &[&[
        Step::get("Visit '/api/notebook'", "/api/notebook", &[]),
        Step::check("Check that response contains '{\"status\":\"OK\",'",
            &[All(&[Pattern::exact("{\"status\":\"OK\",")])]),
    ]] },
    Plugin { app: AppId::Polynote, alternatives: &[&[
        Step::get("Visit '/'", "/", &[]),
        Step::check("Check that response contains '<title>Polynote</title>'",
            &[All(&[Pattern::exact("<title>Polynote</title>")])]),
    ]] },
    Plugin { app: AppId::Ajenti, alternatives: &[&[
        Step::get("Visit '/view/'", "/view/", &[]),
        Step::check(
            "Check that response contains 'customization.plugins.core.title || 'Ajenti'' \
             and 'ajentiPlatformUnmapped'",
            &[All(&[
                Pattern::exact("customization.plugins.core.title || 'Ajenti'"),
                Pattern::exact("ajentiPlatformUnmapped"),
            ])]),
    ]] },
    Plugin { app: AppId::PhpMyAdmin, alternatives: &[
        &[Step::get(
            "Visit '/' and check that it contains 'Server connection collation' and \
             'phpMyAdmin documentation'",
            "/", &[All(PHPMYADMIN)])],
        &[Step::get(
            "If step 1 is not successful, visit '/phpmyadmin' and check that it contains \
             the same two strings",
            "/phpmyadmin", &[All(PHPMYADMIN)])],
    ] },
    Plugin { app: AppId::Adminer, alternatives: &[
        &[Step::get(
            "Visit '/adminer.php?username=root' and check that it contains \
             'through PHP extension' and 'Logged as'",
            "/adminer.php?username=root", &[All(ADMINER)])],
        &[Step::get(
            "If step 1 is not successful, visit '/adminer/adminer.php?username=root' and \
             check that it contains the same two strings",
            "/adminer/adminer.php?username=root", &[All(ADMINER)])],
    ] },
];

/// `app`'s row of [`PLUGINS`]; out-of-scope applications have none.
fn plugin(app: AppId) -> Option<&'static Plugin> {
    PLUGINS.iter().find(|plugin| plugin.app == app)
}

/// Run `app`'s plugin against `ep`: its alternatives in order, until
/// one confirms.
///
/// `Ok(true)`: a MAV is confirmed. `Ok(false)`: a check failed (or the
/// application has no plugin). `Err`: a `GET` failed and ended the last
/// alternative tried. Transient faults rarely get this far under the
/// pipeline: its client's transport is a
/// [`RetryTransport`](crate::retry::RetryTransport) that retries
/// timeouts and dropped connections first.
pub(crate) fn verify<T: Transport>(
    client: &Client<T>,
    app: AppId,
    ep: Endpoint,
    scheme: Scheme,
) -> Result<bool, Error> {
    let mut verdict = Ok(false);
    for steps in plugin(app).map_or(&[][..], |plugin| plugin.alternatives) {
        verdict = run(client, ep, scheme, steps);
        if verdict == Ok(true) {
            break;
        }
    }
    verdict
}

/// Whether `app`'s plugin confirms a MAV on `ep`; an error is "no".
pub fn detect_mav<T: Transport>(
    client: &Client<T>,
    app: AppId,
    ep: Endpoint,
    scheme: Scheme,
) -> bool {
    verify(client, app, ep, scheme) == Ok(true)
}

/// `app`'s Table 10 sentences, in step order across its alternatives
/// (none for an out-of-scope application).
pub fn plugin_steps(app: AppId) -> impl Iterator<Item = &'static str> {
    plugin(app)
        .into_iter()
        .flat_map(|plugin| plugin.alternatives.iter().copied().flatten())
        .map(|step| step.text)
}

/// One alternative: every step in order, until a check fails.
fn run<T: Transport>(
    client: &Client<T>,
    ep: Endpoint,
    scheme: Scheme,
    steps: &[Step],
) -> Result<bool, Error> {
    let mut page = Page::default();
    for step in steps {
        if let Some(get) = step.get {
            let response = client.get_path(ep, scheme, get.path)?.response;
            if !get.any_status && !response.status.is_success() {
                return Ok(false);
            }
            page = Page {
                text: response.body_text(),
                json: OnceCell::new(),
            };
        }
        if !step.checks.iter().all(|check| check.holds(&page)) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The page a step's checks read: the last `GET`'s body, parsed as
/// JSON when a check first asks.
#[derive(Default)]
struct Page {
    text: String,
    json: OnceCell<Option<Value>>,
}

impl Page {
    fn json(&self) -> Option<&Value> {
        self.json
            .get_or_init(|| crate::json::parse(self.text.as_bytes()).ok())
            .as_ref()
    }

    /// The value at a dotted key path, e.g. `DebugConfig.EnableScriptChecks`.
    fn at(&self, path: &str) -> Option<&Value> {
        path.split('.').try_fold(self.json()?, Value::get)
    }
}

impl Check {
    fn holds(&self, page: &Page) -> bool {
        let all = |markers: &[Pattern]| markers.iter().all(|m| m.matches_str(&page.text));
        match *self {
            All(markers) => all(markers),
            AnyOf(groups) => groups.iter().any(|markers| all(markers)),
            ValidHtml => is_valid_html(&page.text),
            Element(selector) => has_element(&page.text, selector),
            Json => page.json().is_some(),
            JsonKey(path) => page.at(path).is_some(),
            JsonNonEmpty(path) => page
                .at(path)
                .and_then(Value::as_array)
                .is_some_and(|items| !items.is_empty()),
            JsonEither(a, b) => [a, b]
                .into_iter()
                .any(|path| page.at(path).and_then(Value::as_bool) == Some(true)),
        }
    }
}

/// Adapter exposing a single [`WebApp`] instance as an HTTP [`Handler`]
/// (used by plugin tests and the `live_scan` example to serve app models
/// over real or in-memory transports).
pub struct AppHandler {
    instance: Mutex<Box<dyn WebApp>>,
}

impl AppHandler {
    pub fn new(instance: Box<dyn WebApp>) -> Self {
        AppHandler {
            instance: Mutex::new(instance),
        }
    }

    /// Ground truth of the wrapped instance.
    pub fn is_vulnerable(&self) -> bool {
        self.instance.lock().expect("not poisoned").is_vulnerable()
    }
}

impl Handler for AppHandler {
    fn handle(&self, req: &Request, peer: Ipv4Addr) -> Response {
        self.instance
            .lock()
            .expect("not poisoned")
            .handle(req, peer)
            .response
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::MatchMode;
    use nokeys_apps::{build_instance, release_history, AppConfig};
    use nokeys_http::memory::HandlerTransport;
    use std::sync::Arc;

    fn client_for(app: AppId, vulnerable: bool, old: bool) -> (Client<HandlerTransport>, Endpoint) {
        let history = release_history(app);
        let version = if old {
            history[0]
        } else {
            *history.last().unwrap()
        };
        let cfg = if vulnerable {
            AppConfig::vulnerable_for(app, &version)
        } else {
            AppConfig::secure_for(app, &version)
        };
        let ep = Endpoint::new(Ipv4Addr::new(10, 1, 1, 1), app.scan_ports()[0]);
        let handler = Arc::new(AppHandler::new(build_instance(app, version, cfg)));
        let t = HandlerTransport::new().with(ep, handler);
        (Client::new(t), ep)
    }

    /// Every plugin must confirm a vulnerable instance and pass on a
    /// secured one — the core correctness property of stage III.
    #[test]
    fn plugins_match_ground_truth_for_all_apps() {
        for app in AppId::in_scope() {
            // Changed-over-time apps need old versions to be vulnerable.
            let old = matches!(
                app,
                AppId::Jenkins | AppId::JupyterNotebook | AppId::Joomla | AppId::Adminer
            );
            let (client, ep) = client_for(app, true, old);
            assert!(
                detect_mav(&client, app, ep, Scheme::Http),
                "{app}: vulnerable instance not detected"
            );
            if app == AppId::Polynote {
                // Polynote cannot be secured; skip the negative case.
                continue;
            }
            let (client, ep) = client_for(app, false, false);
            assert!(
                !detect_mav(&client, app, ep, Scheme::Http),
                "{app}: secure instance falsely flagged"
            );
        }
    }

    /// A host that never answers is not flagged, and the verdict says
    /// that a `GET` failed, not that a check did.
    #[test]
    fn unreachable_targets_are_not_flagged() {
        let t = HandlerTransport::new();
        let client = Client::new(t);
        let ep = Endpoint::new(Ipv4Addr::new(10, 1, 1, 1), 8080);
        for app in AppId::in_scope() {
            assert!(!detect_mav(&client, app, ep, Scheme::Http), "{app}");
            assert!(verify(&client, app, ep, Scheme::Http).is_err(), "{app}");
        }
    }

    /// Table 10 and the code agree. Each in-scope application has exactly
    /// one row, every alternative begins with a `GET`, and every path,
    /// marker, selector and JSON key of a row appears in single quotes in
    /// that row's sentences: a whitespace-blind marker in the sentences
    /// with whitespace removed, a JSON key as its dotted path.
    #[test]
    fn table10_sentences_quote_every_path_marker_and_key() {
        assert_eq!(PLUGINS.len(), AppId::in_scope().count());
        for app in AppId::in_scope() {
            let rows = PLUGINS.iter().filter(|plugin| plugin.app == app).count();
            assert_eq!(rows, 1, "{app} has {rows} rows");
        }
        assert_eq!(plugin_steps(AppId::Gitlab).count(), 0);

        for plugin in &PLUGINS {
            let app = plugin.app;
            let text = plugin_steps(app).collect::<Vec<_>>().join("\n");
            let squashed: String = text.chars().filter(|c| !c.is_whitespace()).collect();
            let quoted = |item: &str| text.contains(&format!("'{item}'"));
            let marker = |p: &Pattern| match p.mode {
                MatchMode::IgnoreWhitespace => squashed.contains(&format!("'{}'", p.needle)),
                MatchMode::Exact | MatchMode::IgnoreCase => quoted(p.needle),
            };
            for steps in plugin.alternatives {
                assert!(
                    steps.first().is_some_and(|step| step.get.is_some()),
                    "{app}: an alternative must begin with a GET"
                );
                for step in *steps {
                    if let Some(get) = step.get {
                        assert!(quoted(get.path), "{app}: path {}", get.path);
                    }
                    for check in step.checks {
                        let agrees = match *check {
                            All(markers) => markers.iter().all(marker),
                            AnyOf(groups) => groups.iter().copied().flatten().all(marker),
                            ValidHtml | Json => true,
                            Element(item) | JsonKey(item) | JsonNonEmpty(item) => quoted(item),
                            JsonEither(a, b) => quoted(a) && quoted(b),
                        };
                        assert!(agrees, "{app}: {check:?} is not quoted in {text:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn out_of_scope_apps_never_detect() {
        let (client, ep) = {
            let app = AppId::Gitlab;
            let history = release_history(app);
            let version = *history.last().unwrap();
            let ep = Endpoint::new(Ipv4Addr::new(10, 1, 1, 2), 80);
            let handler = Arc::new(AppHandler::new(build_instance(
                app,
                version,
                AppConfig::default_for(app, &version),
            )));
            (Client::new(HandlerTransport::new().with(ep, handler)), ep)
        };
        assert!(!detect_mav(&client, AppId::Gitlab, ep, Scheme::Http));
    }
}
