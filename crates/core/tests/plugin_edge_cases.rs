//! Edge-case tests for individual detection plugins, using scripted
//! handlers that serve precisely crafted responses — fallback paths,
//! almost-matching bodies and malformed JSON.

use nokeys_apps::AppId;
use nokeys_http::memory::HandlerTransport;
use nokeys_http::{Endpoint, Request, Response, Scheme, Visit};
use nokeys_scanner::plugin::detect_mav;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Handler serving a fixed response per path; 404 otherwise.
struct Scripted(HashMap<&'static str, Response>);

impl nokeys_http::server::Handler for Scripted {
    fn handle(&self, req: &Request, _peer: Ipv4Addr) -> Response {
        self.0
            .get(req.target.as_str())
            .cloned()
            .unwrap_or_else(Response::not_found)
    }
}

fn serve_pages(pages: Vec<(&'static str, Response)>) -> (HandlerTransport, Endpoint) {
    let ep = Endpoint::new(Ipv4Addr::new(10, 9, 9, 9), 8080);
    let handler = Arc::new(Scripted(pages.into_iter().collect()));
    (HandlerTransport::new().with(ep, handler), ep)
}

#[test]
fn grav_fallback_to_admin_page() {
    // Step 1 fails (plain front page), step 2 matches on /admin.
    let (t, ep) = serve_pages(vec![
        ("/", Response::html("<html><body>A Grav site</body></html>")),
        (
            "/admin",
            Response::html(
                "<html><body>No user accounts found, please <a>create one</a></body></html>",
            ),
        ),
    ]);
    assert!(detect_mav(&Visit::new(&t, ep, Scheme::Http), AppId::Grav));
}

#[test]
fn grav_requires_both_markers() {
    let (t, ep) = serve_pages(vec![(
        "/admin",
        Response::html("<html><body>No user accounts found.</body></html>"),
    )]);
    assert!(
        !detect_mav(&Visit::new(&t, ep, Scheme::Http), AppId::Grav),
        "'create one' missing — must not fire"
    );
}

#[test]
fn phpmyadmin_alias_path_fallback() {
    let body = "<html><body>Server connection collation \
                <a>phpMyAdmin documentation</a></body></html>";
    let (t, ep) = serve_pages(vec![("/phpmyadmin", Response::html(body))]);
    assert!(detect_mav(
        &Visit::new(&t, ep, Scheme::Http),
        AppId::PhpMyAdmin
    ));
}

#[test]
fn adminer_alternate_path_fallback() {
    let body = "<html><body>MySQL through PHP extension — Logged as: root</body></html>";
    let (t, ep) = serve_pages(vec![(
        "/adminer/adminer.php?username=root",
        Response::html(body),
    )]);
    assert!(detect_mav(
        &Visit::new(&t, ep, Scheme::Http),
        AppId::Adminer
    ));
}

#[test]
fn kubernetes_rejects_empty_pod_list() {
    // Markers present but `items` is empty: the paper's plugin requires a
    // non-empty array.
    let (t, ep) = serve_pages(vec![
        (
            "/",
            Response::json(r#"{"paths":["certificates.k8s.io","healthz/ping"]}"#),
        ),
        (
            "/api/v1/pods",
            Response::json(r#"{"kind":"PodList","items":[],"note":"\"phase\":\"Running\""}"#),
        ),
    ]);
    assert!(!detect_mav(
        &Visit::new(&t, ep, Scheme::Http),
        AppId::Kubernetes
    ));
}

#[test]
fn kubernetes_rejects_malformed_json() {
    let (t, ep) = serve_pages(vec![
        (
            "/",
            Response::json(r#"{"paths":["certificates.k8s.io","healthz/ping"]}"#),
        ),
        (
            "/api/v1/pods",
            Response::json(r#"{"items":[{"phase":"Running""#),
        ),
    ]);
    assert!(!detect_mav(
        &Visit::new(&t, ep, Scheme::Http),
        AppId::Kubernetes
    ));
}

#[test]
fn consul_requires_the_debug_config_property() {
    // Valid JSON, script checks "enabled", but no DebugConfig object.
    let (t, ep) = serve_pages(vec![(
        "/v1/agent/self",
        Response::json(r#"{"Config":{"EnableScriptChecks":true}}"#),
    )]);
    assert!(!detect_mav(
        &Visit::new(&t, ep, Scheme::Http),
        AppId::Consul
    ));
}

#[test]
fn consul_accepts_either_script_flag() {
    for flag in ["EnableScriptChecks", "EnableRemoteScriptChecks"] {
        let body = format!(r#"{{"DebugConfig":{{"{flag}":true}}}}"#);
        let (t, ep) = serve_pages(vec![("/v1/agent/self", Response::json(body))]);
        assert!(
            detect_mav(&Visit::new(&t, ep, Scheme::Http), AppId::Consul),
            "{flag} alone should suffice"
        );
    }
}

#[test]
fn hadoop_requires_application_id_json() {
    let cluster = Response::html(
        "<html><body>Apache Hadoop ResourceManager — logged in as: dr.who</body></html>",
    );
    // new-application answers, but without the application-id object.
    let (t, ep) = serve_pages(vec![
        ("/cluster/cluster", cluster.clone()),
        (
            "/ws/v1/cluster/apps/new-application",
            Response::json(r#"{"maximum-resource-capability":{}}"#),
        ),
    ]);
    assert!(!detect_mav(
        &Visit::new(&t, ep, Scheme::Http),
        AppId::Hadoop
    ));
}

#[test]
fn drupal_matches_across_whitespace_styles() {
    for body in [
        "<html><li class=\"is-active\">Set up database</li></html>",
        "<html><li \n class=\"is-active\"\n>\n  Set up database\n</li></html>",
        "<html><li class=\"is-active\">Set\tup\tdatabase</li></html>",
    ] {
        let (t, ep) = serve_pages(vec![(
            "/core/install.php?langcode=en&profile=standard&continue=1",
            Response::html(body),
        )]);
        assert!(
            detect_mav(&Visit::new(&t, ep, Scheme::Http), AppId::Drupal),
            "whitespace variant should match: {body}"
        );
    }
}

#[test]
fn jenkins_requires_the_form_not_just_branding() {
    // 'Jenkins' + valid HTML but no createItem form (login wall).
    let (t, ep) = serve_pages(vec![(
        "/view/all/newJob",
        Response::html("<html><body>Jenkins login required</body></html>"),
    )]);
    assert!(!detect_mav(
        &Visit::new(&t, ep, Scheme::Http),
        AppId::Jenkins
    ));
}

#[test]
fn jenkins_requires_valid_html() {
    // The form marker inside a non-HTML body must not fire.
    let (t, ep) = serve_pages(vec![(
        "/view/all/newJob",
        Response::text("Jenkins <form id=\"createItem\">"),
    )]);
    assert!(!detect_mav(
        &Visit::new(&t, ep, Scheme::Http),
        AppId::Jenkins
    ));
}

#[test]
fn gocd_matches_every_documented_marker_pair() {
    let variants = [
        "<html>Create a pipeline - Go <div class=\"pipelines-page\"></div></html>",
        "<html>Add Pipeline <div id=\"admin_pipelines\"></div></html>",
        "<html>Dashboard - Go <a href=\"/go/admin/pipelines/\">x</a></html>",
        "<html>Pipelines - Go <a href=\"/go/admin/pipelines\">x</a></html>",
    ];
    for body in variants {
        let (t, ep) = serve_pages(vec![("/go/home", Response::html(body))]);
        assert!(
            detect_mav(&Visit::new(&t, ep, Scheme::Http), AppId::Gocd),
            "variant should match: {body}"
        );
    }
    // Title without the admin link must not fire.
    let (t, ep) = serve_pages(vec![(
        "/go/home",
        Response::html("<html>Pipelines - Go</html>"),
    )]);
    assert!(!detect_mav(&Visit::new(&t, ep, Scheme::Http), AppId::Gocd));
}

#[test]
fn zeppelin_requires_the_exact_status_prefix() {
    let (t, ep) = serve_pages(vec![(
        "/api/notebook",
        Response::json(r#"{"status": "OK", "body": []}"#),
    )]);
    // Note the space after the colon: the paper's marker has none.
    assert!(!detect_mav(
        &Visit::new(&t, ep, Scheme::Http),
        AppId::Zeppelin
    ));
    let (t, ep) = serve_pages(vec![(
        "/api/notebook",
        Response::json(r#"{"status":"OK","body":[]}"#),
    )]);
    assert!(detect_mav(
        &Visit::new(&t, ep, Scheme::Http),
        AppId::Zeppelin
    ));
}

#[test]
fn wordpress_install_form_needs_password_field() {
    // form#setup without the pass1 input (e.g. a language-selection step)
    // must not fire.
    let (t, ep) = serve_pages(vec![(
        "/wp-admin/install.php?step=1",
        Response::html(
            "<html><body>WordPress<form id=\"setup\"><select name=\"lang\"></select></form></body></html>",
        ),
    )]);
    assert!(!detect_mav(
        &Visit::new(&t, ep, Scheme::Http),
        AppId::WordPress
    ));
}

#[test]
fn error_statuses_do_not_satisfy_marker_checks() {
    // A 500 page echoing markers must not fire for plugins that require
    // 2xx responses.
    let mut resp = Response::json(r#"{"status":"OK","body":[]}"#);
    resp.status = nokeys_http::StatusCode::INTERNAL_SERVER_ERROR;
    let (t, ep) = serve_pages(vec![("/api/notebook", resp)]);
    assert!(!detect_mav(
        &Visit::new(&t, ep, Scheme::Http),
        AppId::Zeppelin
    ));
}
