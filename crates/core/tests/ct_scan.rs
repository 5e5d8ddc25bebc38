//! CT-driven scanning over the simulated universe: the attacker who
//! watches Certificate Transparency catches fresh installations that the
//! IP-wide sweep can never see (§6.2 "Under counting").

use nokeys_netsim::vhost::VhostState;
use nokeys_netsim::{SimTime, SimTransport, Universe, UniverseConfig};
use nokeys_scanner::ct::{ct_scan, DomainTarget};
use nokeys_scanner::{Pipeline, PipelineConfig, Telemetry};
use std::sync::Arc;

/// Entries appearing during the study window — a CT watcher starting at
/// the scan epoch only sees new certificates.
fn targets(universe: &Universe) -> Vec<DomainTarget> {
    universe
        .ct_log()
        .into_iter()
        .filter(|e| e.logged_at >= SimTime::SCAN_START)
        .map(|e| DomainTarget {
            domain: e.domain,
            ip: e.ip,
            logged_at_secs: e.logged_at.as_secs(),
        })
        .collect()
}

#[test]
fn ct_watcher_catches_fresh_installations() {
    let config = UniverseConfig::tiny(21);
    let transport = SimTransport::new(Arc::new(Universe::generate(config)));
    let entries = targets(transport.universe());
    assert!(!entries.is_empty(), "tiny universe has virtual hosts");

    // Probe one hour after each CT entry appears.
    let client_at = |secs| nokeys_http::Client::new(transport.at(SimTime(secs)));
    let findings = ct_scan(client_at, &entries, 3600);

    // Ground truth: which vhosts were still pre-install one hour after
    // registration (and registered within the window)?
    let expected: Vec<String> = transport
        .universe()
        .vhosts()
        .filter(|(_, v)| {
            v.registered_at >= SimTime::SCAN_START
                && v.state_at(v.registered_at + nokeys_netsim::SimDuration::hours(1))
                    == VhostState::PreInstall
        })
        .map(|(_, v)| v.domain.clone())
        .collect();

    for domain in &expected {
        let f = findings
            .iter()
            .find(|f| &f.domain == domain)
            .unwrap_or_else(|| panic!("{domain} missing from CT scan"));
        assert!(
            f.vulnerable,
            "{domain} should be hijackable one hour after registration"
        );
        assert!(f.app.is_some());
    }
    // Established (installed) sites are identified but not vulnerable.
    let vulnerable: Vec<&str> = findings
        .iter()
        .filter(|f| f.vulnerable)
        .map(|f| f.domain.as_str())
        .collect();
    for d in &vulnerable {
        assert!(
            expected.iter().any(|e| e == d),
            "{d} flagged but not actually fresh"
        );
    }
}

#[test]
fn ip_sweep_misses_everything_behind_shared_hosting() {
    let config = UniverseConfig::tiny(21);
    let transport = SimTransport::new(Arc::new(Universe::generate(config.clone())));
    let client = nokeys_http::Client::new(transport.clone());
    let report = Pipeline::new(PipelineConfig::new(vec![config.space]), &Telemetry::new())
        .run(&client)
        .expect("pipeline failed");

    // No finding of the IP sweep points at a shared-hosting machine: the
    // default vhost is a hosting placeholder.
    for f in &report.findings {
        let host = transport.universe().host(f.endpoint.ip).expect("host");
        assert!(
            host.vhosts.is_empty(),
            "IP sweep should not see name-based sites on {}",
            f.endpoint.ip
        );
    }
    // Yet hijackable fresh installations exist behind those IPs — the
    // paper's lower-bound claim made concrete.
    let fresh = transport
        .universe()
        .vhosts()
        .filter(|(_, v)| v.registered_at >= SimTime::SCAN_START)
        .count();
    assert!(
        fresh > 0,
        "fresh installations exist but the IP sweep cannot count them"
    );
}

#[test]
fn vhost_dispatch_serves_the_named_site() {
    let config = UniverseConfig::tiny(21);
    let transport = SimTransport::new(Arc::new(Universe::generate(config)));
    let (host, vhost) = {
        let u = transport.universe();
        let (h, v) = u.vhosts().next().expect("has vhosts");
        (h.ip, v.clone())
    };
    // Probe while installed (an hour after installed_at).
    let installed = vhost.installed_at + nokeys_netsim::SimDuration::hours(1);
    let client = nokeys_http::Client::new(transport.at(installed));
    let ep = nokeys_http::Endpoint::new(host, 80);
    let fetched = client
        .for_host(&vhost.domain)
        .get_path(ep, nokeys_http::Scheme::Http, "/")
        .expect("vhost answers");
    let body = fetched.response.body_text();
    // The named site is a CMS, not the hosting placeholder.
    assert!(
        !body.contains("ACME Widgets"),
        "placeholder served instead of vhost: {body}"
    );
    // Without the Host header, the placeholder is served.
    let plain = client
        .get_path(ep, nokeys_http::Scheme::Http, "/")
        .expect("default answers");
    assert!(plain.response.body_text().contains("ACME Widgets"));
}
