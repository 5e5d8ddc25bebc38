//! Cross-crate integration: the full scanning pipeline over a simulated
//! universe, checked against the universe's ground truth.

use nokeys::apps::AppId;
use nokeys::netsim::{SimTransport, Universe, UniverseConfig};
use nokeys::scanner::{Pipeline, PipelineConfig, ScanReport, Telemetry};
use std::sync::Arc;

fn run(seed: u64) -> (SimTransport, ScanReport) {
    let config = UniverseConfig::tiny(seed);
    let transport = SimTransport::new(Arc::new(Universe::generate(config.clone())));
    let pipeline = Pipeline::new(PipelineConfig::new(vec![config.space]), &Telemetry::new());
    let report = pipeline.run(&transport).expect("pipeline failed");
    (transport, report)
}

#[test]
fn scan_has_no_false_positives_or_negatives() {
    let (transport, report) = run(99);
    let universe = transport.universe();

    // Every finding corresponds to a real host running that application,
    // and the vulnerability verdict matches the deployed configuration.
    for finding in &report.findings {
        let host = universe
            .host(finding.endpoint.ip)
            .expect("finding host exists");
        let (_, actual) = host.awe().expect("finding is an AWE host");
        assert_eq!(finding.app, actual, "misattributed {}", finding.endpoint);
        assert_eq!(
            finding.vulnerable,
            host.is_vulnerable_at_deploy(),
            "wrong verdict for {} ({})",
            finding.endpoint,
            finding.app
        );
    }

    // Every AWE host appears exactly once.
    let truth = universe.hosts().filter(|h| h.awe().is_some()).count();
    assert_eq!(report.findings.len(), truth);
}

#[test]
fn fingerprinted_versions_match_deployments() {
    let (transport, report) = run(7);
    let universe = transport.universe();
    let mut exact = 0u32;
    let mut checked = 0u32;
    for finding in &report.findings {
        let Some(version) = finding.version else {
            continue;
        };
        let host = universe.host(finding.endpoint.ip).expect("host exists");
        let Some((service, app)) = host.awe() else {
            continue;
        };
        let nokeys::netsim::ServiceKind::Awe { version_index, .. } = service.kind else {
            continue;
        };
        let deployed = nokeys::apps::version_at(app, version_index);
        checked += 1;
        if deployed.triple() == version.triple() {
            exact += 1;
        } else {
            // Knowledge-base matches may return a newer version sharing
            // every asset; it must at least share the newest asset
            // generation (i.e. be close).
            assert!(
                version.triple() > deployed.triple(),
                "{}: fingerprint went backwards",
                finding.endpoint
            );
        }
    }
    assert!(checked > 0);
    assert!(
        exact as f64 / checked as f64 > 0.9,
        "fingerprinting accuracy too low: {exact}/{checked}"
    );
}

#[test]
fn reports_are_deterministic_per_seed() {
    let (_, a) = run(1234);
    let (_, b) = run(1234);
    assert_eq!(a.findings.len(), b.findings.len());
    assert_eq!(a.probes_sent, b.probes_sent);
    let key = |r: &ScanReport| {
        let mut rows: Vec<(String, String, bool)> = r
            .findings
            .iter()
            .map(|f| {
                (
                    f.endpoint.to_string(),
                    f.app.name().to_string(),
                    f.vulnerable,
                )
            })
            .collect();
        rows.sort();
        rows
    };
    assert_eq!(key(&a), key(&b));
}

#[test]
fn json_export_round_trips_structurally() {
    let (_, report) = run(5);
    use nokeys::scanner::json::{self, Value};
    let value = json::parse(report.to_json_string().as_bytes()).expect("parses back");
    assert_eq!(
        value
            .get("findings")
            .and_then(Value::as_array)
            .expect("array")
            .len(),
        report.findings.len()
    );
    assert!(matches!(value.get("port_stats"), Some(Value::Object(_))));
}

#[test]
fn analysis_tables_render_from_a_real_report() {
    let (transport, report) = run(42);
    let t2 = nokeys::analysis::table2::build(&report, 500_000).render();
    assert!(t2.contains("8888"));
    let t3 = nokeys::analysis::table3::build(&report, 20_000, 50).render();
    for app in AppId::in_scope() {
        assert!(t3.contains(app.name()), "{app} missing from table 3");
    }
    let t4 = nokeys::analysis::table4::build(&report, transport.universe().geo(), 5).render();
    assert!(t4.contains("AS"));
    let f1 = nokeys::analysis::fig1::build(&report).render();
    assert!(f1.contains("J-Notebook vulnerable"));
}
