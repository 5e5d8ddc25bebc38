//! Pipeline resilience under transient network faults (the paper's
//! "False negatives" limitation: "we missed hosts that were unresponsive
//! [or] temporarily unavailable").

use nokeys::netsim::{FaultPlan, FaultyTransport, SimTime, SimTransport, Universe, UniverseConfig};
use nokeys::scanner::{Pipeline, PipelineConfig, Telemetry};
use std::sync::Arc;

/// `universe` behind the fault layer, failing attempts at `rate`.
fn flaky(universe: &Arc<Universe>, rate: f64) -> FaultyTransport<SimTransport> {
    FaultyTransport::new(
        SimTransport::new(Arc::clone(universe)),
        FaultPlan::new(rate, 0xfa17_5eed),
    )
}

#[test]
fn pipeline_survives_a_flaky_network() {
    let config = UniverseConfig::tiny(42);
    let universe = Arc::new(Universe::generate(config.clone()));

    // 15% of connect attempts time out.
    let pipeline = Pipeline::new(PipelineConfig::new(vec![config.space]), &Telemetry::new());
    let flaky_report = pipeline
        .run(&flaky(&universe, 0.15))
        .expect("flaky run failed");

    let clean = SimTransport::new(universe);
    let clean_report = pipeline.run(&clean).expect("clean run failed");

    // No panics, no false positives — every flaky finding also exists in
    // the clean run with the same verdict (faults only *lose* hosts;
    // plugins never confirm a MAV they could not verify).
    for f in &flaky_report.findings {
        let clean_f = clean_report
            .findings
            .iter()
            .find(|c| c.endpoint.ip == f.endpoint.ip && c.app == f.app)
            .unwrap_or_else(|| panic!("{} appeared only under faults", f.endpoint));
        // A vulnerable verdict under faults must be real. (The converse
        // is allowed: a fault during verification downgrades a host.)
        if f.vulnerable {
            assert!(
                clean_f.vulnerable,
                "{} false positive under faults",
                f.endpoint
            );
        }
    }

    // Losses stay proportionate to the fault rate.
    let lost = clean_report.total_hosts() - flaky_report.total_hosts();
    let loss_rate = lost as f64 / clean_report.total_hosts() as f64;
    assert!(
        loss_rate < 0.5,
        "15% connect faults should not lose half the hosts ({lost} lost)"
    );
}

#[test]
fn faults_are_deterministic_per_transport() {
    let config = UniverseConfig::tiny(9);
    let universe = Arc::new(Universe::generate(config.clone()));
    let pipeline = Pipeline::new(PipelineConfig::new(vec![config.space]), &Telemetry::new());

    let run = |u: &Arc<Universe>| pipeline.run(&flaky(u, 0.3)).expect("pipeline failed");
    let a = run(&universe);
    let b = run(&universe);
    assert_eq!(a.total_hosts(), b.total_hosts());
    assert_eq!(a.total_mavs(), b.total_mavs());
}

#[test]
fn rescanning_recovers_fault_losses() {
    // The paper's batching rationale: hosts missed transiently can be
    // found by a later pass. The second scan runs an hour later, and
    // the instant is part of every fault draw's key, so it hits a
    // different fault pattern and the union recovers most hosts.
    // Retries are capped at 2 so each individual pass still loses a
    // visible slice of hosts — this test exercises *rescanning* as the
    // recovery mechanism, not the retry layer.
    let config = UniverseConfig::tiny(11);
    let universe = Arc::new(Universe::generate(config.clone()));
    let transport = flaky(&universe, 0.25);
    let config = PipelineConfig {
        max_attempts: 2,
        ..PipelineConfig::new(vec![config.space])
    };
    let pipeline = Pipeline::new(config, &Telemetry::new());

    let first = pipeline.run(&transport).expect("first pass failed");
    let second = pipeline
        .run(&transport.at(SimTime(3600)))
        .expect("second pass failed");
    let union: std::collections::BTreeSet<(std::net::Ipv4Addr, nokeys::apps::AppId)> = first
        .findings
        .iter()
        .chain(second.findings.iter())
        .map(|f| (f.endpoint.ip, f.app))
        .collect();

    let clean = SimTransport::new(universe);
    let clean_report = pipeline.run(&clean).expect("clean run failed");

    assert!(union.len() > first.findings.len().min(second.findings.len()));
    let coverage = union.len() as f64 / clean_report.total_hosts() as f64;
    assert!(
        coverage > 0.85,
        "two passes should recover most hosts ({coverage:.2})"
    );
}
