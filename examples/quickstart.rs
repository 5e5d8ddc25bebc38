//! Quickstart: generate a small simulated Internet, run the three-stage
//! MAV scanning pipeline over it, and print what was found.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use nokeys::netsim::{SimTransport, Universe, UniverseConfig};
use nokeys::scanner::{Pipeline, PipelineConfig, Telemetry};
use std::sync::Arc;

fn main() {
    // 1. A deterministic, seeded universe: ~400 hosts in 20.0.0.0/16
    //    running the studied applications plus background noise.
    let config = UniverseConfig::tiny(42);
    let universe = Arc::new(Universe::generate(config.clone()));
    println!(
        "universe: {} hosts in {}",
        universe.host_count(),
        config.space
    );

    // 2. The scanning pipeline, exactly as the paper describes it:
    //    masscan-style port sweep -> signature prefilter -> MAV plugins
    //    -> version fingerprinting.
    let transport = SimTransport::new(universe);
    let pipeline = Pipeline::new(PipelineConfig::new(vec![config.space]), &Telemetry::new());
    let report = pipeline.run(&transport).expect("pipeline failed");

    // 3. Results.
    println!("funnel: {}", report.funnel());
    println!(
        "identified {} AWE hosts, {} with a missing-authentication vulnerability:",
        report.total_hosts(),
        report.total_mavs()
    );
    for app in nokeys::apps::AppId::in_scope() {
        let hosts = report.hosts_running(app);
        let mavs = report.mavs(app);
        if hosts > 0 {
            println!(
                "  {:<12} {:>4} hosts, {:>3} vulnerable",
                app.name(),
                hosts,
                mavs
            );
        }
    }

    // 4. Every finding carries a fingerprinted version where one could be
    //    determined.
    let with_version = report
        .findings
        .iter()
        .filter(|f| f.version.is_some())
        .count();
    println!(
        "fingerprinted versions for {}/{} findings",
        with_version,
        report.findings.len()
    );
}
