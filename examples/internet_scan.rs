//! The Internet-wide scan study (Section 3): full-shape reproduction of
//! Tables 2–4 and Figure 1, plus a JSON export of the scan report.
//!
//! ```sh
//! cargo run --release --example internet_scan
//! ```

use nokeys::analysis;
use nokeys::netsim::{SimTransport, Universe, UniverseConfig};
use nokeys::scanner::json::ToJson;
use nokeys::scanner::{Pipeline, PipelineConfig, Telemetry};
use std::sync::Arc;

fn main() {
    let config = UniverseConfig::repro(2022);
    println!(
        "generating universe in {} (MAVs at paper scale, benign 1:{}, background 1:{}) ...",
        config.space, config.benign_divisor, config.background_divisor
    );
    let universe = Arc::new(Universe::generate(config.clone()));
    println!(
        "{} hosts; starting the three-stage scan",
        universe.host_count()
    );

    let transport = SimTransport::new(universe);
    let client = nokeys::http::Client::new(transport.clone());
    // Concurrency is a pure speedup: the scan yields the same report
    // at any shard count, faults or no faults.
    let pipeline = Pipeline::new(
        PipelineConfig {
            shards: 4,
            ..PipelineConfig::new(vec![config.space])
        },
        &Telemetry::new(),
    );
    let started = std::time::Instant::now();
    let report = pipeline.run(&client).expect("pipeline failed");
    println!(
        "scan finished in {:.1?}: {} probes, {} HTTP exchanges\n",
        started.elapsed(),
        transport.stats().probes(),
        transport.stats().requests(),
    );

    println!(
        "{}",
        analysis::table2::build(&report, config.background_divisor).render()
    );
    println!(
        "{}",
        analysis::table3::build(&report, config.benign_divisor, config.mav_divisor).render()
    );
    println!(
        "{}",
        analysis::table4::build(&report, transport.universe().geo(), 5).render()
    );
    println!("{}", analysis::fig1::build(&report).render());

    // Machine-readable export for downstream analysis.
    let path = std::env::temp_dir().join("nokeys_scan_report.json");
    std::fs::write(&path, report.to_json().write_pretty()).expect("write report");
    println!("full scan report exported to {}", path.display());
}
