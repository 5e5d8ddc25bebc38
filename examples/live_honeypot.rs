//! A monitored honeypot over real loopback TCP: deploy a vulnerable
//! Hadoop model with full audit monitoring on an actual socket, attack it
//! the way the Kinsing campaign does, and read the central log — the
//! honeypot framework end-to-end without the simulation.
//!
//! ```sh
//! cargo run --example live_honeypot
//! ```

use nokeys::apps::AppId;
use nokeys::attack::{attack_script, Payload};
use nokeys::honeypot::detect_attacks;
use nokeys::honeypot::logserver::CentralLog;
use nokeys::honeypot::monitor::MonitoredApp;
use nokeys::http::server::serve_tcp;
use nokeys::http::transport::TcpTransport;
use nokeys::http::{Endpoint, Scheme, Visit};
use nokeys::netsim::SimTime;
use std::net::Ipv4Addr;
use std::sync::Arc;

fn main() {
    // Deploy: vulnerable Hadoop + audit log.
    let log = Arc::new(CentralLog::new());
    let instance = nokeys::apps::vulnerable_instance(AppId::Hadoop);
    let monitored = Arc::new(MonitoredApp::new(AppId::Hadoop, instance, Arc::clone(&log)));

    let server = serve_tcp(Ipv4Addr::LOCALHOST, 0, Arc::clone(&monitored)).expect("bind loopback");
    println!(
        "honeypot (Hadoop, vulnerable) listening on 127.0.0.1:{}",
        server.port
    );

    // Attack over the real socket, exactly as the campaign would.
    let transport = TcpTransport::default();
    let visit = Visit::new(
        &transport,
        Endpoint::new(Ipv4Addr::LOCALHOST, server.port),
        Scheme::Http,
    );
    let payload = Payload::kinsing(1);
    for req in attack_script(AppId::Hadoop, &payload) {
        let target = req.target.clone();
        let resp = visit.execute(req).expect("attack request");
        println!("attacker -> {target} {}", resp.status);
    }
    // The attack is one delivery, at the start of the observation.
    log.stamp_since(0, SimTime::HONEYPOT_START);

    // Read the central log and run the detection pipeline on it.
    let records = log.snapshot();
    println!("\ncentral log: {} audited requests", records.len());
    for r in &records {
        println!(
            "  [{}] {} from {} — events: {}",
            r.time,
            r.request_line,
            r.peer,
            r.events.len()
        );
    }
    let attacks = detect_attacks(&records);
    println!("\ndetected {} attack(s):", attacks.len());
    for a in &attacks {
        println!(
            "  {} from {} — payload: {}",
            a.app.name(),
            a.source,
            a.primary_payload()
        );
    }
    assert_eq!(attacks.len(), 1, "the kinsing run is one grouped attack");
    assert!(
        monitored.gauge().threshold_exceeded(),
        "the miner pegs the CPU gauge"
    );
    monitored.restore();
    println!("\nresource threshold exceeded -> snapshot restored; honeypot armed again");
    server.shutdown();
}
