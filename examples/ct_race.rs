//! The §6.2 "under counting" extension as a standalone demo: a
//! Certificate-Transparency-watching attacker races site owners for
//! freshly registered CMS installations hiding behind shared hosting —
//! the population an IP-wide sweep can never count.
//!
//! ```sh
//! cargo run --release --example ct_race
//! ```

use nokeys::netsim::{SimTime, SimTransport, Universe, UniverseConfig};
use nokeys::scanner::ct::{ct_scan, DomainTarget};
use std::sync::Arc;

fn main() {
    let config = UniverseConfig::repro(2022);
    let universe = Arc::new(Universe::generate(config));
    let transport = SimTransport::new(Arc::clone(&universe));
    let client_at = |secs| nokeys::http::Client::new(transport.at(SimTime(secs)));

    // The CT log as the attacker sees it: only entries appearing from the
    // study start onward.
    let entries: Vec<DomainTarget> = universe
        .ct_log()
        .into_iter()
        .filter(|e| e.logged_at >= SimTime::SCAN_START)
        .map(|e| DomainTarget {
            domain: e.domain,
            ip: e.ip,
            logged_at_secs: e.logged_at.as_secs(),
        })
        .collect();
    println!(
        "CT log: {} certificates issued during the four-week window",
        entries.len()
    );

    // Probe each domain at several reaction delays and show the race.
    for delay_hours in [1i64, 12, 48] {
        let findings = ct_scan(client_at, &entries, delay_hours * 3600);
        let caught = findings.iter().filter(|f| f.vulnerable).count();
        println!(
            "reaction time {delay_hours:>2} h: {caught:>3} of {} fresh installations still hijackable",
            entries.len()
        );
    }

    let table =
        nokeys::analysis::ct_compare::build(&universe, &ct_scan(client_at, &entries, 3600), 3600);
    println!("\n{}", table.render());
    println!(
        "The IP-wide sweep counts zero of these — the paper's scanning results \
         are a lower bound."
    );
}
