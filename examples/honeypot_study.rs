//! The honeypot study (Section 4): deploy the 18 vulnerable honeypots,
//! replay the four-week attack campaign and regenerate Tables 5–8 and
//! Figures 3–4, plus the defender study (Section 5, Table 9 uses it).
//!
//! ```sh
//! cargo run --release --example honeypot_study
//! ```

use nokeys::analysis;
use nokeys::honeypot::{run_study, Fleet, StudyConfig};

fn main() {
    println!("deploying 18 honeypots and replaying four weeks of attacks ...");
    let started = std::time::Instant::now();
    let result = run_study(&StudyConfig::default());
    println!(
        "study complete in {:.1?}: {} audit records, {} attacks, {} recovered actors, {} restores\n",
        started.elapsed(),
        result.records.len(),
        result.attacks.len(),
        result.actors.len(),
        result.restores.len(),
    );

    println!("{}", analysis::table5::build(&result).render());
    println!("{}", analysis::table6::build(&result).render());
    println!("{}", analysis::table7::build(&result).render());
    println!("{}", analysis::table8::build(&result).render());
    println!("{}", analysis::fig3::build(&result).render());
    println!("{}", analysis::fig4::build(&result).render());

    // Defender awareness (Section 5): scan a fresh fleet with both
    // commercial-scanner models.
    let fleet = Fleet::deploy();
    let s1 = nokeys::defend::SCANNER1.scan_fleet(&fleet);
    let s2 = nokeys::defend::SCANNER2.scan_fleet(&fleet);
    println!(
        "Scanner 1 flags {} of 18 honeypots; Scanner 2 flags {} (+{} informational)",
        s1.len(),
        s2.iter()
            .filter(|f| f.severity == nokeys::defend::Severity::Vulnerability)
            .count(),
        s2.iter()
            .filter(|f| f.severity == nokeys::defend::Severity::Informational)
            .count(),
    );
}
