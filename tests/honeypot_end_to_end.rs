//! Cross-crate integration: the honeypot study, actor recovery, defender
//! scans and the analysis tables built on top of them.

use nokeys::apps::AppId;
use nokeys::defend::{Severity, SCANNER1, SCANNER2};
use nokeys::honeypot::{run_study, Fleet, StudyConfig};

#[test]
fn full_study_plus_analysis_tables() {
    let result = run_study(&StudyConfig {
        seed: 77,
        background_noise: true,
    });

    // Headline numbers survive a different seed (jitter changes, the
    // calibrated counts do not).
    assert_eq!(result.attacks.len(), 2195);
    assert_eq!(result.actors[0].attack_count, 719);

    let t5 = nokeys::analysis::table5::build(&result).render();
    assert!(t5.contains("1921"), "hadoop attack count in table 5:\n{t5}");
    assert!(t5.contains("2195/122/160"));

    let t6 = nokeys::analysis::table6::build(&result).render();
    assert!(t6.contains("Grav"));
    assert!(t6.contains("355.1 | 355.1"), "Grav timing row:\n{t6}");

    let t7 = nokeys::analysis::table7::build(&result).render();
    assert!(t7
        .lines()
        .nth(3)
        .expect("first data row")
        .contains("Netherlands"));

    let t8 = nokeys::analysis::table8::build(&result).render();
    assert!(t8
        .lines()
        .nth(3)
        .expect("first data row")
        .contains("Serverion"));

    let f3 = nokeys::analysis::fig3::build(&result).render();
    assert!(f3.contains("Hadoop"));

    let f4 = nokeys::analysis::fig4::build(&result).render();
    // Attacker I: 14 IPs on Docker + J-Notebook.
    let first_row = f4.lines().nth(3).expect("attacker I row");
    assert!(first_row.starts_with("I "), "{first_row}");
    assert!(first_row.contains("14"));
    assert!(first_row.contains("Docker + J-Notebook"));
}

#[test]
fn defender_study_and_table9() {
    let result = run_study(&StudyConfig {
        seed: 5,
        background_noise: false,
    });
    let fleet = Fleet::deploy();
    let s1 = SCANNER1.scan_fleet(&fleet);
    let s2 = SCANNER2.scan_fleet(&fleet);

    assert_eq!(s1.len(), 5, "Scanner 1 finds 5 of 18");
    let s2_vulns = s2
        .iter()
        .filter(|f| f.severity == Severity::Vulnerability)
        .count();
    assert_eq!(s2_vulns, 3, "Scanner 2 finds 3 of 18");

    // Table 9 needs a scan report too; a tiny one suffices here.
    let config = nokeys::netsim::UniverseConfig::tiny(5);
    let transport = nokeys::netsim::SimTransport::new(std::sync::Arc::new(
        nokeys::netsim::Universe::generate(config.clone()),
    ));
    let client = nokeys::http::Client::new(transport);
    let pipeline = nokeys::scanner::Pipeline::new(
        nokeys::scanner::PipelineConfig::new(vec![config.space]),
        &nokeys::scanner::Telemetry::new(),
    );
    let report = pipeline.run(&client).expect("pipeline failed");

    let t9 = nokeys::analysis::table9::build(&report, &result, &s1, &s2, 20_000, 50).render();
    // Spot-check the paper's qualitative findings.
    let row = |app: AppId| {
        t9.lines()
            .find(|l| l.contains(app.name()))
            .unwrap_or_else(|| panic!("{app} missing"))
            .to_string()
    };
    assert!(
        row(AppId::Docker).contains("S1&2"),
        "{}",
        row(AppId::Docker)
    );
    assert!(row(AppId::Consul).contains("S1&2"));
    assert!(
        row(AppId::Hadoop).contains("S1"),
        "Hadoop vulnerable only in S1"
    );
    assert!(row(AppId::Jenkins).contains("S2"));
    assert!(row(AppId::JupyterLab).contains("✗"), "J-Lab missed by both");
    assert!(row(AppId::Nomad).contains("✗"));
}

#[test]
fn attack_free_honeypots_stay_vulnerable_and_uncompromised() {
    let result = run_study(&StudyConfig {
        seed: 3,
        background_noise: true,
    });
    // 11 of the 18 applications saw zero attacks in the study.
    let attacked: std::collections::BTreeSet<AppId> =
        result.attacks.iter().map(|a| a.app).collect();
    assert_eq!(attacked.len(), 7);
    for app in [AppId::Gocd, AppId::Zeppelin, AppId::Polynote, AppId::Ajenti] {
        assert!(!attacked.contains(&app));
        // No restore was ever needed for them.
        assert!(
            result.restores.iter().all(|r| r.app != app),
            "{app} restored?"
        );
    }
}
