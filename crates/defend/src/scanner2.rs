//! Scanner 2: "detected and flagged 3 out of 18 vulnerabilities: Consul,
//! Docker, and Jenkins. Additionally, the scanner flagged installations
//! of Joomla, PhpMyAdmin, Kubernetes, and Hadoop as an informational
//! finding." Its scan takes several hours — honeypots get compromised
//! while it runs.

use crate::model::{Capability, CommercialScanner, Severity};
use nokeys_apps::AppId;

/// Build the Scanner 2 model.
pub fn scanner2() -> CommercialScanner {
    CommercialScanner {
        name: "Scanner 2",
        capabilities: vec![
            Capability {
                app: AppId::Consul,
                severity: Severity::Vulnerability,
            },
            Capability {
                app: AppId::Docker,
                severity: Severity::Vulnerability,
            },
            Capability {
                app: AppId::Jenkins,
                severity: Severity::Vulnerability,
            },
            Capability {
                app: AppId::Joomla,
                severity: Severity::Informational,
            },
            Capability {
                app: AppId::PhpMyAdmin,
                severity: Severity::Informational,
            },
            Capability {
                app: AppId::Kubernetes,
                severity: Severity::Informational,
            },
            Capability {
                app: AppId::Hadoop,
                severity: Severity::Informational,
            },
        ],
        scan_duration_hours: 6.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Severity;
    use nokeys_honeypot::Fleet;

    #[test]
    fn detects_three_vulnerabilities_and_four_informational() {
        let fleet = Fleet::deploy();
        let findings = scanner2().scan_fleet(&fleet);
        let vulns: Vec<AppId> = findings
            .iter()
            .filter(|f| f.severity == Severity::Vulnerability)
            .map(|f| f.app)
            .collect();
        let infos: Vec<AppId> = findings
            .iter()
            .filter(|f| f.severity == Severity::Informational)
            .map(|f| f.app)
            .collect();
        assert_eq!(vulns.len(), 3);
        assert!(vulns.contains(&AppId::Consul));
        assert!(vulns.contains(&AppId::Docker));
        assert!(vulns.contains(&AppId::Jenkins));
        assert_eq!(infos.len(), 4);
        assert!(
            infos.contains(&AppId::Hadoop),
            "Hadoop is informational only"
        );
    }

    #[test]
    fn overlap_with_scanner1_is_docker_and_consul_only() {
        // "only Docker and Consul detected by both" — the lack of
        // consensus on MAVs.
        let s1 = crate::scanner1().vulnerability_coverage();
        let s2 = scanner2().vulnerability_coverage();
        let mut both: Vec<AppId> = s1.iter().filter(|a| s2.contains(a)).copied().collect();
        both.sort();
        let mut expected = vec![AppId::Docker, AppId::Consul];
        expected.sort();
        assert_eq!(both, expected);
    }

    #[test]
    fn scan_is_slow_enough_to_lose_the_race() {
        // Hadoop honeypots get compromised within the hour; a six-hour
        // scan cannot beat that.
        assert!(scanner2().scan_duration_hours > 0.8);
    }
}
