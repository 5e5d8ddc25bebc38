//! The commercial-scanner model and the two scanners of the study,
//! each one row: a name, what it can say about which application, and
//! how long its scan takes.

use nokeys_apps::AppId;
use nokeys_honeypot::Fleet;
use nokeys_http::{Endpoint, Scheme, Transport, Visit};
use nokeys_scanner::plugin::detect_mav;
use nokeys_scanner::prefilter::candidates;
use nokeys_scanner::Scratch;

/// Finding severity as reported by the vendor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Flagged as a vulnerability.
    Vulnerability,
    /// Flagged as an informational finding only ("the scanner did not
    /// raise a vulnerability for them").
    Informational,
}

/// A commercial scanner: a name, a capability list and a speed model.
pub struct CommercialScanner {
    pub name: &'static str,
    /// What the product can say about each application it knows.
    pub capabilities: &'static [(AppId, Severity)],
    /// Modeled wall-clock duration of a full scan in hours ("the entire
    /// scan took several hours to complete. During the time of the scan,
    /// multiple instances got compromised").
    pub scan_duration_hours: f64,
}

/// Scanner 1: "identified 5 out of 18 vulnerabilities: Consul, Docker,
/// Jupyter Notebook, WordPress, and Hadoop."
pub static SCANNER1: CommercialScanner = CommercialScanner {
    name: "Scanner 1",
    capabilities: &[
        (AppId::Consul, Severity::Vulnerability),
        (AppId::Docker, Severity::Vulnerability),
        (AppId::JupyterNotebook, Severity::Vulnerability),
        (AppId::WordPress, Severity::Vulnerability),
        (AppId::Hadoop, Severity::Vulnerability),
    ],
    scan_duration_hours: 2.0,
};

/// Scanner 2: "detected and flagged 3 out of 18 vulnerabilities: Consul,
/// Docker, and Jenkins. Additionally, the scanner flagged installations
/// of Joomla, PhpMyAdmin, Kubernetes, and Hadoop as an informational
/// finding." Its scan takes several hours — honeypots get compromised
/// while it runs.
pub static SCANNER2: CommercialScanner = CommercialScanner {
    name: "Scanner 2",
    capabilities: &[
        (AppId::Consul, Severity::Vulnerability),
        (AppId::Docker, Severity::Vulnerability),
        (AppId::Jenkins, Severity::Vulnerability),
        (AppId::Joomla, Severity::Informational),
        (AppId::PhpMyAdmin, Severity::Informational),
        (AppId::Kubernetes, Severity::Informational),
        (AppId::Hadoop, Severity::Informational),
    ],
    scan_duration_hours: 6.0,
};

/// A finding produced by a vendor scan.
#[derive(Debug, Clone)]
pub struct VendorFinding {
    pub endpoint: Endpoint,
    pub app: AppId,
    pub severity: Severity,
}

impl CommercialScanner {
    /// Applications this scanner flags as vulnerabilities.
    pub fn vulnerability_coverage(&self) -> Vec<AppId> {
        self.capabilities
            .iter()
            .filter(|(_, severity)| *severity == Severity::Vulnerability)
            .map(|&(app, _)| app)
            .collect()
    }

    /// Scan a single endpoint suspected to run `app`.
    pub fn scan_endpoint<T: Transport>(
        &self,
        transport: &T,
        app: AppId,
        ep: Endpoint,
    ) -> Option<VendorFinding> {
        let &(_, severity) = self.capabilities.iter().find(|(known, _)| *known == app)?;
        let visit = Visit::new(transport, ep, Scheme::Http);
        let found = match severity {
            // The vendor implements an equivalent unauthenticated-access
            // check; modeled by the study's own plugin logic.
            Severity::Vulnerability => detect_mav(&visit, app),
            // Product presence only: match identification signatures.
            Severity::Informational => visit.get("/").is_ok_and(|fetched| {
                candidates(&fetched.response.body_str(), &mut Scratch::new()).contains(&app)
            }),
        };
        found.then_some(VendorFinding {
            endpoint: ep,
            app,
            severity,
        })
    }

    /// Scan the whole honeypot fleet, as the study did.
    pub fn scan_fleet(&self, fleet: &Fleet) -> Vec<VendorFinding> {
        let mut findings = Vec::new();
        for h in &fleet.honeypots {
            if let Some(f) = self.scan_endpoint(&fleet.transport, h.app, h.endpoint) {
                findings.push(f);
            }
        }
        findings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_capability_list_finds_nothing() {
        let scanner = CommercialScanner {
            name: "null-scanner",
            capabilities: &[],
            scan_duration_hours: 1.0,
        };
        let fleet = Fleet::deploy();
        assert!(scanner.scan_fleet(&fleet).is_empty());
    }

    #[test]
    fn vulnerability_capability_confirms_only_real_mavs() {
        let scanner = CommercialScanner {
            name: "t",
            capabilities: &[(AppId::Docker, Severity::Vulnerability)],
            scan_duration_hours: 1.0,
        };
        let fleet = Fleet::deploy();
        let findings = scanner.scan_fleet(&fleet);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].app, AppId::Docker);
        assert_eq!(findings[0].severity, Severity::Vulnerability);
    }

    #[test]
    fn informational_capability_reports_presence() {
        let scanner = CommercialScanner {
            name: "t",
            capabilities: &[(AppId::Kubernetes, Severity::Informational)],
            scan_duration_hours: 1.0,
        };
        let fleet = Fleet::deploy();
        let findings = scanner.scan_fleet(&fleet);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].severity, Severity::Informational);
    }

    #[test]
    fn scanner_1_detects_exactly_the_five_disclosed_apps() {
        let fleet = Fleet::deploy();
        let findings = SCANNER1.scan_fleet(&fleet);
        let mut apps: Vec<AppId> = findings.iter().map(|f| f.app).collect();
        apps.sort();
        let mut expected = vec![
            AppId::WordPress,
            AppId::Docker,
            AppId::Consul,
            AppId::Hadoop,
            AppId::JupyterNotebook,
        ];
        expected.sort();
        assert_eq!(apps, expected);
        assert!(findings
            .iter()
            .all(|f| f.severity == Severity::Vulnerability));
    }

    #[test]
    fn scanner_1_misses_actively_exploited_apps() {
        // "the scanner did not identify issues in actively exploited
        // applications, such as Jenkins, GravCMS, and Jupyter Lab".
        let coverage = SCANNER1.vulnerability_coverage();
        for app in [AppId::Jenkins, AppId::Grav, AppId::JupyterLab] {
            assert!(!coverage.contains(&app), "{app} should be a blind spot");
        }
    }

    #[test]
    fn scanner_2_detects_three_vulnerabilities_and_four_informational() {
        let fleet = Fleet::deploy();
        let findings = SCANNER2.scan_fleet(&fleet);
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
    fn scanners_overlap_on_docker_and_consul_only() {
        // "only Docker and Consul detected by both" — the lack of
        // consensus on MAVs.
        let s1 = SCANNER1.vulnerability_coverage();
        let s2 = SCANNER2.vulnerability_coverage();
        let mut both: Vec<AppId> = s1.iter().filter(|a| s2.contains(a)).copied().collect();
        both.sort();
        let mut expected = vec![AppId::Docker, AppId::Consul];
        expected.sort();
        assert_eq!(both, expected);
    }

    #[test]
    fn scanner_2_is_slow_enough_to_lose_the_race() {
        // Hadoop honeypots get compromised within the hour; a six-hour
        // scan cannot beat that.
        assert!(SCANNER2.scan_duration_hours > 0.8);
    }
}
