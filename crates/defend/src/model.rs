//! Generic commercial-scanner model.

use nokeys_apps::AppId;
use nokeys_honeypot::Fleet;
use nokeys_http::{Client, Endpoint, Scheme, Transport};
use nokeys_scanner::pattern::PreparedBody;
use nokeys_scanner::plugin::detect_mav;
use nokeys_scanner::MultiPattern;

/// Finding severity as reported by the vendor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Flagged as a vulnerability.
    Vulnerability,
    /// Flagged as an informational finding only ("the scanner did not
    /// raise a vulnerability for them").
    Informational,
}

/// One capability: what the product can say about one application.
#[derive(Debug, Clone, Copy)]
pub struct Capability {
    pub app: AppId,
    pub severity: Severity,
}

/// A commercial scanner: a name, a capability list and a speed model.
pub struct CommercialScanner {
    pub name: &'static str,
    pub capabilities: Vec<Capability>,
    /// Modeled wall-clock duration of a full scan in hours ("the entire
    /// scan took several hours to complete. During the time of the scan,
    /// multiple instances got compromised").
    pub scan_duration_hours: f64,
}

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
            .filter(|c| c.severity == Severity::Vulnerability)
            .map(|c| c.app)
            .collect()
    }

    /// Scan a single endpoint suspected to run `app`.
    pub fn scan_endpoint<T: Transport>(
        &self,
        client: &Client<T>,
        app: AppId,
        ep: Endpoint,
    ) -> Option<VendorFinding> {
        let capability = self.capabilities.iter().find(|c| c.app == app)?;
        match capability.severity {
            Severity::Vulnerability => {
                // The vendor implements an equivalent unauthenticated-
                // access check; modeled by the study's own plugin logic.
                if detect_mav(client, app, ep, Scheme::Http) {
                    Some(VendorFinding {
                        endpoint: ep,
                        app,
                        severity: Severity::Vulnerability,
                    })
                } else {
                    None
                }
            }
            Severity::Informational => {
                // Product presence only: match identification signatures.
                let fetched = client.get_path(ep, Scheme::Http, "/").ok()?;
                let body = PreparedBody::new(fetched.response.body_str());
                let candidates = MultiPattern::catalog().match_candidates(&body);
                candidates.contains(&app).then_some(VendorFinding {
                    endpoint: ep,
                    app,
                    severity: Severity::Informational,
                })
            }
        }
    }

    /// Scan the whole honeypot fleet, as the study did.
    pub fn scan_fleet(&self, fleet: &Fleet) -> Vec<VendorFinding> {
        let client = Client::new(fleet.transport.clone());
        let mut findings = Vec::new();
        for h in &fleet.honeypots {
            if let Some(f) = self.scan_endpoint(&client, h.app, h.endpoint) {
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
            capabilities: vec![],
            scan_duration_hours: 1.0,
        };
        let fleet = Fleet::deploy();
        assert!(scanner.scan_fleet(&fleet).is_empty());
    }

    #[test]
    fn vulnerability_capability_confirms_only_real_mavs() {
        let scanner = CommercialScanner {
            name: "t",
            capabilities: vec![Capability {
                app: AppId::Docker,
                severity: Severity::Vulnerability,
            }],
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
            capabilities: vec![Capability {
                app: AppId::Kubernetes,
                severity: Severity::Informational,
            }],
            scan_duration_hours: 1.0,
        };
        let fleet = Fleet::deploy();
        let findings = scanner.scan_fleet(&fleet);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].severity, Severity::Informational);
    }
}
