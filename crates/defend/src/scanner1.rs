//! Scanner 1: "identified 5 out of 18 vulnerabilities: Consul, Docker,
//! Jupyter Notebook, WordPress, and Hadoop."

use crate::model::{Capability, CommercialScanner, Severity};
use nokeys_apps::AppId;

/// Build the Scanner 1 model.
pub fn scanner1() -> CommercialScanner {
    CommercialScanner {
        name: "Scanner 1",
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
                app: AppId::JupyterNotebook,
                severity: Severity::Vulnerability,
            },
            Capability {
                app: AppId::WordPress,
                severity: Severity::Vulnerability,
            },
            Capability {
                app: AppId::Hadoop,
                severity: Severity::Vulnerability,
            },
        ],
        scan_duration_hours: 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nokeys_honeypot::Fleet;

    #[test]
    fn detects_exactly_the_five_disclosed_apps() {
        let fleet = Fleet::deploy();
        let findings = scanner1().scan_fleet(&fleet);
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
            .all(|f| f.severity == crate::model::Severity::Vulnerability));
    }

    #[test]
    fn misses_actively_exploited_apps() {
        // "the scanner did not identify issues in actively exploited
        // applications, such as Jenkins, GravCMS, and Jupyter Lab".
        let coverage = scanner1().vulnerability_coverage();
        for app in [AppId::Jenkins, AppId::Grav, AppId::JupyterLab] {
            assert!(!coverage.contains(&app), "{app} should be a blind spot");
        }
    }
}
