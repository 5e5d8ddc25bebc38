//! Scan report types.
//!
//! A [`ScanReport`] is built once, when a scan finishes, from two
//! things: the findings in batch order and the snapshot of the
//! telemetry the scan's batches recorded. Every number in it — Table
//! 2's per-port rows, the exclusion count, the stage funnel — is read
//! off that snapshot; no stage keeps a second count of its own.

use crate::json::{object, FromJson, JsonError, ToJson, Value};
use crate::telemetry::TelemetrySnapshot;
use nokeys_apps::{AppId, ReleaseDate, Version};
use nokeys_http::{Endpoint, Scheme};
use std::collections::BTreeMap;

/// How a version was determined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FingerprintMethod {
    /// The application voluntarily reveals its version (API endpoint,
    /// header, generator meta, HTML comment).
    Voluntary,
    /// Matched against the static-file hash knowledge base.
    KnowledgeBase,
}

/// One identified AWE host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostFinding {
    pub endpoint: Endpoint,
    pub scheme: Scheme,
    /// The application attributed to this host.
    pub app: AppId,
    /// Stage III verdict: does the host carry a MAV?
    pub vulnerable: bool,
    /// Fingerprinted version, if determinable.
    pub version: Option<Version>,
    pub fingerprint_method: Option<FingerprintMethod>,
}

impl HostFinding {
    /// Release date of the fingerprinted version.
    pub fn release_date(&self) -> Option<ReleaseDate> {
        self.version.map(|v| v.released)
    }
}

/// Per-port counters for Table 2: `stage1.ports_open.<port>`,
/// `stage2.http_responses.<port>` and `stage2.https_responses.<port>`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortStat {
    pub open: u64,
    pub http: u64,
    pub https: u64,
}

/// The complete output of one pipeline run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanReport {
    /// Table 2 data.
    pub port_stats: BTreeMap<u16, PortStat>,
    /// Hosts excluded because every scanned port appeared open
    /// (the paper's 3.0M network artifacts; `pipeline.tarpit_excluded`).
    pub excluded_all_ports_open: u64,
    /// Addresses probed in stage I (`stage1.addresses_probed`).
    pub addresses_probed: u64,
    /// Logical SYN probes sent, one per (address, port) pair
    /// (`stage1.probes_sent`).
    pub probes_sent: u64,
    /// Endpoints that spoke HTTP(S) but matched no signature
    /// (`stage2.discarded`).
    pub prefilter_discarded: u64,
    /// Endpoints that answered neither HTTP nor HTTPS (`stage2.silent`).
    pub prefilter_silent: u64,
    /// Endpoints whose body matched at least one signature
    /// (`stage2.hits`).
    pub prefilter_hits: u64,
    /// Identified AWE hosts (one entry per host × application).
    pub findings: Vec<HostFinding>,
}

impl ScanReport {
    /// The report of a scan whose batches found `findings` (in batch
    /// order) and recorded `telemetry`. A port gets a Table 2 row iff
    /// its `stage1.ports_open.<port>` counter is above zero; a counter
    /// the snapshot lacks reads as zero.
    pub(crate) fn from_telemetry(
        findings: Vec<HostFinding>,
        telemetry: &TelemetrySnapshot,
    ) -> Self {
        let port_stats = (telemetry.counters.iter())
            .filter(|&(_, &open)| open > 0)
            .filter_map(|(name, &open)| {
                let port: u16 = name.strip_prefix("stage1.ports_open.")?.parse().ok()?;
                let responses =
                    |scheme: &str| telemetry.counter(&format!("stage2.{scheme}_responses.{port}"));
                let stat = PortStat {
                    open,
                    http: responses("http"),
                    https: responses("https"),
                };
                Some((port, stat))
            })
            .collect();
        ScanReport {
            port_stats,
            excluded_all_ports_open: telemetry.counter("pipeline.tarpit_excluded"),
            addresses_probed: telemetry.counter("stage1.addresses_probed"),
            probes_sent: telemetry.counter("stage1.probes_sent"),
            prefilter_discarded: telemetry.counter("stage2.discarded"),
            prefilter_silent: telemetry.counter("stage2.silent"),
            prefilter_hits: telemetry.counter("stage2.hits"),
            findings,
        }
    }

    /// Hosts running `app` (Table 3, "# Hosts" at simulation scale).
    pub fn hosts_running(&self, app: AppId) -> u64 {
        self.findings.iter().filter(|f| f.app == app).count() as u64
    }

    /// Vulnerable hosts running `app` (Table 3, "# MAVs").
    pub fn mavs(&self, app: AppId) -> u64 {
        self.findings
            .iter()
            .filter(|f| f.app == app && f.vulnerable)
            .count() as u64
    }

    /// All identified AWE hosts.
    pub fn total_hosts(&self) -> u64 {
        self.findings.len() as u64
    }

    /// All vulnerable hosts.
    pub fn total_mavs(&self) -> u64 {
        self.findings.iter().filter(|f| f.vulnerable).count() as u64
    }

    /// The vulnerable findings.
    pub fn vulnerable_findings(&self) -> impl Iterator<Item = &HostFinding> {
        self.findings.iter().filter(|f| f.vulnerable)
    }

    /// One-line description of the stage funnel: probes → open →
    /// spoke HTTP(S) → signature hits → findings → MAVs.
    pub fn funnel(&self) -> String {
        let open: u64 = self.port_stats.values().map(|s| s.open).sum();
        format!(
            "probes {} → open {} → spoke {} → signature hits {} → AWE hosts {} → MAVs {}",
            self.probes_sent,
            open,
            self.prefilter_hits + self.prefilter_discarded,
            self.prefilter_hits,
            self.total_hosts(),
            self.total_mavs(),
        )
    }

    /// Fraction of findings with a fingerprinted version.
    pub fn fingerprint_coverage(&self) -> f64 {
        if self.findings.is_empty() {
            return 0.0;
        }
        self.findings.iter().filter(|f| f.version.is_some()).count() as f64
            / self.findings.len() as f64
    }
}

impl ToJson for FingerprintMethod {
    fn to_json(&self) -> Value {
        match self {
            FingerprintMethod::Voluntary => "Voluntary",
            FingerprintMethod::KnowledgeBase => "KnowledgeBase",
        }
        .to_json()
    }
}

impl FromJson for FingerprintMethod {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        match value.as_str() {
            Some("Voluntary") => Ok(FingerprintMethod::Voluntary),
            Some("KnowledgeBase") => Ok(FingerprintMethod::KnowledgeBase),
            _ => Err(JsonError::Shape(format!(
                "unknown fingerprint method {}",
                value.write()
            ))),
        }
    }
}

impl ToJson for HostFinding {
    fn to_json(&self) -> Value {
        object([
            ("endpoint", self.endpoint.to_json()),
            ("scheme", self.scheme.to_json()),
            ("app", self.app.to_json()),
            ("vulnerable", self.vulnerable.to_json()),
            ("version", self.version.to_json()),
            ("fingerprint_method", self.fingerprint_method.to_json()),
        ])
    }
}

impl FromJson for HostFinding {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        Ok(HostFinding {
            endpoint: value.field("endpoint")?,
            scheme: value.field("scheme")?,
            app: value.field("app")?,
            vulnerable: value.field("vulnerable")?,
            version: value.field("version")?,
            fingerprint_method: value.field("fingerprint_method")?,
        })
    }
}

impl ToJson for PortStat {
    fn to_json(&self) -> Value {
        object([
            ("open", self.open.to_json()),
            ("http", self.http.to_json()),
            ("https", self.https.to_json()),
        ])
    }
}

impl ToJson for ScanReport {
    fn to_json(&self) -> Value {
        // Destructure so a future field cannot be silently dropped from
        // the JSON export.
        let ScanReport {
            port_stats,
            excluded_all_ports_open,
            addresses_probed,
            probes_sent,
            prefilter_discarded,
            prefilter_silent,
            prefilter_hits,
            findings,
        } = self;
        object([
            ("port_stats", port_stats.to_json()),
            ("excluded_all_ports_open", excluded_all_ports_open.to_json()),
            ("addresses_probed", addresses_probed.to_json()),
            ("probes_sent", probes_sent.to_json()),
            ("prefilter_discarded", prefilter_discarded.to_json()),
            ("prefilter_silent", prefilter_silent.to_json()),
            ("prefilter_hits", prefilter_hits.to_json()),
            ("findings", findings.to_json()),
        ])
    }
}

impl ScanReport {
    /// Compact deterministic JSON (sorted keys, no whitespace) — what
    /// the byte-identity tests compare.
    pub fn to_json_string(&self) -> String {
        self.to_json().write()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Telemetry;
    use nokeys_apps::release_history;
    use std::net::Ipv4Addr;

    fn finding(app: AppId, vulnerable: bool, with_version: bool) -> HostFinding {
        HostFinding {
            endpoint: Endpoint::new(Ipv4Addr::new(20, 0, 0, 1), 80),
            scheme: Scheme::Http,
            app,
            vulnerable,
            version: with_version.then(|| release_history(app)[0]),
            fingerprint_method: with_version.then_some(FingerprintMethod::Voluntary),
        }
    }

    #[test]
    fn aggregation_counts() {
        let report = ScanReport {
            findings: vec![
                finding(AppId::Docker, true, true),
                finding(AppId::Docker, false, false),
                finding(AppId::Hadoop, true, true),
            ],
            ..Default::default()
        };
        assert_eq!(report.hosts_running(AppId::Docker), 2);
        assert_eq!(report.mavs(AppId::Docker), 1);
        assert_eq!(report.total_hosts(), 3);
        assert_eq!(report.total_mavs(), 2);
        assert_eq!(report.vulnerable_findings().count(), 2);
        assert!((report.fingerprint_coverage() - 2.0 / 3.0).abs() < 1e-9);
    }

    /// Every count is read off the snapshot; a port gets a row iff it
    /// has open endpoints, and a missing counter reads as zero.
    #[test]
    fn counts_are_read_off_the_telemetry() {
        assert_eq!(
            ScanReport::from_telemetry(Vec::new(), &Telemetry::new().snapshot()),
            ScanReport::default()
        );

        let telemetry = Telemetry::new();
        for (name, n) in [
            ("stage1.addresses_probed", 10),
            ("stage1.probes_sent", 120),
            ("stage1.ports_open.80", 7),
            ("stage1.ports_open.443", 1),
            ("stage1.ports_open.8080", 0),
            ("stage2.http_responses.80", 5),
            ("stage2.https_responses.443", 1),
            ("stage2.discarded", 3),
            ("stage2.silent", 4),
            ("stage2.hits", 5),
            ("pipeline.tarpit_excluded", 2),
        ] {
            telemetry.counter(name).add(n);
        }
        let findings = vec![
            finding(AppId::Docker, true, true),
            finding(AppId::Hadoop, false, false),
        ];
        let report = ScanReport::from_telemetry(findings.clone(), &telemetry.snapshot());
        let port = |open, http, https| PortStat { open, http, https };
        assert_eq!(
            report,
            ScanReport {
                port_stats: [(80, port(7, 5, 0)), (443, port(1, 0, 1))].into(),
                excluded_all_ports_open: 2,
                addresses_probed: 10,
                probes_sent: 120,
                prefilter_discarded: 3,
                prefilter_silent: 4,
                prefilter_hits: 5,
                findings,
            }
        );
        assert!(!report.port_stats.contains_key(&8080), "0 open, no row");
    }

    #[test]
    fn release_date_passthrough() {
        let f = finding(AppId::Hadoop, true, true);
        assert_eq!(
            f.release_date(),
            Some(release_history(AppId::Hadoop)[0].released)
        );
        let f = finding(AppId::Hadoop, true, false);
        assert_eq!(f.release_date(), None);
    }

    #[test]
    fn report_serializes_to_json() {
        let report = ScanReport {
            findings: vec![finding(AppId::Nomad, true, false)],
            ..Default::default()
        };
        let json = report.to_json_string();
        assert!(json.contains("\"Nomad\""));
        assert!(json.contains("\"vulnerable\":true"));
        let value = crate::json::parse(json.as_bytes()).unwrap();
        let findings: Vec<HostFinding> = value.field("findings").unwrap();
        assert_eq!(findings, report.findings);
    }
}
