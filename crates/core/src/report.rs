//! Scan report types.

use crate::json::{object, FromJson, JsonError, ToJson, Value};
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

/// Per-port counters for Table 2.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortStat {
    pub open: u64,
    pub http: u64,
    pub https: u64,
}

/// The complete output of one pipeline run.
///
/// `Clone` and [`FromJson`] exist for the
/// [`checkpoint`](crate::checkpoint) subsystem, which persists the
/// report accumulated so far and restores it on resume.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanReport {
    /// Table 2 data.
    pub port_stats: BTreeMap<u16, PortStat>,
    /// Hosts excluded because every scanned port appeared open
    /// (the paper's 3.0M network artifacts).
    pub excluded_all_ports_open: u64,
    /// Addresses probed in stage I.
    pub addresses_probed: u64,
    /// Individual SYN probes sent.
    pub probes_sent: u64,
    /// Endpoints that spoke HTTP(S) but matched no signature.
    pub prefilter_discarded: u64,
    /// Endpoints that answered neither HTTP nor HTTPS.
    pub prefilter_silent: u64,
    /// Endpoints whose body matched at least one signature.
    pub prefilter_hits: u64,
    /// Identified AWE hosts (one entry per host × application).
    pub findings: Vec<HostFinding>,
}

impl ScanReport {
    /// Fold another report into this one: counters add, per-port stats
    /// add field-wise, and `other`'s findings are appended after ours.
    ///
    /// This is the whole report reducer of the
    /// [`shard`](crate::shard) layer: every field except `findings` is
    /// an order-independent sum, and `findings` is ordered by stage-I
    /// batch sequence — so absorbing per-shard partial reports in
    /// ascending batch order reconstructs the single-pipeline report
    /// byte for byte.
    pub fn absorb(&mut self, other: ScanReport) {
        // Destructure so a future field cannot be silently dropped from
        // the merge.
        let ScanReport {
            port_stats,
            excluded_all_ports_open,
            addresses_probed,
            probes_sent,
            prefilter_discarded,
            prefilter_silent,
            prefilter_hits,
            findings,
        } = other;
        for (port, stat) in port_stats {
            let entry = self.port_stats.entry(port).or_default();
            entry.open += stat.open;
            entry.http += stat.http;
            entry.https += stat.https;
        }
        self.excluded_all_ports_open += excluded_all_ports_open;
        self.addresses_probed += addresses_probed;
        self.probes_sent += probes_sent;
        self.prefilter_discarded += prefilter_discarded;
        self.prefilter_silent += prefilter_silent;
        self.prefilter_hits += prefilter_hits;
        self.findings.extend(findings);
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

impl FromJson for PortStat {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        Ok(PortStat {
            open: value.field("open")?,
            http: value.field("http")?,
            https: value.field("https")?,
        })
    }
}

impl ToJson for ScanReport {
    fn to_json(&self) -> Value {
        // Destructure so a future field cannot be silently dropped from
        // the checkpoint.
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

impl FromJson for ScanReport {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        Ok(ScanReport {
            port_stats: value.field("port_stats")?,
            excluded_all_ports_open: value.field("excluded_all_ports_open")?,
            addresses_probed: value.field("addresses_probed")?,
            probes_sent: value.field("probes_sent")?,
            prefilter_discarded: value.field("prefilter_discarded")?,
            prefilter_silent: value.field("prefilter_silent")?,
            prefilter_hits: value.field("prefilter_hits")?,
            findings: value.field("findings")?,
        })
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

    #[test]
    fn absorb_sums_counters_and_appends_findings() {
        let mut a = ScanReport {
            excluded_all_ports_open: 1,
            addresses_probed: 10,
            probes_sent: 120,
            prefilter_discarded: 2,
            prefilter_silent: 3,
            prefilter_hits: 4,
            findings: vec![finding(AppId::Docker, true, true)],
            ..Default::default()
        };
        a.port_stats.insert(
            80,
            PortStat {
                open: 5,
                http: 4,
                https: 0,
            },
        );
        let mut b = ScanReport {
            excluded_all_ports_open: 2,
            addresses_probed: 20,
            probes_sent: 240,
            prefilter_discarded: 1,
            prefilter_silent: 1,
            prefilter_hits: 1,
            findings: vec![finding(AppId::Hadoop, false, false)],
            ..Default::default()
        };
        b.port_stats.insert(
            80,
            PortStat {
                open: 2,
                http: 1,
                https: 0,
            },
        );
        b.port_stats.insert(
            443,
            PortStat {
                open: 1,
                http: 0,
                https: 1,
            },
        );
        a.absorb(b);
        assert_eq!(a.excluded_all_ports_open, 3);
        assert_eq!(a.addresses_probed, 30);
        assert_eq!(a.probes_sent, 360);
        assert_eq!(a.prefilter_discarded, 3);
        assert_eq!(a.prefilter_silent, 4);
        assert_eq!(a.prefilter_hits, 5);
        assert_eq!(a.port_stats[&80].open, 7);
        assert_eq!(a.port_stats[&80].http, 5);
        assert_eq!(a.port_stats[&443].https, 1);
        assert_eq!(a.findings.len(), 2);
        assert_eq!(a.findings[0].app, AppId::Docker);
        assert_eq!(a.findings[1].app, AppId::Hadoop);
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
        let back = ScanReport::from_json(&crate::json::parse(json.as_bytes()).unwrap()).unwrap();
        assert_eq!(back, report);
    }
}
