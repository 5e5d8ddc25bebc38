//! Central append-only audit log.
//!
//! "All honeypots send their logs to a central, append-only log under our
//! control" — attackers who gain root on a honeypot cannot rewrite
//! history. The API enforces append-only access: records can be added,
//! read and snapshotted, never removed. The one field written after
//! the append is the time, which the driver that delivered the requests
//! stamps — the collector's ingest timestamp.

use nokeys_apps::{AppEvent, AppId};
use nokeys_netsim::SimTime;
use std::net::Ipv4Addr;
use std::sync::Mutex;

/// One audited interaction with a honeypot.
#[derive(Debug, Clone)]
pub struct AuditRecord {
    pub time: SimTime,
    /// Which honeypot (application) was contacted.
    pub honeypot: AppId,
    /// Source address of the interaction.
    pub peer: Ipv4Addr,
    /// `METHOD /path` of the request (the Packetbeat view).
    pub request_line: String,
    /// Excerpt of the request body — Packetbeat "also collect\[s\] POST
    /// request bodies", which is how payloads are recovered from traffic.
    pub body_excerpt: String,
    /// Security-relevant state transitions (the Auditbeat view).
    pub events: Vec<AppEvent>,
}

impl AuditRecord {
    /// Whether this record evidences an attack: a successful command
    /// execution through the exposed functionality, an installation
    /// hijack, or a deliberate shutdown (the vigilante).
    pub fn is_attack_evidence(&self) -> bool {
        self.events
            .iter()
            .any(|e| e.is_compromise() || matches!(e, AppEvent::ShutdownRequested))
    }

    /// Normalized payload identities carried by this record (the strings
    /// clustering groups by).
    pub fn payload_identities(&self) -> Vec<String> {
        self.events
            .iter()
            .filter_map(|e| match e {
                AppEvent::ShutdownRequested => Some("shutdown".to_string()),
                other => other.as_execution().map(|s| s.to_string()),
            })
            .collect()
    }
}

/// The append-only store.
#[derive(Debug, Default)]
pub struct CentralLog {
    records: Mutex<Vec<AuditRecord>>,
}

impl CentralLog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one record.
    pub fn append(&self, record: AuditRecord) {
        self.records.lock().expect("not poisoned").push(record);
    }

    /// Snapshot of all records in append order.
    pub fn snapshot(&self) -> Vec<AuditRecord> {
        self.records.lock().expect("not poisoned").clone()
    }

    /// Whether any record from index `from` on satisfies `pred`. Reads
    /// in place: nothing is copied, so checking the tail of a long log
    /// costs only that tail.
    pub fn any_since(&self, from: usize, pred: impl Fn(&AuditRecord) -> bool) -> bool {
        let records = self.records.lock().expect("not poisoned");
        records
            .get(from..)
            .is_some_and(|tail| tail.iter().any(pred))
    }

    /// Stamp every record from index `from` on with `time`, the instant
    /// the driver delivered the requests that produced them.
    pub fn stamp_since(&self, from: usize, time: SimTime) {
        let mut records = self.records.lock().expect("not poisoned");
        for record in records.iter_mut().skip(from) {
            record.time = time;
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.lock().expect("not poisoned").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(events: Vec<AppEvent>) -> AuditRecord {
        AuditRecord {
            time: SimTime(0),
            honeypot: AppId::Hadoop,
            peer: Ipv4Addr::new(81, 2, 0, 1),
            request_line: "POST /ws/v1/cluster/apps".to_string(),
            body_excerpt: String::new(),
            events,
        }
    }

    #[test]
    fn append_and_snapshot_preserve_order() {
        let log = CentralLog::new();
        assert!(log.is_empty());
        log.append(record(vec![]));
        log.append(record(vec![AppEvent::TerminalOpened]));
        assert_eq!(log.len(), 2);
        let snap = log.snapshot();
        assert!(snap[0].events.is_empty());
        assert_eq!(snap[1].events.len(), 1);
    }

    #[test]
    fn any_since_reads_only_the_tail() {
        let log = CentralLog::new();
        log.append(record(vec![AppEvent::ShutdownRequested]));
        log.append(record(vec![AppEvent::TerminalOpened]));
        assert!(log.any_since(0, AuditRecord::is_attack_evidence));
        assert!(!log.any_since(1, AuditRecord::is_attack_evidence));
        assert!(!log.any_since(2, |_| true), "an empty tail matches nothing");
        assert!(!log.any_since(3, |_| true), "past the end is an empty tail");
    }

    #[test]
    fn stamp_since_times_only_the_tail() {
        let log = CentralLog::new();
        log.append(record(vec![]));
        log.stamp_since(0, SimTime(60));
        log.append(record(vec![]));
        log.append(record(vec![]));
        log.stamp_since(1, SimTime(120));
        log.stamp_since(3, SimTime(999));
        let times: Vec<SimTime> = log.snapshot().iter().map(|r| r.time).collect();
        assert_eq!(times, [SimTime(60), SimTime(120), SimTime(120)]);
    }

    #[test]
    fn attack_evidence_classification() {
        assert!(record(vec![AppEvent::CommandExecuted {
            command: "id".into()
        }])
        .is_attack_evidence());
        assert!(record(vec![AppEvent::InstallCompleted {
            admin_user: "x".into()
        }])
        .is_attack_evidence());
        assert!(record(vec![AppEvent::ShutdownRequested]).is_attack_evidence());
        assert!(!record(vec![AppEvent::TerminalOpened]).is_attack_evidence());
        assert!(!record(vec![]).is_attack_evidence());
    }

    #[test]
    fn payload_identities_normalize_events() {
        let r = record(vec![
            AppEvent::CommandExecuted {
                command: "curl x | sh".into(),
            },
            AppEvent::ShutdownRequested,
            AppEvent::TerminalOpened,
        ]);
        assert_eq!(r.payload_identities(), vec!["curl x | sh", "shutdown"]);
    }
}
