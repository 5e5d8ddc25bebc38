//! Attack extraction from the central audit log.
//!
//! "If multiple commands were executed from the same source IP within 15
//! minutes, we counted all of the commands as a single attack. Note that
//! we only count the successful execution of system commands" (plus the
//! documented vigilante shutdowns).

use crate::logserver::AuditRecord;
use nokeys_apps::AppId;
use nokeys_netsim::{SimDuration, SimTime};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// The grouping window.
pub const GROUPING_WINDOW: SimDuration = SimDuration(15 * 60);

/// One detected attack.
#[derive(Debug, Clone)]
pub struct Attack {
    pub app: AppId,
    pub source: Ipv4Addr,
    /// Time of the first evidencing record.
    pub start: SimTime,
    /// Time of the last evidencing record in the group.
    pub end: SimTime,
    /// Normalized payload identities observed in the group.
    pub payloads: Vec<String>,
}

impl Attack {
    /// Primary payload identity (first observed).
    pub fn primary_payload(&self) -> &str {
        self.payloads.first().map(String::as_str).unwrap_or("")
    }
}

/// Extract attacks from the audit log.
pub fn detect_attacks(records: &[AuditRecord]) -> Vec<Attack> {
    // Evidence records, grouped per (app, source IP), in time order.
    let mut evidence: Vec<&AuditRecord> =
        records.iter().filter(|r| r.is_attack_evidence()).collect();
    evidence.sort_by_key(|r| (r.time, r.peer));

    let mut open: HashMap<(AppId, Ipv4Addr), Attack> = HashMap::new();
    let mut closed: Vec<Attack> = Vec::new();

    for record in evidence {
        let key = (record.honeypot, record.peer);
        let mut payloads = record.payload_identities();
        match open.get_mut(&key) {
            Some(attack) if record.time.since(attack.end) <= GROUPING_WINDOW => {
                attack.end = record.time;
                for p in payloads.drain(..) {
                    if !attack.payloads.contains(&p) {
                        attack.payloads.push(p);
                    }
                }
            }
            _ => {
                if let Some(done) = open.remove(&key) {
                    closed.push(done);
                }
                open.insert(
                    key,
                    Attack {
                        app: record.honeypot,
                        source: record.peer,
                        start: record.time,
                        end: record.time,
                        payloads,
                    },
                );
            }
        }
    }
    closed.extend(open.into_values());
    closed.sort_by_key(|a| (a.start, a.source));
    closed
}

/// Time from `study_start` to the first attack on each application
/// (Table 6, "First" column).
pub fn first_attack_hours(attacks: &[Attack], study_start: SimTime) -> HashMap<AppId, f64> {
    let mut out: HashMap<AppId, f64> = HashMap::new();
    for a in attacks {
        let hours = a.start.since(study_start).as_hours_f64();
        out.entry(a.app)
            .and_modify(|h| *h = h.min(hours))
            .or_insert(hours);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nokeys_apps::AppEvent;

    fn rec(app: AppId, ip: [u8; 4], secs: i64, cmd: Option<&str>) -> AuditRecord {
        AuditRecord {
            time: SimTime(secs),
            honeypot: app,
            peer: Ipv4Addr::from(ip),
            request_line: "POST /x".into(),
            body_excerpt: String::new(),
            events: match cmd {
                Some(c) => vec![AppEvent::CommandExecuted { command: c.into() }],
                None => vec![],
            },
        }
    }

    #[test]
    fn groups_same_ip_within_window() {
        let records = vec![
            rec(AppId::Hadoop, [81, 2, 0, 1], 0, Some("a")),
            rec(AppId::Hadoop, [81, 2, 0, 1], 10 * 60, Some("b")), // +10min: same attack
            rec(AppId::Hadoop, [81, 2, 0, 1], 40 * 60, Some("a")), // +30min: new attack
        ];
        let attacks = detect_attacks(&records);
        assert_eq!(attacks.len(), 2);
        assert_eq!(attacks[0].payloads, vec!["a", "b"]);
        assert_eq!(attacks[1].payloads, vec!["a"]);
    }

    #[test]
    fn window_extends_with_activity() {
        // Records 10 minutes apart chain into one attack even beyond 15
        // minutes from the start.
        let records = vec![
            rec(AppId::Docker, [81, 2, 0, 2], 0, Some("x")),
            rec(AppId::Docker, [81, 2, 0, 2], 10 * 60, Some("x")),
            rec(AppId::Docker, [81, 2, 0, 2], 20 * 60, Some("x")),
        ];
        assert_eq!(detect_attacks(&records).len(), 1);
    }

    #[test]
    fn different_ips_and_apps_do_not_group() {
        let records = vec![
            rec(AppId::Hadoop, [81, 2, 0, 1], 0, Some("a")),
            rec(AppId::Hadoop, [81, 2, 0, 2], 60, Some("a")),
            rec(AppId::Docker, [81, 2, 0, 1], 120, Some("a")),
        ];
        assert_eq!(detect_attacks(&records).len(), 3);
    }

    #[test]
    fn non_evidence_records_are_ignored() {
        let records = vec![
            rec(AppId::Hadoop, [81, 2, 0, 1], 0, None),
            rec(AppId::Hadoop, [81, 2, 0, 1], 30, None),
        ];
        assert!(detect_attacks(&records).is_empty());
    }

    #[test]
    fn first_attack_times() {
        let records = vec![
            rec(AppId::Hadoop, [81, 2, 0, 1], 3600, Some("a")),
            rec(AppId::Hadoop, [81, 2, 0, 2], 7200, Some("b")),
            rec(AppId::Docker, [81, 2, 0, 3], 7200, Some("c")),
        ];
        let attacks = detect_attacks(&records);
        let firsts = first_attack_hours(&attacks, SimTime(0));
        assert_eq!(firsts[&AppId::Hadoop], 1.0);
        assert_eq!(firsts[&AppId::Docker], 2.0);
    }
}
