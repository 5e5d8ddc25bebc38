//! The scan-vs-compromise race (Section 5, Scanner 2): "the entire scan
//! took several hours to complete. During the time of the scan, multiple
//! instances got compromised. Hence, a scan with this scanner would be
//! too slow to detect and remediate internet-exposed vulnerabilities."
//!
//! The model: the scanner sweeps the fleet sequentially over its modeled
//! duration; every honeypot whose first compromise lands before the
//! scanner reaches it has already lost the race.

use crate::model::CommercialScanner;
use nokeys_apps::AppId;
use nokeys_honeypot::StudyResult;
use nokeys_netsim::SimTime;

/// Outcome of the race for one honeypot.
#[derive(Debug, Clone)]
pub struct RaceOutcome {
    pub app: AppId,
    /// Hours after study start when the scanner reaches this honeypot.
    pub scanner_arrives_hours: f64,
    /// Hours after study start of the first compromise, if any.
    pub first_compromise_hours: Option<f64>,
    /// Whether the attacker got there first.
    pub compromised_before_scan: bool,
}

/// Run the race for every honeypot the study deployed.
pub fn race(scanner: &CommercialScanner, study: &StudyResult) -> Vec<RaceOutcome> {
    let apps: Vec<AppId> = AppId::in_scope().collect();
    let per_target = scanner.scan_duration_hours / apps.len() as f64;
    apps.into_iter()
        .enumerate()
        .map(|(i, app)| {
            let scanner_arrives_hours = per_target * (i + 1) as f64;
            let first_compromise_hours = study
                .attacks_on(app)
                .map(|a| a.start.since(SimTime::HONEYPOT_START).as_hours_f64())
                .fold(None, |acc: Option<f64>, h| {
                    Some(acc.map_or(h, |a| a.min(h)))
                });
            RaceOutcome {
                app,
                scanner_arrives_hours,
                first_compromise_hours,
                compromised_before_scan: first_compromise_hours
                    .map(|h| h < scanner_arrives_hours)
                    .unwrap_or(false),
            }
        })
        .collect()
}

/// Honeypots compromised before the scanner reached them.
pub fn lost_races(outcomes: &[RaceOutcome]) -> usize {
    outcomes
        .iter()
        .filter(|o| o.compromised_before_scan)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SCANNER2;
    use nokeys_honeypot::detect::Attack;
    use std::net::Ipv4Addr;

    fn study_with(attacks: Vec<(AppId, f64)>) -> StudyResult {
        StudyResult {
            plan: nokeys_attack::study_plan(1),
            records: Vec::new(),
            attacks: attacks
                .into_iter()
                .map(|(app, hours)| Attack {
                    app,
                    source: Ipv4Addr::new(81, 2, 0, 1),
                    start: SimTime::HONEYPOT_START
                        + nokeys_netsim::SimDuration::seconds((hours * 3600.0) as i64),
                    end: SimTime::HONEYPOT_START,
                    payloads: vec!["x".to_string()],
                })
                .collect(),
            actors: Vec::new(),
            restores: Vec::new(),
        }
    }

    #[test]
    fn fast_compromises_beat_the_slow_scanner() {
        // Hadoop compromised at 0.8h; a 6-hour scan reaches it much
        // later (position 10 of 18 → 3.3h in).
        let study = study_with(vec![(AppId::Hadoop, 0.8), (AppId::Jenkins, 172.4)]);
        let outcomes = race(&SCANNER2, &study);
        let hadoop = outcomes.iter().find(|o| o.app == AppId::Hadoop).unwrap();
        assert!(hadoop.compromised_before_scan, "{hadoop:?}");
        // Jenkins's first attack came a week in: the scanner wins there.
        let jenkins = outcomes.iter().find(|o| o.app == AppId::Jenkins).unwrap();
        assert!(!jenkins.compromised_before_scan);
        assert_eq!(lost_races(&outcomes), 1);
    }

    #[test]
    fn unattacked_honeypots_never_lose() {
        let study = study_with(vec![]);
        let outcomes = race(&SCANNER2, &study);
        assert_eq!(lost_races(&outcomes), 0);
        assert_eq!(outcomes.len(), 18);
    }
}
