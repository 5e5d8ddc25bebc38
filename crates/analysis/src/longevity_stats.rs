//! Longevity statistics beyond Figure 2's curves: per-application mean
//! time-in-vulnerable-state, the fixed/offline/still-vulnerable totals
//! and the version-update count (the paper: 139 fixed (3.2%), 1,823
//! offline (43.2%), 101 updated (2.4%); Jenkins and WordPress vulnerable
//! for the shortest time, Joomla and Drupal the longest).

use crate::render::{pct, Table};
use nokeys_apps::AppId;
use nokeys_scanner::observer::{LongevityStudy, ObservedStatus};

/// Mean observed time (hours) a host of `app` stayed vulnerable.
pub fn mean_vulnerable_hours(study: &LongevityStudy, app: AppId) -> Option<f64> {
    if study.times_secs.len() < 2 {
        return None;
    }
    let interval_hours = (study.times_secs[1] - study.times_secs[0]) as f64 / 3600.0;
    let rows: Vec<f64> = study
        .timelines
        .iter()
        .filter(|t| t.finding.app == app)
        .map(|t| {
            t.statuses
                .iter()
                .filter(|s| **s == ObservedStatus::Vulnerable)
                .count() as f64
                * interval_hours
        })
        .collect();
    if rows.is_empty() {
        None
    } else {
        Some(crate::stats::mean(&rows))
    }
}

/// End-of-study totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndState {
    pub vulnerable: u64,
    pub fixed: u64,
    pub offline: u64,
    pub updated: u64,
    pub total: u64,
}

/// Compute the end-of-study totals.
pub fn end_state(study: &LongevityStudy) -> EndState {
    let last = study.times_secs.len().saturating_sub(1);
    let counts = study.counts_at(last);
    EndState {
        vulnerable: counts.vulnerable,
        fixed: counts.fixed,
        offline: counts.offline,
        updated: study.updated_count(),
        total: study.timelines.len() as u64,
    }
}

/// Build the longevity-statistics table.
pub fn build(study: &LongevityStudy) -> Table {
    let s = end_state(study);
    let mut t = Table::new(
        "Longevity statistics after four weeks (paper: 3.2% fixed, 43.2% offline, 2.4% updated)",
        &["Metric", "Hosts", "Share"],
    );
    t.row(&[
        "still vulnerable".to_string(),
        s.vulnerable.to_string(),
        pct(s.vulnerable, s.total),
    ]);
    t.row(&[
        "fixed (online, MAV gone)".to_string(),
        s.fixed.to_string(),
        pct(s.fixed, s.total),
    ]);
    t.row(&[
        "offline / firewalled".to_string(),
        s.offline.to_string(),
        pct(s.offline, s.total),
    ]);
    t.row(&[
        "version updated".to_string(),
        s.updated.to_string(),
        pct(s.updated, s.total),
    ]);

    // Mean vulnerable duration per application, sorted shortest first
    // (the paper calls out Jenkins/WordPress as shortest, Joomla/Drupal
    // as longest).
    let mut rows: Vec<(AppId, f64)> = AppId::in_scope()
        .filter_map(|app| mean_vulnerable_hours(study, app).map(|h| (app, h)))
        .collect();
    rows.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
    for (app, hours) in rows {
        t.row(&[
            format!("mean vulnerable time, {}", app.name()),
            format!("{:.0} h", hours),
            String::new(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use nokeys_http::{Endpoint, Scheme};
    use nokeys_scanner::observer::HostTimeline;
    use nokeys_scanner::HostFinding;
    use std::net::Ipv4Addr;

    fn study() -> LongevityStudy {
        let make = |app: AppId, statuses: Vec<ObservedStatus>, updated: bool| HostTimeline {
            finding: HostFinding {
                endpoint: Endpoint::new(Ipv4Addr::new(20, 0, 0, 1), 80),
                scheme: Scheme::Http,
                app,
                vulnerable: true,
                version: None,
                fingerprint_method: None,
            },
            insecure_by_default: true,
            statuses,
            updated,
        };
        use ObservedStatus::*;
        LongevityStudy {
            times_secs: vec![0, 3600, 7200, 10800],
            timelines: vec![
                make(
                    AppId::Jenkins,
                    vec![Vulnerable, Offline, Offline, Offline],
                    false,
                ),
                make(
                    AppId::Drupal,
                    vec![Vulnerable, Vulnerable, Vulnerable, Vulnerable],
                    true,
                ),
                make(
                    AppId::Drupal,
                    vec![Vulnerable, Vulnerable, Fixed, Fixed],
                    false,
                ),
            ],
        }
    }

    #[test]
    fn end_state_totals() {
        let s = end_state(&study());
        assert_eq!(s.vulnerable, 1);
        assert_eq!(s.fixed, 1);
        assert_eq!(s.offline, 1);
        assert_eq!(s.updated, 1);
        assert_eq!(s.total, 3);
    }

    #[test]
    fn mean_vulnerable_duration_ranks_apps() {
        let s = study();
        let jenkins = mean_vulnerable_hours(&s, AppId::Jenkins).expect("present");
        let drupal = mean_vulnerable_hours(&s, AppId::Drupal).expect("present");
        assert!(jenkins < drupal, "{jenkins} < {drupal}");
        assert_eq!(mean_vulnerable_hours(&s, AppId::Gocd), None);
    }

    #[test]
    fn table_renders() {
        let t = build(&study());
        let out = t.render();
        assert!(out.contains("still vulnerable"));
        assert!(out.contains("mean vulnerable time, Jenkins"));
    }
}
