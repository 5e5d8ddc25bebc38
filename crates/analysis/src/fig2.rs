//! Figure 2: longevity of detected MAVs — percentage of hosts
//! vulnerable / fixed / offline over four weeks, grouped by application
//! category and by defaults.

use crate::render::{sparkline, Table};
use nokeys_apps::Category;
use nokeys_scanner::observer::{LongevityStudy, ObservedStatus};

/// Fraction of a subset of timelines in `status` at every observation
/// point.
fn series(
    study: &LongevityStudy,
    status: ObservedStatus,
    filter: &dyn Fn(usize) -> bool,
) -> Vec<f64> {
    let selected: Vec<usize> = (0..study.timelines.len()).filter(|i| filter(*i)).collect();
    if selected.is_empty() {
        return vec![0.0; study.times_secs.len()];
    }
    (0..study.times_secs.len())
        .map(|t| {
            // `statuses` is a public field, so a timeline may be shorter
            // than `times_secs`; read the gap as offline, like
            // `counts_at` does.
            let hits = selected
                .iter()
                .filter(|&&i| {
                    study.timelines[i]
                        .statuses
                        .get(t)
                        .copied()
                        .unwrap_or(ObservedStatus::Offline)
                        == status
                })
                .count();
            hits as f64 / selected.len() as f64
        })
        .collect()
}

/// Sample a series at (roughly) weekly points for tabular output.
fn weekly(series: &[f64]) -> Vec<f64> {
    if series.is_empty() {
        return Vec::new();
    }
    let last = series.len() - 1;
    [0usize, last / 4, last / 2, 3 * last / 4, last]
        .iter()
        .map(|&i| series[i])
        .collect()
}

/// Build the Figure 2 table.
pub fn build(study: &LongevityStudy) -> Table {
    let mut t = Table::new(
        "Figure 2 — Longevity of detected MAVs (fractions at start/w1/w2/w3/w4 + sparkline)",
        &["Series", "t0", "w1", "w2", "w3", "w4", "trend"],
    );
    let mut push = |label: &str, s: Vec<f64>| {
        let w = weekly(&s);
        let mut row = vec![label.to_string()];
        row.extend(w.iter().map(|v| format!("{:.0}%", v * 100.0)));
        row.push(sparkline(
            &s.iter()
                .step_by(8.max(s.len() / 40))
                .copied()
                .collect::<Vec<_>>(),
        ));
        t.row(&row);
    };

    let all = |_: usize| true;
    push(
        "All vulnerable",
        series(study, ObservedStatus::Vulnerable, &all),
    );
    push("All fixed", series(study, ObservedStatus::Fixed, &all));
    push("All offline", series(study, ObservedStatus::Offline, &all));

    for cat in Category::ALL {
        let filter =
            move |i: usize| -> bool { study.timelines[i].finding.app.info().category == cat };
        push(
            &format!("{} vulnerable", cat.as_str()),
            series(study, ObservedStatus::Vulnerable, &filter),
        );
    }

    // Per-application rows (the paper's left column), for the
    // applications with enough vulnerable instances to draw a curve.
    for app in nokeys_apps::AppId::in_scope() {
        let population = study
            .timelines
            .iter()
            .filter(|t| t.finding.app == app)
            .count();
        if population < 20 {
            continue;
        }
        let filter = move |i: usize| study.timelines[i].finding.app == app;
        push(
            &format!("{} vulnerable", app.name()),
            series(study, ObservedStatus::Vulnerable, &filter),
        );
    }

    for (label, want_default) in [("Insecure-by-default", true), ("Modified", false)] {
        let filter = move |i: usize| study.timelines[i].insecure_by_default == want_default;
        push(
            &format!("{label} vulnerable"),
            series(study, ObservedStatus::Vulnerable, &filter),
        );
        push(
            &format!("{label} fixed"),
            series(study, ObservedStatus::Fixed, &filter),
        );
        push(
            &format!("{label} offline"),
            series(study, ObservedStatus::Offline, &filter),
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use nokeys_http::{Endpoint, Scheme};
    use nokeys_scanner::observer::HostTimeline;
    use nokeys_scanner::{FingerprintMethod, HostFinding};
    use std::net::Ipv4Addr;

    fn study() -> LongevityStudy {
        let finding = HostFinding {
            endpoint: Endpoint::new(Ipv4Addr::new(20, 0, 0, 1), 8088),
            scheme: Scheme::Http,
            app: nokeys_apps::AppId::Hadoop,
            vulnerable: true,
            version: None,
            fingerprint_method: None::<FingerprintMethod>,
        };
        LongevityStudy {
            times_secs: vec![0, 1, 2, 3, 4],
            timelines: vec![
                HostTimeline {
                    finding: finding.clone(),
                    insecure_by_default: true,
                    // Ragged: shorter than `times_secs`. The missing
                    // tail reads as offline.
                    statuses: vec![
                        ObservedStatus::Vulnerable,
                        ObservedStatus::Vulnerable,
                        ObservedStatus::Offline,
                        ObservedStatus::Offline,
                    ],
                    updated: false,
                },
                HostTimeline {
                    finding,
                    insecure_by_default: false,
                    statuses: vec![ObservedStatus::Vulnerable; 5],
                    updated: false,
                },
            ],
        }
    }

    #[test]
    fn series_fractions() {
        let s = study();
        let v = series(&s, ObservedStatus::Vulnerable, &|_| true);
        assert_eq!(v, vec![1.0, 1.0, 0.5, 0.5, 0.5]);
        let o = series(&s, ObservedStatus::Offline, &|i| i == 0);
        assert_eq!(o, vec![0.0, 0.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn build_renders_all_series() {
        let t = build(&study());
        let s = t.render();
        assert!(s.contains("All vulnerable"));
        assert!(s.contains("Insecure-by-default fixed"));
        assert!(s.contains("NB vulnerable"));
    }
}
