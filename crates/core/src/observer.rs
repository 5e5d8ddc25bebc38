//! Longevity observer (RQ3 / Figure 2).
//!
//! "We repeated our scan on the 4,221 vulnerable hosts every three hours
//! over a time span of four weeks." For each vulnerable host the observer
//! re-runs the detection plugin and classifies the host as still
//! *vulnerable*, *fixed* (reachable, plugin negative) or *offline*
//! (unreachable). It also re-fingerprints to spot version updates.
//!
//! The observer is time-source agnostic: the caller supplies a callback
//! that advances the (virtual or real) clock to a given offset in seconds
//! before each rescan round.
//!
//! # Incremental rescans
//!
//! A finished [`LongevityStudy`] is also a checkpoint:
//! [`observe_incremental`] extends a prior study to a longer window
//! instead of starting over. Hosts that have been offline for the last
//! [`ObserverConfig::terminal_offline_after`] rounds are not re-probed
//! (their timelines stop growing — timelines are *ragged* after an
//! incremental round), and version fingerprints are reused when a cheap
//! hash pass over the host's static assets shows nothing changed.

use crate::fingerprint::{crawler, Fingerprinter};
use crate::plugin::detect_mav;
use crate::report::HostFinding;
use crate::telemetry::Telemetry;
use nokeys_http::{Client, Endpoint, ProbeOutcome, Transport};

/// Status of one host at one observation point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObservedStatus {
    Vulnerable,
    Fixed,
    Offline,
}

impl ObservedStatus {
    /// Lowercase label, used for telemetry counter names.
    pub fn label(self) -> &'static str {
        match self {
            ObservedStatus::Vulnerable => "vulnerable",
            ObservedStatus::Fixed => "fixed",
            ObservedStatus::Offline => "offline",
        }
    }
}

/// Host counts per status at one observation point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatusCounts {
    /// Hosts still confirmed vulnerable.
    pub vulnerable: u64,
    /// Hosts reachable but no longer confirmed (patched or secured).
    pub fixed: u64,
    /// Hosts that did not respond this round.
    pub offline: u64,
}

impl StatusCounts {
    /// All observed hosts (the three statuses are exhaustive).
    pub fn total(&self) -> u64 {
        self.vulnerable + self.fixed + self.offline
    }
}

/// Timeline of one host across all observation points.
#[derive(Debug, Clone)]
pub struct HostTimeline {
    pub finding: HostFinding,
    /// Whether the deployment is insecure *by default* (versus explicitly
    /// modified) — Figure 2 groups by this.
    pub insecure_by_default: bool,
    /// One status per observation time. After an incremental round this
    /// may be *shorter* than [`LongevityStudy::times_secs`]: a host
    /// classified terminally offline stops accumulating observations
    /// (every missing entry reads as [`ObservedStatus::Offline`]).
    pub statuses: Vec<ObservedStatus>,
    /// Whether the fingerprinted version changed during observation.
    pub updated: bool,
    /// `(path, hash)` pairs from the last asset crawl, used by
    /// incremental rescans to skip re-fingerprinting hosts whose static
    /// files have not changed. Empty for never-crawled hosts.
    pub asset_hashes: Vec<(String, u64)>,
}

impl HostTimeline {
    /// Whether the last `threshold` observations are all offline (with
    /// at least `threshold` observations recorded). Incremental rescans
    /// stop re-probing such hosts.
    pub fn terminally_offline(&self, threshold: usize) -> bool {
        threshold > 0
            && self.statuses.len() >= threshold
            && self.statuses[self.statuses.len() - threshold..]
                .iter()
                .all(|&s| s == ObservedStatus::Offline)
    }
}

/// Full longevity study output.
#[derive(Debug, Clone)]
pub struct LongevityStudy {
    /// Observation offsets in seconds from the study start.
    pub times_secs: Vec<i64>,
    pub timelines: Vec<HostTimeline>,
}

impl LongevityStudy {
    /// Count hosts in each status at observation index `i`.
    ///
    /// Timelines with no observation at `i` — hosts an incremental
    /// rescan stopped re-probing as terminally offline — count as
    /// [`ObservedStatus::Offline`], so the totals always cover every
    /// host in the study.
    pub fn counts_at(&self, i: usize) -> StatusCounts {
        let mut counts = StatusCounts::default();
        for t in &self.timelines {
            let status = t
                .statuses
                .get(i)
                .copied()
                .unwrap_or(ObservedStatus::Offline);
            match status {
                ObservedStatus::Vulnerable => counts.vulnerable += 1,
                ObservedStatus::Fixed => counts.fixed += 1,
                ObservedStatus::Offline => counts.offline += 1,
            }
        }
        counts
    }

    /// Number of hosts whose version was updated during the study.
    pub fn updated_count(&self) -> u64 {
        self.timelines.iter().filter(|t| t.updated).count() as u64
    }
}

/// Observer configuration.
#[derive(Debug, Clone)]
pub struct ObserverConfig {
    /// Seconds between rescans (paper: 3 hours).
    pub interval_secs: i64,
    /// Total observation window (paper: 28 days).
    pub window_secs: i64,
    /// Consecutive offline observations after which an *incremental*
    /// rescan stops re-probing a host (default 8 — a full day at the
    /// paper's 3-hour cadence). The initial observation pass always
    /// probes every host every round; `0` disables the skip entirely.
    pub terminal_offline_after: usize,
}

impl Default for ObserverConfig {
    fn default() -> Self {
        ObserverConfig {
            interval_secs: 3 * 3600,
            window_secs: 28 * 86_400,
            terminal_offline_after: 8,
        }
    }
}

/// One host status change seen during an incremental rescan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatusTransition {
    pub endpoint: Endpoint,
    /// Observation offset (seconds from study start) of the new status.
    pub at_secs: i64,
    pub from: ObservedStatus,
    pub to: ObservedStatus,
}

/// What an incremental rescan did, reconciling with the
/// `observer.rescan.*` counters.
#[derive(Debug, Clone, Default)]
pub struct RescanDelta {
    /// Rescan rounds appended to the study.
    pub rounds: u64,
    /// Host-rounds skipped because the host was terminally offline
    /// (`observer.rescan.skipped`).
    pub skipped: u64,
    /// Host-rounds actually re-probed (`observer.rescan.reprobed`).
    pub reprobed: u64,
    /// Full fingerprint re-runs after the asset hash pass saw a change
    /// or had no cache (`observer.rescan.refingerprinted`).
    pub refingerprinted: u64,
    /// Fingerprint checks satisfied by unchanged asset hashes
    /// (`observer.rescan.reused`).
    pub fingerprints_reused: u64,
    /// Status changes between consecutive observations of a host.
    pub transitions: Vec<StatusTransition>,
}

/// Run the longevity observation.
///
/// `advance_clock(secs)` is called before each round with the offset from
/// the study start; with the simulated transport this maps to
/// `SimTransport::set_time`.
pub fn observe<T, F>(
    client: &Client<T>,
    findings: &[HostFinding],
    config: &ObserverConfig,
    advance_clock: F,
) -> LongevityStudy
where
    T: Transport,
    F: FnMut(i64),
{
    observe_instrumented(
        &Telemetry::default(),
        client,
        findings,
        config,
        advance_clock,
    )
}

/// [`observe`] with telemetry: per-round status counts
/// (`observer.status.<status>`), status transitions between consecutive
/// rounds (`observer.transitions`), version updates
/// (`observer.version_updates`), rounds (`observer.rounds`) and a
/// virtual-clock timer charging one unit per host re-check
/// (`observer.recheck`).
pub fn observe_instrumented<T, F>(
    telemetry: &Telemetry,
    client: &Client<T>,
    findings: &[HostFinding],
    config: &ObserverConfig,
    mut advance_clock: F,
) -> LongevityStudy
where
    T: Transport,
    F: FnMut(i64),
{
    let rounds = telemetry.counter("observer.rounds");
    let status_counters = [
        telemetry.counter("observer.status.vulnerable"),
        telemetry.counter("observer.status.fixed"),
        telemetry.counter("observer.status.offline"),
    ];
    let status_counter = |status: ObservedStatus| match status {
        ObservedStatus::Vulnerable => &status_counters[0],
        ObservedStatus::Fixed => &status_counters[1],
        ObservedStatus::Offline => &status_counters[2],
    };
    let transitions = telemetry.counter("observer.transitions");
    let version_updates = telemetry.counter("observer.version_updates");
    let recheck = telemetry.timer("observer.recheck");

    let fingerprinter = Fingerprinter::with_telemetry(telemetry);
    let times: Vec<i64> = (0..=config.window_secs / config.interval_secs)
        .map(|i| i * config.interval_secs)
        .collect();

    let mut timelines: Vec<HostTimeline> = findings
        .iter()
        .map(|f| HostTimeline {
            finding: f.clone(),
            insecure_by_default: f
                .version
                .map(|v| nokeys_apps::version::insecure_by_default(f.app, &v))
                .unwrap_or(false),
            statuses: Vec::with_capacity(times.len()),
            updated: false,
            asset_hashes: Vec::new(),
        })
        .collect();

    for &t in &times {
        advance_clock(t);
        rounds.incr();
        recheck.record(timelines.len() as u64);
        for timeline in &mut timelines {
            // Once offline or fixed, the paper keeps tracking: a fixed
            // host can still disappear, an offline host could return.
            // Re-check every round.
            let ep = timeline.finding.endpoint;
            let status = match client.transport().probe(ep) {
                ProbeOutcome::Open => {
                    if detect_mav(client, timeline.finding.app, ep, timeline.finding.scheme) {
                        ObservedStatus::Vulnerable
                    } else {
                        ObservedStatus::Fixed
                    }
                }
                _ => ObservedStatus::Offline,
            };
            status_counter(status).incr();
            if timeline.statuses.last().is_some_and(|&prev| prev != status) {
                transitions.incr();
            }
            timeline.statuses.push(status);

            // Version-update tracking (2.4% of hosts in the paper).
            if !timeline.updated && status != ObservedStatus::Offline {
                if let Some(before) = timeline.finding.version {
                    if let Some((now, _)) = fingerprinter.fingerprint(
                        client,
                        timeline.finding.app,
                        ep,
                        timeline.finding.scheme,
                    ) {
                        if now.triple() != before.triple() {
                            timeline.updated = true;
                            version_updates.incr();
                        }
                    }
                }
            }
        }
    }

    LongevityStudy {
        times_secs: times,
        timelines,
    }
}

/// Extend a prior [`LongevityStudy`] to `config.window_secs` instead of
/// re-observing from scratch.
///
/// New rounds continue at `config.interval_secs` after the prior study's
/// last observation. Per round, each host is either:
///
/// * **skipped** — [`HostTimeline::terminally_offline`] under
///   [`ObserverConfig::terminal_offline_after`]; no probe is sent and no
///   status is appended (the timeline goes ragged;
///   [`LongevityStudy::counts_at`] reads the gap as offline), or
/// * **re-probed** — classified exactly like the initial pass.
///
/// Version tracking is also incremental: before re-running the full
/// fingerprinter, the host's static assets are hashed and compared with
/// [`HostTimeline::asset_hashes`]; an unchanged host reuses its prior
/// fingerprint. Everything is counted under `observer.rescan.*`
/// (`skipped`, `reprobed`, `refingerprinted`, `reused`), and the
/// returned [`RescanDelta`] reconciles with those counters:
/// `skipped + reprobed == timelines × new rounds`.
///
/// If the prior study already covers `config.window_secs`, no rounds run
/// and the study is returned unchanged (empty delta).
pub fn observe_incremental<T, F>(
    telemetry: &Telemetry,
    client: &Client<T>,
    prior: LongevityStudy,
    config: &ObserverConfig,
    mut advance_clock: F,
) -> (LongevityStudy, RescanDelta)
where
    T: Transport,
    F: FnMut(i64),
{
    let rounds = telemetry.counter("observer.rounds");
    let status_counters = [
        telemetry.counter("observer.status.vulnerable"),
        telemetry.counter("observer.status.fixed"),
        telemetry.counter("observer.status.offline"),
    ];
    let status_counter = |status: ObservedStatus| match status {
        ObservedStatus::Vulnerable => &status_counters[0],
        ObservedStatus::Fixed => &status_counters[1],
        ObservedStatus::Offline => &status_counters[2],
    };
    let transitions = telemetry.counter("observer.transitions");
    let version_updates = telemetry.counter("observer.version_updates");
    let recheck = telemetry.timer("observer.recheck");
    let rescan_skipped = telemetry.counter("observer.rescan.skipped");
    let rescan_reprobed = telemetry.counter("observer.rescan.reprobed");
    let rescan_refingerprinted = telemetry.counter("observer.rescan.refingerprinted");
    let rescan_reused = telemetry.counter("observer.rescan.reused");

    let fingerprinter = Fingerprinter::with_telemetry(telemetry);
    let mut study = prior;
    let mut delta = RescanDelta::default();

    // Continue the cadence after the last prior observation. A prior
    // study is never empty in practice, but starting a cold one here is
    // well-defined: round 0, then every interval.
    let mut t = match study.times_secs.last() {
        Some(&last) => last + config.interval_secs,
        None => 0,
    };
    while t <= config.window_secs {
        advance_clock(t);
        rounds.incr();
        delta.rounds += 1;
        study.times_secs.push(t);

        let threshold = config.terminal_offline_after;
        let mut reprobed_this_round = 0u64;
        for timeline in &mut study.timelines {
            if timeline.terminally_offline(threshold) {
                rescan_skipped.incr();
                delta.skipped += 1;
                continue;
            }
            rescan_reprobed.incr();
            delta.reprobed += 1;
            reprobed_this_round += 1;

            let ep = timeline.finding.endpoint;
            let status = match client.transport().probe(ep) {
                ProbeOutcome::Open => {
                    if detect_mav(client, timeline.finding.app, ep, timeline.finding.scheme) {
                        ObservedStatus::Vulnerable
                    } else {
                        ObservedStatus::Fixed
                    }
                }
                _ => ObservedStatus::Offline,
            };
            status_counter(status).incr();
            if let Some(&prev) = timeline.statuses.last() {
                if prev != status {
                    transitions.incr();
                    delta.transitions.push(StatusTransition {
                        endpoint: ep,
                        at_secs: t,
                        from: prev,
                        to: status,
                    });
                }
            }
            timeline.statuses.push(status);

            // Incremental version tracking: hash the static assets
            // first; an unchanged host keeps its prior fingerprint
            // without re-running voluntary extraction or the
            // knowledge-base identification.
            if !timeline.updated && status != ObservedStatus::Offline {
                if let Some(before) = timeline.finding.version {
                    let hashes = crawler::crawl(
                        client,
                        fingerprinter.knowledge_base(),
                        ep,
                        timeline.finding.scheme,
                    );
                    if !timeline.asset_hashes.is_empty() && hashes == timeline.asset_hashes {
                        rescan_reused.incr();
                        delta.fingerprints_reused += 1;
                    } else {
                        rescan_refingerprinted.incr();
                        delta.refingerprinted += 1;
                        timeline.asset_hashes = hashes;
                        if let Some((now, _)) = fingerprinter.fingerprint(
                            client,
                            timeline.finding.app,
                            ep,
                            timeline.finding.scheme,
                        ) {
                            if now.triple() != before.triple() {
                                timeline.updated = true;
                                version_updates.incr();
                            }
                        }
                    }
                }
            }
        }
        recheck.record(reprobed_this_round);
        t += config.interval_secs;
    }

    (study, delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Pipeline, PipelineConfig};
    use nokeys_netsim::{SimTime, SimTransport, Universe, UniverseConfig};
    use std::sync::Arc;

    fn study_with_telemetry(telemetry: &Telemetry) -> LongevityStudy {
        let t = SimTransport::new(Arc::new(Universe::generate(UniverseConfig::tiny(7))));
        let client = nokeys_http::Client::new(t.clone());
        let pipeline =
            Pipeline::new(PipelineConfig::builder(vec!["20.0.0.0/16".parse().unwrap()]).build());
        let report = pipeline.run(&client).expect("pipeline failed");
        let vulnerable: Vec<_> = report.vulnerable_findings().cloned().collect();
        assert!(!vulnerable.is_empty());
        // Daily rescans keep the test fast; the repro harness uses the
        // paper's 3-hour cadence.
        let config = ObserverConfig {
            interval_secs: 86_400,
            window_secs: 28 * 86_400,
            terminal_offline_after: 8,
        };
        observe_instrumented(telemetry, &client, &vulnerable, &config, |secs| {
            t.set_time(SimTime(secs))
        })
    }

    fn study() -> LongevityStudy {
        study_with_telemetry(&Telemetry::default())
    }

    #[test]
    fn everything_starts_vulnerable_and_decays() {
        let s = study();
        assert_eq!(s.times_secs.len(), 29);
        let start = s.counts_at(0);
        assert_eq!(start.fixed, 0, "nothing fixed at t=0");
        assert_eq!(start.offline, 0, "nothing offline at t=0");
        assert!(start.vulnerable > 0);
        let last = s.times_secs.len() - 1;
        let end = s.counts_at(last);
        assert_eq!(end.total(), start.vulnerable);
        assert!(
            end.vulnerable < start.vulnerable,
            "some hosts disappear or get fixed over four weeks"
        );
        // The paper's headline: more than a third (they found >half)
        // still vulnerable after four weeks.
        assert!(
            end.vulnerable * 3 > start.vulnerable,
            "too much decay: {}/{}",
            end.vulnerable,
            start.vulnerable
        );
    }

    /// Observer counters reconcile with the study they were recorded
    /// alongside.
    #[test]
    fn telemetry_reconciles_with_study() {
        let telemetry = Telemetry::new();
        let s = study_with_telemetry(&telemetry);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("observer.rounds"), s.times_secs.len() as u64);
        let mut expected = StatusCounts::default();
        let mut expected_transitions = 0u64;
        for timeline in &s.timelines {
            for (i, status) in timeline.statuses.iter().enumerate() {
                match status {
                    ObservedStatus::Vulnerable => expected.vulnerable += 1,
                    ObservedStatus::Fixed => expected.fixed += 1,
                    ObservedStatus::Offline => expected.offline += 1,
                }
                if i > 0 && timeline.statuses[i - 1] != *status {
                    expected_transitions += 1;
                }
            }
        }
        assert_eq!(
            snap.counter("observer.status.vulnerable"),
            expected.vulnerable
        );
        assert_eq!(snap.counter("observer.status.fixed"), expected.fixed);
        assert_eq!(snap.counter("observer.status.offline"), expected.offline);
        assert_eq!(snap.counter("observer.transitions"), expected_transitions);
        assert_eq!(snap.counter("observer.version_updates"), s.updated_count());
        assert_eq!(
            snap.timings["observer.recheck"].units,
            s.times_secs.len() as u64 * s.timelines.len() as u64
        );
    }

    #[test]
    fn statuses_align_with_times() {
        let s = study();
        for t in &s.timelines {
            assert_eq!(t.statuses.len(), s.times_secs.len());
        }
    }

    #[test]
    fn insecure_by_default_classification_present() {
        let s = study();
        let by_default = s.timelines.iter().filter(|t| t.insecure_by_default).count();
        let modified = s.timelines.len() - by_default;
        // Both groups exist in a calibrated universe (GoCD/Hadoop/... are
        // insecure by default; Consul/K8s/... require modification).
        assert!(by_default > 0, "no insecure-by-default hosts");
        assert!(modified > 0, "no explicitly modified hosts");
    }

    fn toy_timeline(statuses: Vec<ObservedStatus>) -> HostTimeline {
        HostTimeline {
            finding: HostFinding {
                endpoint: Endpoint::new(std::net::Ipv4Addr::new(20, 0, 0, 1), 80),
                scheme: nokeys_http::Scheme::Http,
                app: nokeys_apps::AppId::Docker,
                vulnerable: true,
                version: None,
                fingerprint_method: None,
            },
            insecure_by_default: true,
            statuses,
            updated: false,
            asset_hashes: Vec::new(),
        }
    }

    /// Regression: `counts_at` used to index `statuses[i]` directly and
    /// panicked on ragged timelines (hosts an incremental rescan stopped
    /// probing). Missing observations must read as offline.
    #[test]
    fn counts_at_tolerates_ragged_timelines() {
        use ObservedStatus::*;
        let s = LongevityStudy {
            times_secs: vec![0, 100, 200],
            timelines: vec![
                toy_timeline(vec![Vulnerable, Vulnerable, Fixed]),
                toy_timeline(vec![Vulnerable, Offline]), // ragged
                toy_timeline(vec![Offline]),             // ragged
            ],
        };
        assert_eq!(
            s.counts_at(0),
            StatusCounts {
                vulnerable: 2,
                fixed: 0,
                offline: 1
            }
        );
        assert_eq!(
            s.counts_at(2),
            StatusCounts {
                vulnerable: 0,
                fixed: 1,
                offline: 2
            }
        );
        // Entirely past the recorded data: everything reads offline.
        assert_eq!(s.counts_at(9).offline, 3);
        assert_eq!(s.counts_at(9).total(), 3);
    }

    #[test]
    fn terminal_offline_detection() {
        use ObservedStatus::*;
        let t = toy_timeline(vec![Vulnerable, Offline, Offline]);
        assert!(t.terminally_offline(2));
        assert!(!t.terminally_offline(3), "vulnerable within the window");
        assert!(
            !t.terminally_offline(4),
            "fewer observations than the threshold"
        );
        assert!(!t.terminally_offline(0), "0 disables the skip");
        let live = toy_timeline(vec![Offline, Offline, Vulnerable]);
        assert!(!live.terminally_offline(2));
    }

    /// The paper's recurring rescan ("every three hours over a time
    /// span of four weeks") may run as one observation or be extended
    /// round by round: a study observed to round N and then extended is
    /// the study a one-shot observation over the whole window produces.
    /// Host for host with the terminal-offline skip disabled; count for
    /// count with it enabled (a skipped host reads as offline, which in
    /// this universe it stays).
    #[test]
    fn incremental_rescan_equals_one_shot_observation() {
        let t = SimTransport::new(Arc::new(Universe::generate(UniverseConfig::tiny(7))));
        let client = nokeys_http::Client::new(t.clone());
        let pipeline =
            Pipeline::new(PipelineConfig::builder(vec!["20.0.0.0/16".parse().unwrap()]).build());
        let report = pipeline.run(&client).expect("pipeline failed");
        let vulnerable: Vec<_> = report.vulnerable_findings().cloned().collect();
        let advance = |secs| t.set_time(SimTime(secs));

        for terminal_offline_after in [0, 2] {
            let full = ObserverConfig {
                interval_secs: 86_400,
                window_secs: 28 * 86_400,
                terminal_offline_after,
            };
            let one_shot = observe(&client, &vulnerable, &full, advance);

            let half = ObserverConfig {
                window_secs: 14 * 86_400,
                ..full.clone()
            };
            let prior = observe(&client, &vulnerable, &half, advance);
            let (extended, delta) =
                observe_incremental(&Telemetry::new(), &client, prior, &full, advance);

            assert_eq!(extended.times_secs, one_shot.times_secs);
            assert_eq!(extended.timelines.len(), one_shot.timelines.len());
            for i in 0..one_shot.times_secs.len() {
                assert_eq!(extended.counts_at(i), one_shot.counts_at(i), "round {i}");
            }
            assert_eq!(extended.updated_count(), one_shot.updated_count());
            if terminal_offline_after == 0 {
                assert_eq!(delta.skipped, 0);
                for (a, b) in extended.timelines.iter().zip(&one_shot.timelines) {
                    assert_eq!(a.finding, b.finding);
                    assert_eq!(a.statuses, b.statuses, "{}", a.finding.endpoint);
                    assert_eq!(a.updated, b.updated, "{}", a.finding.endpoint);
                }
            } else {
                assert!(delta.skipped > 0, "the skip never engaged");
                // Observed prefixes agree status for status; the skipped
                // tail of a ragged timeline is offline in the one-shot run.
                for (a, b) in extended.timelines.iter().zip(&one_shot.timelines) {
                    let n = a.statuses.len();
                    assert_eq!(a.statuses[..], b.statuses[..n]);
                    assert!(b.statuses[n..]
                        .iter()
                        .all(|&s| s == ObservedStatus::Offline));
                }
            }
        }
    }

    /// Extending a study re-probes strictly fewer host-rounds than a
    /// from-scratch pass, and the `observer.rescan.*` counters reconcile
    /// with the returned delta.
    #[test]
    fn incremental_rescan_reconciles() {
        let t = SimTransport::new(Arc::new(Universe::generate(UniverseConfig::tiny(7))));
        let client = nokeys_http::Client::new(t.clone());
        let pipeline =
            Pipeline::new(PipelineConfig::builder(vec!["20.0.0.0/16".parse().unwrap()]).build());
        let report = pipeline.run(&client).expect("pipeline failed");
        let vulnerable: Vec<_> = report.vulnerable_findings().cloned().collect();

        // Initial pass: two weeks at daily cadence.
        let config = ObserverConfig {
            interval_secs: 86_400,
            window_secs: 14 * 86_400,
            terminal_offline_after: 2,
        };
        let prior = observe(&client, &vulnerable, &config, |secs| {
            t.set_time(SimTime(secs))
        });
        let prior_rounds = prior.times_secs.len();
        let n_hosts = prior.timelines.len();

        // Incremental extension to four weeks.
        let telemetry = Telemetry::new();
        let extended_config = ObserverConfig {
            window_secs: 28 * 86_400,
            ..config
        };
        let (study, delta) =
            observe_incremental(&telemetry, &client, prior, &extended_config, |secs| {
                t.set_time(SimTime(secs))
            });

        assert_eq!(study.times_secs.len(), 29, "extended to the full window");
        assert_eq!(delta.rounds as usize, 29 - prior_rounds);
        // The skip actually engaged, and everything is accounted for.
        assert!(delta.skipped > 0, "no terminally-offline host was skipped");
        assert!(delta.reprobed < delta.rounds * n_hosts as u64);
        assert_eq!(
            delta.skipped + delta.reprobed,
            delta.rounds * n_hosts as u64
        );
        // Counters mirror the delta.
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("observer.rescan.skipped"), delta.skipped);
        assert_eq!(snap.counter("observer.rescan.reprobed"), delta.reprobed);
        assert_eq!(
            snap.counter("observer.rescan.refingerprinted"),
            delta.refingerprinted
        );
        assert_eq!(
            snap.counter("observer.rescan.reused"),
            delta.fingerprints_reused
        );
        assert_eq!(snap.counter("observer.rounds"), delta.rounds);
        // Unchanged hosts reused their fingerprints instead of
        // re-running the full identification.
        assert!(delta.fingerprints_reused > 0);
        // Skipped hosts went ragged; counts_at still covers every host.
        assert!(study
            .timelines
            .iter()
            .any(|tl| tl.statuses.len() < study.times_secs.len()));
        let last = study.times_secs.len() - 1;
        assert_eq!(study.counts_at(last).total(), n_hosts as u64);
        // Transitions recorded in the delta match the counter.
        assert_eq!(
            snap.counter("observer.transitions"),
            delta.transitions.len() as u64
        );
    }
}
