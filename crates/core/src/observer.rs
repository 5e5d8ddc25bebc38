//! Longevity observer (RQ3 / Figure 2).
//!
//! "We repeated our scan on the 4,221 vulnerable hosts every three hours
//! over a time span of four weeks." For each vulnerable host the observer
//! re-runs the detection plugin and classifies the host as still
//! *vulnerable*, *fixed* (reachable, plugin negative) or *offline*
//! (unreachable). It also re-fingerprints to spot version updates.
//!
//! The observer is time-source agnostic: the caller supplies
//! `client_at(secs)`, a client that sees the (virtual or real) network
//! at that offset from the study start.
//!
//! The hosts are split into contiguous chunks, one per worker thread,
//! and each worker walks every round over its own chunk, writing the
//! statuses in place. No worker waits for another between rounds,
//! nothing is merged afterwards and every counter is a sum, so the study
//! and its telemetry are the same at any worker count (DESIGN.md §9).

use crate::fingerprint::Fingerprinter;
use crate::plugin::detect_mav;
use crate::report::HostFinding;
use crate::scratch::Scratch;
use crate::telemetry::{Counter, Telemetry};
use nokeys_http::{Attempt, Client, ProbeOutcome, Transport};

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
    /// One status per observation time, as [`observe`] fills it. The
    /// field is public, so readers tolerate a shorter vector: a missing
    /// entry reads as [`ObservedStatus::Offline`].
    pub statuses: Vec<ObservedStatus>,
    /// Whether the fingerprinted version changed during observation.
    pub updated: bool,
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
    /// A timeline with no observation at `i` (a hand-built study may be
    /// ragged) counts as [`ObservedStatus::Offline`], so the totals
    /// always cover every host in the study.
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
    /// Seconds between rescans (paper: 3 hours). Must be positive.
    pub interval_secs: i64,
    /// Total observation window (paper: 28 days). Must not be negative.
    pub window_secs: i64,
}

impl Default for ObserverConfig {
    fn default() -> Self {
        ObserverConfig {
            interval_secs: 3 * 3600,
            window_secs: 28 * 86_400,
        }
    }
}

/// Telemetry handles the per-host re-check records into.
struct HostMetrics {
    vulnerable: Counter,
    fixed: Counter,
    offline: Counter,
    transitions: Counter,
    version_updates: Counter,
}

/// Run the longevity observation.
///
/// `client_at(secs)` is the client a round uses, `secs` being the
/// round's offset from the study start; with the simulated transport it
/// wraps `FaultyTransport::at`. Each worker thread asks for one client per
/// round. The hosts are re-checked on as many threads as the machine
/// offers ([`std::thread::available_parallelism`]); the result does not
/// depend on that number.
///
/// Telemetry: per-round status counts (`observer.status.<status>`),
/// status transitions between consecutive rounds
/// (`observer.transitions`), version updates
/// (`observer.version_updates`) and rounds (`observer.rounds`).
///
/// # Panics
///
/// If `config.interval_secs` is not positive or `config.window_secs` is
/// negative.
pub fn observe<T: Transport>(
    telemetry: &Telemetry,
    client_at: impl Fn(i64) -> Client<T> + Sync,
    findings: &[HostFinding],
    config: &ObserverConfig,
) -> LongevityStudy {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    observe_on(workers, telemetry, client_at, findings, config)
}

/// [`observe`] on at most `workers` threads. Private: the count is not
/// an option, it exists so a test can compare one worker against several.
fn observe_on<T: Transport>(
    workers: usize,
    telemetry: &Telemetry,
    client_at: impl Fn(i64) -> Client<T> + Sync,
    findings: &[HostFinding],
    config: &ObserverConfig,
) -> LongevityStudy {
    assert!(
        config.interval_secs > 0,
        "ObserverConfig::interval_secs must be positive, got {}",
        config.interval_secs
    );
    assert!(
        config.window_secs >= 0,
        "ObserverConfig::window_secs must not be negative, got {}",
        config.window_secs
    );
    let rounds = telemetry.counter("observer.rounds");
    let metrics = HostMetrics {
        vulnerable: telemetry.counter("observer.status.vulnerable"),
        fixed: telemetry.counter("observer.status.fixed"),
        offline: telemetry.counter("observer.status.offline"),
        transitions: telemetry.counter("observer.transitions"),
        version_updates: telemetry.counter("observer.version_updates"),
    };
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
        })
        .collect();

    rounds.add(times.len() as u64);
    // A recheck's fault draws are keyed on its host, the round's instant,
    // each request's target and try, never on what ran before, so which
    // worker rechecks a host changes nothing. The scope re-raises a
    // worker's panic on this thread.
    let chunk_len = timelines.len().div_ceil(workers.max(1)).max(1);
    let offsets = &times[..];
    let (client_at, fingerprinter, metrics) = (&client_at, &fingerprinter, &metrics);
    std::thread::scope(|scope| {
        for chunk in timelines.chunks_mut(chunk_len) {
            scope.spawn(move || {
                let mut scratch = Scratch::new();
                for &t in offsets {
                    let client = client_at(t);
                    for timeline in chunk.iter_mut() {
                        recheck(timeline, &client, fingerprinter, metrics, &mut scratch);
                    }
                }
            });
        }
    });

    LongevityStudy {
        times_secs: times,
        timelines,
    }
}

/// One host, one round: classify it, append the status, and re-fingerprint
/// it until a version update has been seen.
fn recheck<T: Transport>(
    timeline: &mut HostTimeline,
    client: &Client<T>,
    fingerprinter: &Fingerprinter,
    metrics: &HostMetrics,
    scratch: &mut Scratch,
) {
    // Once offline or fixed, the paper keeps tracking: a fixed host can
    // still disappear, an offline host could return. Re-check every
    // round.
    let finding = &timeline.finding;
    let ep = finding.endpoint;
    let status = match client.transport().probe(ep, Attempt::FIRST) {
        ProbeOutcome::Open => {
            if detect_mav(client, finding.app, ep, finding.scheme) {
                ObservedStatus::Vulnerable
            } else {
                ObservedStatus::Fixed
            }
        }
        _ => ObservedStatus::Offline,
    };
    match status {
        ObservedStatus::Vulnerable => metrics.vulnerable.incr(),
        ObservedStatus::Fixed => metrics.fixed.incr(),
        ObservedStatus::Offline => metrics.offline.incr(),
    }
    if timeline.statuses.last().is_some_and(|&prev| prev != status) {
        metrics.transitions.incr();
    }
    timeline.statuses.push(status);

    // Version-update tracking (2.4% of hosts in the paper).
    if !timeline.updated && status != ObservedStatus::Offline {
        if let Some(before) = finding.version {
            if let Some((now, _)) =
                fingerprinter.fingerprint_with(client, finding.app, ep, finding.scheme, scratch)
            {
                if now.triple() != before.triple() {
                    timeline.updated = true;
                    metrics.version_updates.incr();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Pipeline, PipelineConfig};
    use nokeys_http::{Client, Endpoint};
    use nokeys_netsim::{
        FaultPlan, FaultyTransport, SimTime, SimTransport, Universe, UniverseConfig,
    };
    use std::sync::Arc;

    // Daily rescans keep the tests fast; the repro harness uses the
    // paper's 3-hour cadence.
    const DAILY: ObserverConfig = ObserverConfig {
        interval_secs: 86_400,
        window_secs: 28 * 86_400,
    };

    /// Scan a tiny universe and observe its vulnerable hosts on
    /// `workers` threads, with the scan's faults at every round's
    /// instant.
    fn study_on(workers: usize, fault_rate: f64, telemetry: &Telemetry) -> LongevityStudy {
        let t = SimTransport::new(Arc::new(Universe::generate(UniverseConfig::tiny(7))));
        let faulty = FaultyTransport::new(t, FaultPlan::new(fault_rate, 0xfa17_5eed));
        let client = Client::new(faulty.clone());
        let pipeline = Pipeline::new(
            PipelineConfig::new(vec!["20.0.0.0/16".parse().unwrap()]),
            &Telemetry::new(),
        );
        let report = pipeline.run(&client).expect("pipeline failed");
        let vulnerable: Vec<_> = report.vulnerable_findings().cloned().collect();
        assert!(!vulnerable.is_empty());
        let client_at = |secs| Client::new(faulty.at(SimTime(secs)));
        observe_on(workers, telemetry, client_at, &vulnerable, &DAILY)
    }

    fn study() -> LongevityStudy {
        study_on(2, 0.0, &Telemetry::default())
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
        let s = study_on(2, 0.0, &telemetry);
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
        // Every host is rechecked once a round.
        assert_eq!(
            snap.prefixed_total("observer.status."),
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
        }
    }

    /// Regression: `counts_at` used to index `statuses[i]` directly and
    /// panicked on ragged timelines. Missing observations must read as
    /// offline.
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

    /// The worker count is not an input of the study: one worker and
    /// three produce the same timelines and the same telemetry, with and
    /// without injected faults.
    #[test]
    fn study_is_identical_at_any_worker_count() {
        for fault_rate in [0.0, 0.05] {
            let (serial_telemetry, split_telemetry) = (Telemetry::new(), Telemetry::new());
            let serial = study_on(1, fault_rate, &serial_telemetry);
            let split = study_on(3, fault_rate, &split_telemetry);
            assert_eq!(serial.times_secs, split.times_secs);
            assert_eq!(serial.timelines.len(), split.timelines.len());
            for (a, b) in serial.timelines.iter().zip(&split.timelines) {
                assert_eq!(a.finding, b.finding);
                assert_eq!(a.statuses, b.statuses, "{}", a.finding.endpoint);
                assert_eq!(a.updated, b.updated, "{}", a.finding.endpoint);
            }
            assert_eq!(
                serial_telemetry.snapshot().to_json(),
                split_telemetry.snapshot().to_json(),
                "fault rate {fault_rate}"
            );
        }
    }

    fn observe_nothing(config: &ObserverConfig) -> LongevityStudy {
        let client_at = |_| Client::new(nokeys_http::memory::HandlerTransport::new());
        observe(&Telemetry::default(), client_at, &[], config)
    }

    #[test]
    #[should_panic(expected = "ObserverConfig::interval_secs must be positive")]
    fn zero_interval_is_rejected() {
        observe_nothing(&ObserverConfig {
            interval_secs: 0,
            ..DAILY
        });
    }

    #[test]
    #[should_panic(expected = "ObserverConfig::window_secs must not be negative")]
    fn negative_window_is_rejected() {
        observe_nothing(&ObserverConfig {
            window_secs: -1,
            ..DAILY
        });
    }
}
