//! The four-week honeypot study driver.
//!
//! Replays the calibrated attack plan against the deployed fleet over
//! virtual time, interleaved with benign scanner noise, applying the
//! paper's operational procedures: availability monitoring, resource
//! thresholds and snapshot restores after compromises (essential for
//! trust-on-first-use applications).

use crate::cluster::{cluster_actors, ActorCluster};
use crate::deploy::Fleet;
use crate::detect::{detect_attacks, Attack};
use crate::logserver::AuditRecord;
use nokeys_apps::AppId;
use nokeys_attack::plan::{study_plan, StudyPlan};
use nokeys_attack::script::attack_script;
use nokeys_http::{Client, Scheme, Url};
use nokeys_netsim::{SimDuration, SimTime};
use std::net::Ipv4Addr;

/// Why a honeypot was restored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreReason {
    /// CPU/bandwidth threshold exceeded (cryptominer running).
    ResourceThreshold,
    /// A compromise was detected in the audit stream.
    CompromiseDetected,
    /// The service stopped answering (vigilante shutdown).
    AvailabilityLost,
}

/// One restore action.
#[derive(Debug, Clone)]
pub struct RestoreEvent {
    pub time: SimTime,
    pub app: AppId,
    pub reason: RestoreReason,
}

/// Study configuration.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Seed for the attack plan's jitter and dealing order.
    pub seed: u64,
    /// Emit benign scanner traffic between attacks (never counted as
    /// attacks; exercises the "not every request is an attack" path).
    pub background_noise: bool,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            seed: 2022,
            background_noise: true,
        }
    }
}

/// Everything the analysis needs.
pub struct StudyResult {
    pub plan: StudyPlan,
    pub records: Vec<AuditRecord>,
    pub attacks: Vec<Attack>,
    pub actors: Vec<ActorCluster>,
    pub restores: Vec<RestoreEvent>,
}

impl StudyResult {
    /// Detected attacks on `app`.
    pub fn attacks_on(&self, app: AppId) -> impl Iterator<Item = &Attack> {
        self.attacks.iter().filter(move |a| a.app == app)
    }
}

/// Run the study.
pub fn run_study(config: &StudyConfig) -> StudyResult {
    let fleet = Fleet::deploy();
    let plan = study_plan(config.seed);
    let mut restores: Vec<RestoreEvent> = Vec::new();

    // Benign scanner noise: a crawler sweeps every honeypot root twice a
    // day. Generated up front and merged with the plan by time.
    let mut noise: Vec<(SimTime, nokeys_http::Endpoint)> = Vec::new();
    if config.background_noise {
        let scanner_interval = SimDuration::hours(12);
        let mut t = SimTime::HONEYPOT_START + SimDuration::hours(1);
        let end = SimTime::HONEYPOT_START + SimTime::OBSERVATION;
        while t < end {
            for h in &fleet.honeypots {
                noise.push((t, h.endpoint));
            }
            t += scanner_interval;
        }
    }
    let mut noise_iter = noise.into_iter().peekable();

    for planned in &plan.attacks {
        // Deliver all noise scheduled before this attack.
        while noise_iter
            .peek()
            .map(|(t, _)| *t <= planned.time)
            .unwrap_or(false)
        {
            let (t, ep) = noise_iter.next().expect("peeked");
            crawl(&fleet, t, ep);
        }

        let honeypot = fleet
            .honeypot(planned.app)
            .expect("plan only targets deployed applications");

        // Availability monitor: if a previous attacker (the vigilante)
        // took the service down, the monitor has restored it by now.
        if !honeypot.monitored.is_up() {
            honeypot.monitored.restore();
            restores.push(RestoreEvent {
                time: planned.time,
                app: planned.app,
                reason: RestoreReason::AvailabilityLost,
            });
        }

        // Execute the attack script through the normal HTTP stack, from
        // the attacker's source address.
        let client = Client::new(fleet.transport.clone().with_source_ip(planned.ip));
        let log_before = fleet.log.len();
        for req in attack_script(planned.app, &planned.payload) {
            let url = Url::for_ip(
                Scheme::Http,
                honeypot.endpoint.ip,
                honeypot.endpoint.port,
                &req.target,
            );
            let _ = client.execute(&url, req);
        }
        fleet.log.stamp_since(log_before, planned.time);

        // Post-attack procedures.
        if honeypot.monitored.gauge().threshold_exceeded() {
            honeypot.monitored.restore();
            restores.push(RestoreEvent {
                time: planned.time,
                app: planned.app,
                reason: RestoreReason::ResourceThreshold,
            });
        } else if !honeypot.monitored.is_up() {
            honeypot.monitored.restore();
            restores.push(RestoreEvent {
                time: planned.time,
                app: planned.app,
                reason: RestoreReason::AvailabilityLost,
            });
        } else {
            if fleet
                .log
                .any_since(log_before, AuditRecord::is_attack_evidence)
            {
                honeypot.monitored.restore();
                restores.push(RestoreEvent {
                    time: planned.time,
                    app: planned.app,
                    reason: RestoreReason::CompromiseDetected,
                });
            }
        }
    }

    // Drain remaining noise.
    for (t, ep) in noise_iter {
        crawl(&fleet, t, ep);
    }

    let records = fleet.log.snapshot();
    let attacks = detect_attacks(&records);
    let actors = cluster_actors(&attacks);
    StudyResult {
        plan,
        records,
        attacks,
        actors,
        restores,
    }
}

/// The benign crawler fetches `ep`'s root at `t`; its audit records are
/// stamped with `t`.
fn crawl(fleet: &Fleet, t: SimTime, ep: nokeys_http::Endpoint) {
    let before = fleet.log.len();
    let client = Client::new(
        fleet
            .transport
            .clone()
            .with_source_ip(Ipv4Addr::new(198, 51, 100, 200)),
    );
    let _ = client.get(&Url::for_ip(Scheme::Http, ep.ip, ep.port, "/"));
    fleet.log.stamp_since(before, t);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{unique_attacks, unique_ips};

    fn quick_study() -> StudyResult {
        run_study(&StudyConfig {
            seed: 2022,
            background_noise: false,
        })
    }

    /// The headline integration test: the detected numbers reproduce
    /// Table 5 exactly.
    #[test]
    fn detected_attacks_reproduce_table5() {
        let result = quick_study();
        let cases = [
            (AppId::Jenkins, 4, 3, 3),
            (AppId::WordPress, 9, 4, 5),
            (AppId::Grav, 1, 1, 1),
            (AppId::Docker, 132, 12, 22),
            (AppId::Hadoop, 1921, 49, 81),
            (AppId::JupyterLab, 29, 13, 13),
            (AppId::JupyterNotebook, 99, 50, 50),
        ];
        for (app, n_attacks, n_unique, n_ips) in cases {
            assert_eq!(result.attacks_on(app).count(), n_attacks, "{app} attacks");
            assert_eq!(
                unique_attacks(&result.attacks, app),
                n_unique,
                "{app} unique"
            );
            assert_eq!(unique_ips(&result.attacks, app), n_ips, "{app} IPs");
        }
        assert_eq!(result.attacks.len(), 2195, "total attacks");
        // Applications outside the 7 are never attacked.
        for app in [
            AppId::Gocd,
            AppId::Kubernetes,
            AppId::PhpMyAdmin,
            AppId::Polynote,
        ] {
            assert_eq!(result.attacks_on(app).count(), 0, "{app} should be clean");
        }
    }

    #[test]
    fn actor_clustering_recovers_the_roster() {
        let result = quick_study();
        // 104 planted actors; payloads/IPs never cross actors, so the
        // clustering must recover them exactly.
        assert_eq!(result.plan.attackers.len(), 104);
        assert_eq!(result.actors.len(), result.plan.attackers.len());
        // RQ6: concentration of attacks among few actors.
        assert_eq!(result.actors[0].attack_count, 719);
        let top5: usize = result.actors.iter().take(5).map(|c| c.attack_count).sum();
        let top10: usize = result.actors.iter().take(10).map(|c| c.attack_count).sum();
        assert_eq!(top5, 1492);
        assert_eq!(top10, 1845);
        // Figure 4: ten multi-application actors.
        let multi = result.actors.iter().filter(|c| c.is_multi_app()).count();
        assert_eq!(multi, 10);
    }

    #[test]
    fn restores_keep_tofu_honeypots_attackable() {
        let result = quick_study();
        // WordPress was attacked 9 times; without restores only the
        // first hijack could ever succeed.
        assert_eq!(result.attacks_on(AppId::WordPress).count(), 9);
        let wp_restores = result
            .restores
            .iter()
            .filter(|r| r.app == AppId::WordPress)
            .count();
        assert!(wp_restores >= 9, "every hijack triggers a restore");
    }

    #[test]
    fn resource_monitor_catches_miners() {
        let result = quick_study();
        let threshold_restores = result
            .restores
            .iter()
            .filter(|r| r.reason == RestoreReason::ResourceThreshold)
            .count();
        assert!(threshold_restores > 0, "cryptominers must trip the monitor");
        let availability_restores = result
            .restores
            .iter()
            .filter(|r| r.reason == RestoreReason::AvailabilityLost)
            .count();
        assert!(availability_restores > 0, "the vigilante takes J-Lab down");
    }

    #[test]
    fn background_noise_is_never_counted_as_attacks() {
        let with_noise = run_study(&StudyConfig {
            seed: 2022,
            background_noise: true,
        });
        assert_eq!(
            with_noise.attacks.len(),
            2195,
            "noise must not inflate attack counts"
        );
        assert!(
            with_noise.records.len() > 2195,
            "noise does appear in the audit log"
        );
    }
}
