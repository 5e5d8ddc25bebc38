//! Honeypot fleet construction.
//!
//! One honeypot per in-scope application, each on a dedicated machine
//! with a static public IPv4 address, running the newest release in a
//! vulnerable configuration ("we either left the applications in an
//! insecure-by-default state, or enabled insecure settings"). The
//! trust-on-first-use CMSes additionally need an *old enough* version
//! where the hijack works at all (Joomla < 3.7.4, Adminer < 4.6.3 — the
//! paper deployed configurations in which the MAV exists).

use crate::logserver::CentralLog;
use crate::monitor::MonitoredApp;
use nokeys_apps::version::history;
use nokeys_apps::{build_instance, AppConfig, AppId, Version};
use nokeys_http::memory::HandlerTransport;
use nokeys_http::Endpoint;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// One deployed honeypot.
pub struct Honeypot {
    pub app: AppId,
    pub endpoint: Endpoint,
    pub version: Version,
    pub monitored: Arc<MonitoredApp>,
}

/// The 18-honeypot fleet plus shared infrastructure.
pub struct Fleet {
    pub honeypots: Vec<Honeypot>,
    pub log: Arc<CentralLog>,
    /// Transport with every honeypot mounted.
    pub transport: HandlerTransport,
}

impl Fleet {
    /// Deploy the full fleet. Honeypot addresses live in 64.90.1.0/24.
    pub fn deploy() -> Fleet {
        let log = Arc::new(CentralLog::new());
        let mut transport = HandlerTransport::new();
        let mut honeypots = Vec::new();

        for (i, app) in AppId::in_scope().enumerate() {
            let version = deploy_version(app);
            let config = AppConfig::vulnerable_for(app, &version);
            debug_assert!(
                config.is_vulnerable(app, &version),
                "{app} honeypot not vulnerable"
            );
            let instance = build_instance(app, version, config);
            let monitored = Arc::new(MonitoredApp::new(app, instance, Arc::clone(&log)));
            let endpoint =
                Endpoint::new(Ipv4Addr::new(64, 90, 1, (i + 1) as u8), app.scan_ports()[0]);
            transport.mount(
                endpoint,
                Arc::clone(&monitored) as Arc<dyn nokeys_http::server::Handler>,
            );
            honeypots.push(Honeypot {
                app,
                endpoint,
                version,
                monitored,
            });
        }
        Fleet {
            honeypots,
            log,
            transport,
        }
    }

    /// The honeypot running `app`.
    pub fn honeypot(&self, app: AppId) -> Option<&Honeypot> {
        self.honeypots.iter().find(|h| h.app == app)
    }
}

/// Which version to deploy: the newest one in which a vulnerable
/// configuration exists.
fn deploy_version(app: AppId) -> Version {
    *history(app)
        .iter()
        .rev()
        .find(|v| AppConfig::vulnerable_for(app, v).is_vulnerable(app, v))
        .unwrap_or_else(|| panic!("{app} has no deployable vulnerable version"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_has_18_vulnerable_honeypots() {
        let fleet = Fleet::deploy();
        assert_eq!(fleet.honeypots.len(), 18);
        for h in &fleet.honeypots {
            assert!(
                h.monitored.is_vulnerable(),
                "{} honeypot not vulnerable",
                h.app
            );
            assert!(h.monitored.is_up());
        }
    }

    #[test]
    fn endpoints_are_unique_and_on_app_ports() {
        let fleet = Fleet::deploy();
        let mut eps: Vec<Endpoint> = fleet.honeypots.iter().map(|h| h.endpoint).collect();
        let before = eps.len();
        eps.sort();
        eps.dedup();
        assert_eq!(eps.len(), before);
        for h in &fleet.honeypots {
            assert_eq!(h.endpoint.port, h.app.scan_ports()[0]);
        }
    }

    #[test]
    fn tofu_apps_get_old_enough_versions() {
        let fleet = Fleet::deploy();
        let joomla = fleet.honeypot(AppId::Joomla).unwrap();
        assert!(joomla.version.triple() < (3, 7, 4));
        let adminer = fleet.honeypot(AppId::Adminer).unwrap();
        assert!(adminer.version.triple() < (4, 6, 3));
        // Apps without such constraints run the newest release.
        let hadoop = fleet.honeypot(AppId::Hadoop).unwrap();
        assert_eq!(
            hadoop.version.triple(),
            history(AppId::Hadoop).last().unwrap().triple()
        );
    }

    #[test]
    fn honeypots_are_reachable_through_the_transport() {
        let fleet = Fleet::deploy();
        let client = nokeys_http::Client::new(fleet.transport.clone());
        let hadoop = fleet.honeypot(AppId::Hadoop).unwrap();
        let fetched = client
            .get_path(
                hadoop.endpoint,
                nokeys_http::Scheme::Http,
                "/cluster/cluster",
            )
            .unwrap();
        assert!(fetched.response.body_text().contains("dr.who"));
        assert_eq!(
            fleet.log.len(),
            1,
            "the audited request appears in the central log"
        );
    }
}
