//! Host model: the services a simulated machine exposes.

use crate::lifecycle::LifecyclePlan;
use nokeys_apps::background::BackgroundKind;
use nokeys_apps::{AppConfig, AppId};
use std::net::Ipv4Addr;

/// Which schemes a service answers on its port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeSupport {
    HttpOnly,
    HttpsOnly,
    Both,
}

impl SchemeSupport {
    pub fn supports_http(self) -> bool {
        !matches!(self, SchemeSupport::HttpsOnly)
    }

    pub fn supports_https(self) -> bool {
        !matches!(self, SchemeSupport::HttpOnly)
    }
}

/// What runs behind an open port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceKind {
    /// One of the 25 studied applications. The behavioural instance is
    /// materialized on demand from `(app, version_index, config)`.
    Awe {
        app: AppId,
        /// Index into `release_history(app)`.
        version_index: usize,
        config: AppConfig,
    },
    /// Background noise.
    Background(BackgroundKind),
}

/// One service on one port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Service {
    pub port: u16,
    pub kind: ServiceKind,
    pub schemes: SchemeSupport,
}

/// A simulated machine.
#[derive(Debug, Clone)]
pub struct Host {
    pub ip: Ipv4Addr,
    pub services: Vec<Service>,
    /// "All ports open" network artifacts the paper excluded (3.0M hosts).
    pub tarpit: bool,
    /// Lifecycle of the host over the observation window.
    pub lifecycle: LifecyclePlan,
    /// Certificate subject presented on HTTPS connections, if any
    /// (responsible-disclosure contact extraction).
    pub cert_domain: Option<String>,
    /// Name-based virtual hosts served behind this address (shared
    /// hosting). Empty for dedicated hosts.
    pub vhosts: Vec<crate::vhost::VirtualHost>,
}

impl Host {
    /// A plain host with the given services.
    pub fn new(ip: Ipv4Addr, services: Vec<Service>) -> Self {
        Host {
            ip,
            services,
            tarpit: false,
            lifecycle: LifecyclePlan::static_online(),
            cert_domain: None,
            vhosts: Vec::new(),
        }
    }

    /// The service listening on `port`, if any.
    pub fn service_on(&self, port: u16) -> Option<&Service> {
        self.services.iter().find(|s| s.port == port)
    }

    /// The AWE service of this host, if it runs one.
    pub fn awe(&self) -> Option<(&Service, AppId)> {
        self.services.iter().find_map(|s| match &s.kind {
            ServiceKind::Awe { app, .. } => Some((s, *app)),
            ServiceKind::Background(_) => None,
        })
    }

    /// Whether the host's AWE (if any) is vulnerable at deployment time.
    pub fn is_vulnerable_at_deploy(&self) -> bool {
        self.services.iter().any(|s| match &s.kind {
            ServiceKind::Awe {
                app,
                version_index,
                config,
            } => {
                let version = nokeys_apps::version_at(*app, *version_index);
                config.is_vulnerable(*app, &version)
            }
            ServiceKind::Background(_) => false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nokeys_apps::release_history;

    fn ip() -> Ipv4Addr {
        Ipv4Addr::new(20, 0, 0, 1)
    }

    #[test]
    fn scheme_support_classification() {
        assert!(SchemeSupport::Both.supports_http());
        assert!(SchemeSupport::Both.supports_https());
        assert!(!SchemeSupport::HttpOnly.supports_https());
        assert!(!SchemeSupport::HttpsOnly.supports_http());
    }

    #[test]
    fn awe_lookup_and_vulnerability() {
        let app = AppId::Hadoop;
        let history = release_history(app);
        let vi = history.len() - 1;
        let cfg = AppConfig::vulnerable_for(app, &history[vi]);
        let host = Host::new(
            ip(),
            vec![Service {
                port: 8088,
                kind: ServiceKind::Awe {
                    app,
                    version_index: vi,
                    config: cfg,
                },
                schemes: SchemeSupport::HttpOnly,
            }],
        );
        assert_eq!(host.awe().map(|(_, a)| a), Some(AppId::Hadoop));
        assert!(host.is_vulnerable_at_deploy());
        assert!(host.service_on(8088).is_some());
        assert!(host.service_on(80).is_none());
    }

    #[test]
    fn background_host_is_never_vulnerable() {
        let host = Host::new(
            ip(),
            vec![Service {
                port: 80,
                kind: ServiceKind::Background(BackgroundKind::NginxDefault),
                schemes: SchemeSupport::HttpOnly,
            }],
        );
        assert!(host.awe().is_none());
        assert!(!host.is_vulnerable_at_deploy());
    }
}
