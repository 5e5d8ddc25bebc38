//! Version fingerprinting.
//!
//! Two mechanisms, mirroring Section 3.1 "Version fingerprinting":
//!
//! 1. `voluntary`: extract versions the applications disclose
//!    themselves (API endpoints, headers, generator metas, HTML
//!    comments), one table row per application.
//! 2. [`knowledge_base`] + [`crawler`]: for the remaining applications
//!    (or stripped version strings), hash crawled static files and match
//!    them against a knowledge base built from the applications'
//!    repositories.

pub mod crawler;
pub mod knowledge_base;
mod voluntary;

use crate::report::FingerprintMethod;
use crate::telemetry::{Counter, Telemetry};
use knowledge_base::KnowledgeBase;
use nokeys_apps::{AppId, Version};
use nokeys_http::{Client, Endpoint, Scheme, Transport};

/// Cached fingerprinting telemetry handles.
struct FingerprintMetrics {
    voluntary: Counter,
    knowledge_base: Counter,
    miss: Counter,
}

impl FingerprintMetrics {
    fn new(telemetry: &Telemetry) -> Self {
        FingerprintMetrics {
            voluntary: telemetry.counter("fingerprint.voluntary"),
            knowledge_base: telemetry.counter("fingerprint.knowledge_base"),
            miss: telemetry.counter("fingerprint.miss"),
        }
    }
}

/// The combined fingerprinter.
pub struct Fingerprinter {
    kb: &'static KnowledgeBase,
    metrics: FingerprintMetrics,
}

impl Fingerprinter {
    /// Build a fingerprinter over the process's one knowledge base
    /// ([`KnowledgeBase::shared`], built on first use) that records its
    /// method mix (voluntary vs. knowledge-base vs. miss) into
    /// `telemetry`.
    pub fn with_telemetry(telemetry: &Telemetry) -> Self {
        Fingerprinter {
            kb: KnowledgeBase::shared(),
            metrics: FingerprintMetrics::new(telemetry),
        }
    }

    /// Determine the deployed version of `app` at `ep`: voluntary
    /// disclosure first, knowledge-base crawl as fallback. The crawl
    /// observation buffer is borrowed from the caller's scratch arena,
    /// so the steady-state fingerprint path allocates nothing.
    pub fn fingerprint_with<T: Transport>(
        &self,
        client: &Client<T>,
        app: AppId,
        ep: Endpoint,
        scheme: Scheme,
        scratch: &mut crate::scratch::Scratch,
    ) -> Option<(Version, FingerprintMethod)> {
        if let Some(version) = voluntary::extract(client, app, ep, scheme) {
            self.metrics.voluntary.incr();
            return Some((version, FingerprintMethod::Voluntary));
        }
        let identified = crawler::identify_scratch(client, self.kb, ep, scheme, scratch)
            .filter(|(found_app, _)| *found_app == app)
            .map(|(_, version)| (version, FingerprintMethod::KnowledgeBase));
        match &identified {
            Some(_) => self.metrics.knowledge_base.incr(),
            None => self.metrics.miss.incr(),
        }
        identified
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugin::AppHandler;
    use crate::scratch::Scratch;
    use nokeys_apps::{build_instance, release_history, AppConfig};
    use nokeys_http::memory::HandlerTransport;
    use std::net::Ipv4Addr;
    use std::sync::Arc;

    fn client_for(app: AppId, version_index: usize) -> (Client<HandlerTransport>, Endpoint) {
        let version = release_history(app)[version_index];
        let ep = Endpoint::new(Ipv4Addr::new(10, 2, 2, 2), app.scan_ports()[0]);
        let handler = Arc::new(AppHandler::new(build_instance(
            app,
            version,
            AppConfig::secure_for(app, &version),
        )));
        (Client::new(HandlerTransport::new().with(ep, handler)), ep)
    }

    fn fingerprinter() -> Fingerprinter {
        Fingerprinter::with_telemetry(&Telemetry::new())
    }

    #[test]
    fn fingerprints_every_in_scope_app() {
        let fp = fingerprinter();
        let mut scratch = Scratch::new();
        for app in AppId::in_scope() {
            let history = release_history(app);
            let idx = history.len() / 2;
            let (client, ep) = client_for(app, idx);
            let result = fp.fingerprint_with(&client, app, ep, Scheme::Http, &mut scratch);
            let Some((version, method)) = result else {
                panic!("{app}: no fingerprint");
            };
            assert_eq!(
                version.triple(),
                history[idx].triple(),
                "{app}: wrong version via {method:?}"
            );
        }
    }

    #[test]
    fn fingerprinters_share_one_knowledge_base() {
        let (a, b) = (fingerprinter(), fingerprinter());
        assert!(std::ptr::eq(a.kb, b.kb));
        assert!(std::ptr::eq(a.kb, KnowledgeBase::shared()));
    }

    #[test]
    fn unreachable_host_yields_none() {
        let fp = fingerprinter();
        let client = Client::new(HandlerTransport::new());
        let ep = Endpoint::new(Ipv4Addr::new(10, 2, 2, 3), 80);
        assert!(fp
            .fingerprint_with(
                &client,
                AppId::WordPress,
                ep,
                Scheme::Http,
                &mut Scratch::new()
            )
            .is_none());
    }

    #[test]
    fn telemetry_records_method_mix() {
        let telemetry = Telemetry::new();
        let fp = Fingerprinter::with_telemetry(&telemetry);
        let mut scratch = Scratch::new();
        // One successful fingerprint...
        let (client, ep) = client_for(AppId::Jenkins, 0);
        assert!(fp
            .fingerprint_with(&client, AppId::Jenkins, ep, Scheme::Http, &mut scratch)
            .is_some());
        // ...and one miss against an unreachable host.
        let client = Client::new(HandlerTransport::new());
        let ep = Endpoint::new(Ipv4Addr::new(10, 2, 2, 4), 80);
        assert!(fp
            .fingerprint_with(&client, AppId::Jenkins, ep, Scheme::Http, &mut scratch)
            .is_none());
        let snap = telemetry.snapshot();
        let hits =
            snap.counter("fingerprint.voluntary") + snap.counter("fingerprint.knowledge_base");
        assert_eq!(hits, 1);
        assert_eq!(snap.counter("fingerprint.miss"), 1);
    }
}
