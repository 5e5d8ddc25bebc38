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
use nokeys_http::{Transport, Visit};

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

    /// Determine the deployed version of `app` on `visit`: voluntary
    /// disclosure first, knowledge-base crawl as fallback.
    pub fn fingerprint<T: Transport>(
        &self,
        visit: &Visit<T>,
        app: AppId,
    ) -> Option<(Version, FingerprintMethod)> {
        if let Some(version) = voluntary::extract(visit, app) {
            self.metrics.voluntary.incr();
            return Some((version, FingerprintMethod::Voluntary));
        }
        let identified = crawler::identify(visit, self.kb)
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
    use nokeys_apps::{build_instance, release_history, AppConfig};
    use nokeys_http::memory::HandlerTransport;
    use nokeys_http::{Endpoint, Scheme};
    use std::net::Ipv4Addr;
    use std::sync::Arc;

    fn serve(app: AppId, version_index: usize) -> (HandlerTransport, Endpoint) {
        let version = release_history(app)[version_index];
        let ep = Endpoint::new(Ipv4Addr::new(10, 2, 2, 2), app.scan_ports()[0]);
        let handler = Arc::new(AppHandler::new(build_instance(
            app,
            version,
            AppConfig::secure_for(app, &version),
        )));
        (HandlerTransport::new().with(ep, handler), ep)
    }

    fn fingerprinter() -> Fingerprinter {
        Fingerprinter::with_telemetry(&Telemetry::new())
    }

    #[test]
    fn fingerprints_every_in_scope_app() {
        let fp = fingerprinter();
        for app in AppId::in_scope() {
            let history = release_history(app);
            let idx = history.len() / 2;
            let (t, ep) = serve(app, idx);
            let result = fp.fingerprint(&Visit::new(&t, ep, Scheme::Http), app);
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
        let t = HandlerTransport::new();
        let ep = Endpoint::new(Ipv4Addr::new(10, 2, 2, 3), 80);
        assert!(fp
            .fingerprint(&Visit::new(&t, ep, Scheme::Http), AppId::WordPress)
            .is_none());
    }

    #[test]
    fn telemetry_records_method_mix() {
        let telemetry = Telemetry::new();
        let fp = Fingerprinter::with_telemetry(&telemetry);
        // One successful fingerprint...
        let (t, ep) = serve(AppId::Jenkins, 0);
        assert!(fp
            .fingerprint(&Visit::new(&t, ep, Scheme::Http), AppId::Jenkins)
            .is_some());
        // ...and one miss against an unreachable host.
        let t = HandlerTransport::new();
        let ep = Endpoint::new(Ipv4Addr::new(10, 2, 2, 4), 80);
        assert!(fp
            .fingerprint(&Visit::new(&t, ep, Scheme::Http), AppId::Jenkins)
            .is_none());
        let snap = telemetry.snapshot();
        let hits =
            snap.counter("fingerprint.voluntary") + snap.counter("fingerprint.knowledge_base");
        assert_eq!(hits, 1);
        assert_eq!(snap.counter("fingerprint.miss"), 1);
    }
}
