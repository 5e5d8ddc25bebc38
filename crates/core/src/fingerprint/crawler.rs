//! The fingerprinting crawler: fetch static files from a target, hash
//! them, and identify the application/version via the knowledge base.

use super::knowledge_base::KnowledgeBase;
use nokeys_apps::assets::{file_hash, ASSET_PATHS};
use nokeys_apps::{AppId, Version};
use nokeys_http::{Transport, Visit};

/// Crawl the visited target's static files into `out` as `(path, hash)`
/// pairs for every file that exists, and return the filled prefix.
pub fn crawl<'a, T: Transport>(
    visit: &Visit<T>,
    kb: &KnowledgeBase,
    out: &'a mut [(&'static str, u64); ASSET_PATHS.len()],
) -> &'a [(&'static str, u64)] {
    let mut filled = 0;
    for path in kb.crawl_paths() {
        let Ok(fetched) = visit.get(path) else {
            continue;
        };
        if !fetched.response.status.is_success() {
            continue;
        }
        out[filled] = (*path, file_hash(&fetched.response.body));
        filled += 1;
    }
    &out[..filled]
}

/// Crawl and identify. The observations live in an array on the stack,
/// so the crawl allocates nothing beyond its exchanges.
pub fn identify<T: Transport>(visit: &Visit<T>, kb: &KnowledgeBase) -> Option<(AppId, Version)> {
    let mut observations = [("", 0); ASSET_PATHS.len()];
    kb.identify(crawl(visit, kb, &mut observations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugin::AppHandler;
    use nokeys_apps::version::history;
    use nokeys_apps::{build_instance, release_history, AppConfig};
    use nokeys_http::memory::HandlerTransport;
    use nokeys_http::{Endpoint, Scheme};
    use std::net::Ipv4Addr;
    use std::sync::Arc;

    #[test]
    fn crawler_identifies_a_version_stripped_app() {
        // GoCD discloses no version string; the crawler must identify it.
        let app = AppId::Gocd;
        let history = release_history(app);
        let idx = history.len() - 2;
        let version = history[idx];
        let ep = Endpoint::new(Ipv4Addr::new(10, 3, 3, 3), 8153);
        let handler = Arc::new(AppHandler::new(build_instance(
            app,
            version,
            AppConfig::secure_for(app, &version),
        )));
        let t = HandlerTransport::new().with(ep, handler);
        let kb = KnowledgeBase::shared();
        let (found_app, found_version) =
            identify(&Visit::new(&t, ep, Scheme::Http), kb).expect("identified");
        assert_eq!(found_app, app);
        assert_eq!(found_version.triple(), version.triple());
    }

    /// The bytes a model serves, not just `asset_content`, hash to the
    /// files the base holds: every application is identified exactly at
    /// its first, middle and last version.
    #[test]
    fn crawler_identifies_every_app_at_first_middle_and_last_version() {
        let kb = KnowledgeBase::shared();
        let ep = Endpoint::new(Ipv4Addr::new(10, 3, 3, 6), 8080);
        for app in AppId::all() {
            let history = history(app);
            for idx in [0, history.len() / 2, history.len() - 1] {
                let version = history[idx];
                let handler = Arc::new(AppHandler::new(build_instance(
                    app,
                    version,
                    AppConfig::secure_for(app, &version),
                )));
                let t = HandlerTransport::new().with(ep, handler);
                let found = identify(&Visit::new(&t, ep, Scheme::Http), kb)
                    .map(|(app, version)| (app, version.triple()));
                assert_eq!(found, Some((app, version.triple())), "{app} {version}");
            }
        }
    }

    #[test]
    fn crawl_collects_only_existing_files() {
        let app = AppId::Zeppelin;
        let version = release_history(app)[0];
        let ep = Endpoint::new(Ipv4Addr::new(10, 3, 3, 4), 8080);
        let handler = Arc::new(AppHandler::new(build_instance(
            app,
            version,
            AppConfig::secure_for(app, &version),
        )));
        let t = HandlerTransport::new().with(ep, handler);
        let kb = KnowledgeBase::shared();
        let mut out = [("", 0); ASSET_PATHS.len()];
        let obs = crawl(&Visit::new(&t, ep, Scheme::Http), kb, &mut out);
        assert_eq!(
            obs.len(),
            kb.crawl_paths().len(),
            "model serves all corpus files"
        );
    }

    #[test]
    fn unreachable_target_crawls_nothing() {
        let t = HandlerTransport::new();
        let kb = KnowledgeBase::shared();
        let ep = Endpoint::new(Ipv4Addr::new(10, 3, 3, 5), 80);
        let visit = Visit::new(&t, ep, Scheme::Http);
        let mut out = [("", 0); ASSET_PATHS.len()];
        assert!(crawl(&visit, kb, &mut out).is_empty());
        assert!(identify(&visit, kb).is_none());
    }
}
