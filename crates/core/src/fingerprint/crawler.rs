//! The fingerprinting crawler: fetch static files from a target, hash
//! them, and identify the application/version via the knowledge base.

use super::knowledge_base::KnowledgeBase;
use nokeys_apps::assets::file_hash;
use nokeys_apps::{AppId, Version};
use nokeys_http::{Client, Endpoint, Scheme, Transport};

/// Crawl the target's static files into `out` as `(path, hash)` pairs
/// for every file that exists. Clears and refills `out`, reusing its
/// capacity: the crawl paths are `'static`, so the steady state
/// allocates nothing.
pub fn crawl_into<T: Transport>(
    client: &Client<T>,
    kb: &KnowledgeBase,
    ep: Endpoint,
    scheme: Scheme,
    out: &mut Vec<(&'static str, u64)>,
) {
    out.clear();
    for path in kb.crawl_paths() {
        let Ok(fetched) = client.get_path(ep, scheme, path) else {
            continue;
        };
        if !fetched.response.status.is_success() {
            continue;
        }
        out.push((*path, file_hash(&fetched.response.body)));
    }
}

/// Crawl and identify, borrowing the observation buffer from the
/// caller's [`Scratch`](crate::scratch::Scratch) — the stage-III
/// steady-state path.
pub fn identify_scratch<T: Transport>(
    client: &Client<T>,
    kb: &KnowledgeBase,
    ep: Endpoint,
    scheme: Scheme,
    scratch: &mut crate::scratch::Scratch,
) -> Option<(AppId, Version)> {
    let observations = scratch.crawl_buf();
    crawl_into(client, kb, ep, scheme, observations);
    kb.identify(observations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugin::AppHandler;
    use crate::scratch::Scratch;
    use nokeys_apps::version::history;
    use nokeys_apps::{build_instance, release_history, AppConfig};
    use nokeys_http::memory::HandlerTransport;
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
        let client = Client::new(HandlerTransport::new().with(ep, handler));
        let kb = KnowledgeBase::shared();
        let (found_app, found_version) =
            identify_scratch(&client, kb, ep, Scheme::Http, &mut Scratch::new())
                .expect("identified");
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
        let mut scratch = Scratch::new();
        for app in AppId::all() {
            let history = history(app);
            for idx in [0, history.len() / 2, history.len() - 1] {
                let version = history[idx];
                let handler = Arc::new(AppHandler::new(build_instance(
                    app,
                    version,
                    AppConfig::secure_for(app, &version),
                )));
                let client = Client::new(HandlerTransport::new().with(ep, handler));
                let found = identify_scratch(&client, kb, ep, Scheme::Http, &mut scratch)
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
        let client = Client::new(HandlerTransport::new().with(ep, handler));
        let kb = KnowledgeBase::shared();
        let mut obs = Vec::new();
        crawl_into(&client, kb, ep, Scheme::Http, &mut obs);
        assert_eq!(
            obs.len(),
            kb.crawl_paths().len(),
            "model serves all corpus files"
        );
    }

    #[test]
    fn unreachable_target_crawls_nothing() {
        let client = Client::new(HandlerTransport::new());
        let kb = KnowledgeBase::shared();
        let ep = Endpoint::new(Ipv4Addr::new(10, 3, 3, 5), 80);
        let mut scratch = Scratch::new();
        assert!(identify_scratch(&client, kb, ep, Scheme::Http, &mut scratch).is_none());
        assert!(scratch.crawl_buf().is_empty());
    }
}
