//! Static-file hash knowledge base.
//!
//! "The knowledge base is built using the repositories of the open-source
//! applications and includes hashes of their static files such as images,
//! scripts and stylesheets." Here the repositories are the deterministic
//! asset corpora of the application models.

use nokeys_apps::assets::{fingerprint as asset_fingerprint, ASSET_PATHS};
use nokeys_apps::version::history;
use nokeys_apps::{AppId, Version};
use std::collections::HashMap;

/// `(application, version index)` candidate.
pub type Candidate = (AppId, usize);

/// Hash → candidates index over every application and version.
pub struct KnowledgeBase {
    by_hash: HashMap<u64, Vec<Candidate>>,
    entries: usize,
}

impl KnowledgeBase {
    /// Build the base over all 25 applications and their full release
    /// histories.
    pub fn build() -> Self {
        let mut by_hash: HashMap<u64, Vec<Candidate>> = HashMap::new();
        let mut entries = 0;
        for app in AppId::all() {
            for (idx, version) in history(app).iter().enumerate() {
                for (_path, hash) in asset_fingerprint(app, version) {
                    by_hash.entry(hash).or_default().push((app, idx));
                    entries += 1;
                }
            }
        }
        KnowledgeBase { by_hash, entries }
    }

    /// Candidates whose corpus contains a file with `hash`.
    pub fn lookup(&self, hash: u64) -> &[Candidate] {
        self.by_hash.get(&hash).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Number of (hash, candidate) entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// The intersection of the candidate sets of every observed hash
    /// the base knows: the first such set, in its order, less what any
    /// later one lacks. An unknown file (e.g. user content) is ignored
    /// rather than wiping the intersection. Nothing is collected: each
    /// candidate of the first set is held against the later sets as it
    /// is asked for.
    fn surviving<'a, P>(
        &'a self,
        observations: &'a [(P, u64)],
    ) -> impl Iterator<Item = Candidate> + 'a {
        let mut known = observations
            .iter()
            .map(|(_path, hash)| self.lookup(*hash))
            .filter(|candidates| !candidates.is_empty());
        let first = known.next().unwrap_or(&[]);
        first
            .iter()
            .copied()
            .filter(move |candidate| known.clone().all(|later| later.contains(candidate)))
    }

    /// Identify an application and version from crawled `(path, hash)`
    /// observations: intersect the candidate sets of every observed hash
    /// and return the newest surviving version.
    ///
    /// Generic over the path type — only the hashes matter — so the
    /// scratch path's borrowed `&'static str` observations and the
    /// observer's owned `String` ones share one implementation.
    pub fn identify<P>(&self, observations: &[(P, u64)]) -> Option<(AppId, Version)> {
        let (app, idx) = self.surviving(observations).max_by_key(|(_, idx)| *idx)?;
        Some((app, history(app)[idx]))
    }

    /// The asset paths the crawler should request.
    pub fn crawl_paths(&self) -> &'static [&'static str] {
        &ASSET_PATHS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nokeys_apps::assets::asset_hash;
    use nokeys_apps::release_history;

    #[test]
    fn base_covers_all_apps_and_versions() {
        let kb = KnowledgeBase::build();
        let expected: usize = AppId::all()
            .map(|app| release_history(app).len() * ASSET_PATHS.len())
            .sum();
        assert_eq!(kb.len(), expected);
        assert!(!kb.is_empty());
    }

    #[test]
    fn identifies_exact_version_from_full_observation() {
        let kb = KnowledgeBase::build();
        let app = AppId::Kubernetes;
        let history = release_history(app);
        let idx = 3;
        let version = history[idx];
        let obs: Vec<(String, u64)> = ASSET_PATHS
            .iter()
            .map(|p| (p.to_string(), asset_hash(app, &version, p).unwrap()))
            .collect();
        let (found_app, found_version) = kb.identify(&obs).unwrap();
        assert_eq!(found_app, app);
        assert_eq!(found_version.triple(), version.triple());
    }

    #[test]
    fn partial_observation_narrows_to_a_version_range() {
        let kb = KnowledgeBase::build();
        let app = AppId::Hadoop;
        let history = release_history(app);
        let idx = 2;
        let version = history[idx];
        // Only the slow-churn asset: several adjacent versions share it;
        // the newest of them is returned.
        let obs = vec![(
            "/static/logo.svg".to_string(),
            asset_hash(app, &version, "/static/logo.svg").unwrap(),
        )];
        let (found_app, found_version) = kb.identify(&obs).unwrap();
        assert_eq!(found_app, app);
        // The returned version shares the asset generation with the true
        // one (same 8-release bucket).
        let found_idx = history
            .iter()
            .position(|v| v.triple() == found_version.triple())
            .unwrap();
        assert_eq!(found_idx / 8, idx / 8, "same asset generation");
        assert!(found_idx >= idx, "newest candidate is returned");
        // More assets narrow the range: the one file leaves several
        // versions standing, all four leave the true one alone.
        let wide: Vec<Candidate> = kb.surviving(&obs).collect();
        assert!(wide.len() > 1 && wide.contains(&(app, idx)), "{wide:?}");
        let all: Vec<(&str, u64)> = ASSET_PATHS
            .iter()
            .map(|p| (*p, asset_hash(app, &version, p).unwrap()))
            .collect();
        assert_eq!(kb.surviving(&all).collect::<Vec<_>>(), [(app, idx)]);
    }

    #[test]
    fn unknown_hashes_are_ignored() {
        let kb = KnowledgeBase::build();
        let app = AppId::Consul;
        let version = release_history(app)[1];
        let mut obs: Vec<(String, u64)> = ASSET_PATHS
            .iter()
            .map(|p| (p.to_string(), asset_hash(app, &version, p).unwrap()))
            .collect();
        obs.push(("/static/custom.css".to_string(), 0xdeadbeef));
        let (found_app, found_version) = kb.identify(&obs).unwrap();
        assert_eq!(found_app, app);
        assert_eq!(found_version.triple(), version.triple());
    }

    /// Observations in any order, any subset, some of two applications
    /// and some of none: `surviving` yields what intersecting collected
    /// candidate lists yields, in the same order.
    #[test]
    fn surviving_is_the_intersection_whatever_the_order() {
        use nokeys_http::cases::check;
        let kb = KnowledgeBase::build();
        let apps: Vec<AppId> = AppId::all().collect();
        check(256, |g| {
            let observations: Vec<(&str, u64)> = g.vec(0..7, |g| {
                let app = *g.pick(&apps[..3]);
                let history = release_history(app);
                let version = g.pick(&history[..history.len().min(12)]);
                let path = *g.pick(&ASSET_PATHS);
                let hash = asset_hash(app, version, path).unwrap();
                (path, if g.index(0..5) == 0 { g.u64() } else { hash })
            });
            let mut expected: Option<Vec<Candidate>> = None;
            for (_path, hash) in &observations {
                let candidates = kb.lookup(*hash);
                if candidates.is_empty() {
                    continue;
                }
                expected = Some(match expected {
                    None => candidates.to_vec(),
                    Some(prev) => prev
                        .into_iter()
                        .filter(|c| candidates.contains(c))
                        .collect(),
                });
            }
            let surviving: Vec<Candidate> = kb.surviving(&observations).collect();
            assert_eq!(surviving, expected.unwrap_or_default(), "{observations:?}");
            let newest = surviving.iter().max_by_key(|(_, idx)| *idx);
            assert_eq!(
                kb.identify(&observations),
                newest.map(|&(app, idx)| (app, release_history(app)[idx]))
            );
        });
    }

    #[test]
    fn no_known_hashes_yields_none() {
        let kb = KnowledgeBase::build();
        assert!(kb.identify(&[("/x".to_string(), 1)]).is_none());
        assert!(kb.identify::<&str>(&[]).is_none());
    }
}
