//! Static-asset corpus for the hash-based version fingerprinter.
//!
//! The paper's fingerprinter builds a knowledge base of hashes of static
//! files (images, scripts, stylesheets) per application version, crawls an
//! unknown host, hashes what it finds and matches against the base.
//!
//! Our models serve a small set of deterministic assets per application.
//! Asset contents change every `CHURN` releases, so consecutive versions
//! share most assets — exactly the property that makes real fingerprinting
//! return version *ranges* that narrow with more assets.
//!
//! One private function writes every asset's text from `(app, slot,
//! generation)`. The simulated servers reach it through [`asset_content`],
//! one version at a time; the knowledge base through [`distinct_files`],
//! which hashes each distinct file once, as a repository stores it, with
//! the range of versions that serve it. The two cannot drift apart.

use crate::catalog::AppId;
use crate::version::{history, Version};
use std::ops::Range;

/// Number of releases an asset's content survives before changing.
/// Different assets use different phases so combinations of assets narrow
/// the version further than single assets can.
const CHURN: [usize; 4] = [1, 2, 4, 8];

/// Relative asset paths every application serves.
pub const ASSET_PATHS: [&str; 4] = [
    "/static/app.js",
    "/static/style.css",
    "/static/vendor.js",
    "/static/logo.svg",
];

/// FNV-1a 64-bit — small, dependency-free, good enough for content
/// equality fingerprints.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Index of `version` in its app's release history.
fn version_index(app: AppId, version: &Version) -> usize {
    history(app)
        .iter()
        .position(|v| v.triple() == version.triple())
        .expect("version comes from the app's own history")
}

/// Filler so assets are not trivially tiny: `0123456789abcdef`, 16 times.
const FILLER: &str = "\
0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef\
0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef\
0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef\
0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef";

/// Text of generation `generation` of the asset at `ASSET_PATHS[slot]`.
///
/// The text embeds the app name, the asset path and the generation, so two
/// different apps, paths or generations never share a file.
fn asset_text(app: AppId, slot: usize, generation: usize) -> String {
    format!(
        "/* {} asset {} generation {} */\n{FILLER}\n",
        app.name(),
        ASSET_PATHS[slot],
        generation,
    )
}

/// Deterministic content of one asset of `app` at `version`.
pub fn asset_content(app: AppId, version: &Version, path: &str) -> Option<String> {
    let slot = ASSET_PATHS.iter().position(|p| *p == path)?;
    let generation = version_index(app, version) / CHURN[slot];
    Some(asset_text(app, slot, generation))
}

/// Every distinct static file in `app`'s history, hashed once: `(hash,
/// first..end)`, where the versions at `first..end` of [`history`] serve
/// that file. Path by path in `ASSET_PATHS` order, oldest generation
/// first, so the ranges of one path tile the whole history.
pub fn distinct_files(app: AppId) -> impl Iterator<Item = (u64, Range<usize>)> {
    let versions = history(app).len();
    CHURN
        .into_iter()
        .enumerate()
        .flat_map(move |(slot, churn)| {
            (0..versions.div_ceil(churn)).map(move |generation| {
                let first = generation * churn;
                let text = asset_text(app, slot, generation);
                (fnv1a(text.as_bytes()), first..versions.min(first + churn))
            })
        })
}

/// Hash of one asset of `app` at `version`.
pub fn asset_hash(app: AppId, version: &Version, path: &str) -> Option<u64> {
    asset_content(app, version, path).map(|c| fnv1a(c.as_bytes()))
}

/// The full `(path, hash)` fingerprint of `app` at `version`.
pub fn fingerprint(app: AppId, version: &Version) -> Vec<(&'static str, u64)> {
    ASSET_PATHS
        .iter()
        .map(|p| (*p, asset_hash(app, version, p).expect("known path")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::release_history;

    #[test]
    fn fnv_matches_known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn assets_are_deterministic() {
        let v = release_history(AppId::Hadoop)[3];
        assert_eq!(
            asset_content(AppId::Hadoop, &v, "/static/app.js"),
            asset_content(AppId::Hadoop, &v, "/static/app.js"),
        );
        assert_eq!(
            asset_content(AppId::Hadoop, &v, "/static/app.js").unwrap(),
            format!(
                "/* Hadoop asset /static/app.js generation 3 */\n{}\n",
                "0123456789abcdef".repeat(16)
            )
        );
    }

    #[test]
    fn different_apps_have_different_assets() {
        let vh = release_history(AppId::Hadoop)[0];
        let vn = release_history(AppId::Nomad)[0];
        assert_ne!(
            asset_hash(AppId::Hadoop, &vh, "/static/app.js"),
            asset_hash(AppId::Nomad, &vn, "/static/app.js"),
        );
    }

    #[test]
    fn fast_churn_asset_distinguishes_adjacent_versions() {
        let h = release_history(AppId::Kubernetes);
        // Slot 0 churns every release.
        assert_ne!(
            asset_hash(AppId::Kubernetes, &h[0], "/static/app.js"),
            asset_hash(AppId::Kubernetes, &h[1], "/static/app.js"),
        );
        // Slot 3 churns every 8 releases, so adjacent versions share it.
        assert_eq!(
            asset_hash(AppId::Kubernetes, &h[0], "/static/logo.svg"),
            asset_hash(AppId::Kubernetes, &h[1], "/static/logo.svg"),
        );
    }

    #[test]
    fn unknown_path_yields_none() {
        let v = release_history(AppId::Grav)[0];
        assert_eq!(asset_content(AppId::Grav, &v, "/static/nope.js"), None);
    }

    #[test]
    fn fingerprint_covers_all_paths() {
        let v = *release_history(AppId::Consul).last().unwrap();
        let fp = fingerprint(AppId::Consul, &v);
        assert_eq!(fp.len(), ASSET_PATHS.len());
    }

    /// What a server sends is a file the knowledge base holds: every
    /// asset of every version hashes to a distinct file whose range
    /// covers that version.
    #[test]
    fn served_assets_are_distinct_files_covering_their_version() {
        for app in AppId::all() {
            let files: Vec<(u64, Range<usize>)> = distinct_files(app).collect();
            for (idx, version) in history(app).iter().enumerate() {
                for path in ASSET_PATHS {
                    let hash = fnv1a(asset_content(app, version, path).unwrap().as_bytes());
                    assert!(
                        files
                            .iter()
                            .any(|(h, range)| *h == hash && range.contains(&idx)),
                        "{app} {version} {path}"
                    );
                }
            }
        }
    }

    /// Each path's files tile the history once, oldest first, with
    /// ranges `CHURN` versions long (the last may be shorter).
    #[test]
    fn distinct_files_tile_each_history_per_path() {
        for app in AppId::all() {
            let versions = history(app).len();
            let files: Vec<(u64, Range<usize>)> = distinct_files(app).collect();
            let mut rest = &files[..];
            for churn in CHURN {
                let (path_files, later) = rest.split_at(versions.div_ceil(churn));
                let mut next = 0;
                for (_, range) in path_files {
                    assert_eq!(range.start, next, "{app}");
                    assert!(!range.is_empty() && range.len() <= churn, "{app}");
                    next = range.end;
                }
                assert_eq!(next, versions, "{app}");
                rest = later;
            }
            assert!(rest.is_empty(), "{app}");
        }
    }
}
