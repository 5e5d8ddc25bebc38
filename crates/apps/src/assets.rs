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

use crate::catalog::AppId;
use crate::version::{history, Version};

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

/// Deterministic content of one asset of `app` at `version`.
///
/// The content embeds the app name, the asset path and the asset's content
/// generation, so two different apps or generations never collide.
pub fn asset_content(app: AppId, version: &Version, path: &str) -> Option<String> {
    let slot = ASSET_PATHS.iter().position(|p| *p == path)?;
    let idx = version_index(app, version);
    let generation = idx / CHURN[slot];
    Some(format!(
        "/* {} asset {} generation {} */\n{FILLER}\n",
        app.name(),
        path,
        generation,
    ))
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
}
