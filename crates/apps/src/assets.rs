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
//! generation)` into a caller's string, copying its fixed pieces rather
//! than formatting them. The simulated servers reach it through
//! [`asset_content`], one version at a time, each text in a string of
//! exactly its length; the knowledge base through [`distinct_files`],
//! which hashes each distinct file once, as a repository stores it, with
//! the range of versions that serve it, writing all of an application's
//! files into one reused buffer. The two cannot drift apart, and both
//! sides hash with [`file_hash`]. No asset is cached: the knowledge
//! base's build, which the benchmark times, writes every file afresh.

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

/// Seed, block and finish constants of [`file_hash`] (wyhash's).
const K0: u64 = 0xa076_1d64_78bd_642f;
const K1: u64 = 0xe703_7ed1_a0b4_28db;
const K2: u64 = 0x8ebc_6af0_9c88_c6e3;

/// The low word xor the high word of the 128-bit product `x · y`.
fn fold(x: u64, y: u64) -> u64 {
    let product = x as u128 * y as u128;
    product as u64 ^ (product >> 64) as u64
}

/// Mix one 16-byte block, read little-endian into `words`, into `h`.
fn absorb(h: u64, words: u128) -> u64 {
    fold(words as u64 ^ h, (words >> 64) as u64 ^ K1)
}

/// The content hash of a static file: the fingerprinter hashes what a
/// host serves with it, and the knowledge base what the repositories
/// hold.
///
/// A folded-multiply hash (the wyhash/foldhash construction): the length
/// seeds the state, each 16-byte block costs one 64 × 64 → 128-bit
/// multiply, and the tail is zero-padded to a last block, which is safe
/// because two inputs that pad alike differ in length. The value is the
/// same on every target. It is a content-equality fingerprint, not a
/// cryptographic hash: a host that forges a colliding file is not
/// resisted.
pub fn file_hash(bytes: &[u8]) -> u64 {
    let (blocks, tail) = bytes.as_chunks::<16>();
    let mut h = blocks.iter().fold(K0 ^ bytes.len() as u64, |h, block| {
        absorb(h, u128::from_le_bytes(*block))
    });
    if !tail.is_empty() {
        // Shifted in byte by byte: copying the tail into a zeroed block
        // compiles to memset and memcpy calls that cost as much as all
        // the blocks of a ~300 B asset.
        let last = tail.iter().rev().fold(0, |w, &b| w << 8 | u128::from(b));
        h = absorb(h, last);
    }
    fold(h, K2)
}

/// No longer FNV-1a: a forward to [`file_hash`], kept only because
/// `benchmark/src/program.rs` binds `assets::fnv1a` (ROADMAP item 1(a)
/// deletes it). New code calls [`file_hash`].
pub fn fnv1a(bytes: &[u8]) -> u64 {
    file_hash(bytes)
}

/// Index of `version` in its app's release history, by bisection: a
/// history is strictly increasing by `triple()`.
fn version_index(app: AppId, version: &Version) -> usize {
    history(app)
        .binary_search_by_key(&version.triple(), Version::triple)
        .expect("version comes from the app's own history")
}

/// Filler so assets are not trivially tiny: `0123456789abcdef`, 16 times.
const FILLER: &str = "\
0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef\
0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef\
0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef\
0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef";

/// Write generation `generation` of the asset at `ASSET_PATHS[slot]`
/// into `out`, in place of what it held: `/* <app> asset <path>
/// generation <n> */`, a newline, [`FILLER`] and a newline.
///
/// The text embeds the app name, the asset path and the generation, so two
/// different apps, paths or generations never share a file. Its nine
/// pieces are copied in after one reservation of their summed length:
/// through `format!` the same text took most of the knowledge base's
/// build (DESIGN.md §14). A buffer that already holds as much is not
/// reallocated, so a caller that writes many files reuses one.
fn write_asset_text(out: &mut String, app: AppId, slot: usize, generation: usize) {
    // Decimal digits of `generation`, written from the right.
    let mut digits = [0u8; 20];
    let mut first = digits.len();
    let mut rest = generation;
    loop {
        first -= 1;
        digits[first] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    let generation = std::str::from_utf8(&digits[first..]).expect("ASCII digits");
    let pieces = [
        "/* ",
        app.name(),
        " asset ",
        ASSET_PATHS[slot],
        " generation ",
        generation,
        " */\n",
        FILLER,
        "\n",
    ];
    out.clear();
    out.reserve(pieces.iter().map(|piece| piece.len()).sum());
    for piece in pieces {
        out.push_str(piece);
    }
}

/// The text [`write_asset_text`] writes, in a string of exactly its
/// length: on an empty string the writer's one reservation is the
/// allocation (a test below holds capacity to length).
fn asset_text(app: AppId, slot: usize, generation: usize) -> String {
    let mut text = String::new();
    write_asset_text(&mut text, app, slot, generation);
    text
}

/// Deterministic content of one asset of `app` at `version`.
pub fn asset_content(app: AppId, version: &Version, path: &str) -> Option<String> {
    let slot = ASSET_PATHS.iter().position(|p| *p == path)?;
    let generation = version_index(app, version) / CHURN[slot];
    Some(asset_text(app, slot, generation))
}

/// How many files [`distinct_files`] yields for `app`: over the
/// `CHURN` slots, ⌈versions / churn⌉ each.
pub fn distinct_file_count(app: AppId) -> usize {
    let versions = history(app).len();
    CHURN.iter().map(|churn| versions.div_ceil(*churn)).sum()
}

/// Every distinct static file in `app`'s history, hashed once: `(hash,
/// first..end)`, where the versions at `first..end` of [`history`] serve
/// that file. Path by path in `ASSET_PATHS` order, oldest generation
/// first, so the ranges of one path tile the whole history. Each file
/// is written into the one buffer the iterator owns.
pub fn distinct_files(app: AppId) -> impl Iterator<Item = (u64, Range<usize>)> {
    let versions = history(app).len();
    let mut text = String::new();
    CHURN
        .into_iter()
        .enumerate()
        .flat_map(move |(slot, churn)| {
            (0..versions.div_ceil(churn)).map(move |generation| (slot, churn, generation))
        })
        .map(move |(slot, churn, generation)| {
            write_asset_text(&mut text, app, slot, generation);
            let first = generation * churn;
            (
                file_hash(text.as_bytes()),
                first..versions.min(first + churn),
            )
        })
}

/// Hash of one asset of `app` at `version`.
pub fn asset_hash(app: AppId, version: &Version, path: &str) -> Option<u64> {
    asset_content(app, version, path).map(|c| file_hash(c.as_bytes()))
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
    use nokeys_http::cases::check;
    use std::collections::HashSet;

    /// Pinned values: any edit to [`file_hash`] must change them here,
    /// on purpose.
    #[test]
    fn file_hash_known_answers() {
        let app_js = asset_content(AppId::Hadoop, &history(AppId::Hadoop)[3], "/static/app.js")
            .expect("known path");
        let cases: [(&[u8], u64); 7] = [
            (b"", 0xe28f_2b20_61a2_b984),
            (b"a", 0xa21b_3e83_4503_3071),
            (b"0123456789abcde", 0x54a0_e091_5a53_4529),
            (b"0123456789abcdef", 0x69c1_64d7_2244_57b9),
            (b"0123456789abcdefg", 0xc520_4f5f_22d4_041e),
            (b"0123456789abcdef0123456789abcdef", 0xe1b9_9cd2_d932_f5f9),
            (app_js.as_bytes(), 0x12b1_4f79_820e_cd41),
        ];
        for (input, want) in cases {
            assert_eq!(
                file_hash(input),
                want,
                "{:?}",
                String::from_utf8_lossy(input)
            );
        }
    }

    #[test]
    fn every_bit_of_a_short_input_reaches_the_hash() {
        check(8, |g| {
            for len in 0..=48 {
                let mut input = g.bytes(len..len + 1);
                let hash = file_hash(&input);
                for bit in 0..len * 8 {
                    input[bit / 8] ^= 1 << (bit % 8);
                    assert_ne!(file_hash(&input), hash, "length {len}, bit {bit}");
                    input[bit / 8] ^= 1 << (bit % 8);
                }
            }
        });
    }

    /// Zero-padding a tail to a whole block loses nothing, because the
    /// length is in the seed: no prefix of a run of zeros, or of
    /// `FILLER`, hashes like another.
    #[test]
    fn padding_and_length_do_not_collide() {
        let zeros = [0u8; 40];
        for buffer in [&zeros[..], FILLER.as_bytes()] {
            let mut seen = HashSet::new();
            for len in 0..=buffer.len() {
                assert!(seen.insert(file_hash(&buffer[..len])), "prefix {len}");
            }
        }
    }

    /// The template [`write_asset_text`] writes piece by piece, as
    /// `format!` wrote it.
    fn formatted(app: AppId, slot: usize, generation: usize) -> String {
        format!(
            "/* {} asset {} generation {} */\n{FILLER}\n",
            app.name(),
            ASSET_PATHS[slot],
            generation,
        )
    }

    /// Every file of every slot of every application is the template's
    /// text, in a string of exactly its length. Jenkins's 34 versions
    /// take slot 0 to generation 33, so two-digit generations are
    /// among them; longer ones are checked beyond the histories.
    #[test]
    fn asset_text_is_the_template_for_every_file() {
        let mut newest = 0;
        for app in AppId::all() {
            let versions = history(app).len();
            for (slot, churn) in CHURN.into_iter().enumerate() {
                for generation in 0..versions.div_ceil(churn) {
                    let text = asset_text(app, slot, generation);
                    assert_eq!(text, formatted(app, slot, generation));
                    assert_eq!(text.capacity(), text.len());
                    newest = newest.max(generation);
                }
            }
        }
        assert_eq!(newest, 33);
        for generation in [99, 100, 1_000_007, usize::MAX] {
            assert_eq!(
                asset_text(AppId::Grav, 3, generation),
                formatted(AppId::Grav, 3, generation)
            );
        }
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
                    let hash = file_hash(asset_content(app, version, path).unwrap().as_bytes());
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
            assert_eq!(files.len(), distinct_file_count(app), "{app}");
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
