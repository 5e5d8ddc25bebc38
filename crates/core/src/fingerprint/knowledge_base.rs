//! Static-file hash knowledge base.
//!
//! "The knowledge base is built using the repositories of the open-source
//! applications and includes hashes of their static files such as images,
//! scripts and stylesheets." Here the repositories are the deterministic
//! asset corpora of the application models.
//!
//! A repository stores a file once, however many releases keep it, and so
//! does the base: one record per distinct static file — its hash, its
//! application and the range of versions that serve it — hashed once at
//! build time ([`distinct_files`]). A version is a candidate for an
//! observed hash when a record of that hash covers it. The records are
//! found through a start index on the hash's top bits, 2^⌈log₂ files⌉
//! buckets derived from the data, so a lookup is one index load and a
//! scan of about one record. The build counts each bucket's files, puts
//! every file straight into its bucket, and sorts by `(hash, app,
//! first)` only the buckets that hold more than one. One base is built
//! per process ([`KnowledgeBase::shared`]). DESIGN.md §14 has the layout
//! and its measurements.

use nokeys_apps::assets::{distinct_file_count, distinct_files, ASSET_PATHS};
use nokeys_apps::version::history;
use nokeys_apps::{AppId, Version};
use std::ops::Range;
use std::sync::OnceLock;

/// `(application, version index)` candidate.
pub type Candidate = (AppId, usize);

/// One distinct static file: the versions at `versions` of `app`'s
/// history serve the file that hashes to `hash`.
#[derive(Clone)]
struct File {
    hash: u64,
    app: AppId,
    versions: Range<usize>,
}

/// The distinct static files of every application and version, by hash.
pub struct KnowledgeBase {
    /// Sorted by `(hash, app, first)`.
    files: Vec<File>,
    /// Bucket `b` is `files[starts[b]..starts[b + 1]]`: the files whose
    /// hash has `b` as its top `bits` bits.
    starts: Vec<usize>,
    bits: u32,
    /// `(hash, candidate)` pairs: the files' range lengths summed.
    entries: usize,
}

/// The top `bits` bits of `hash`. Written as the high word of
/// `hash · 2^bits`, which is `hash >> (64 - bits)` for `bits` ≥ 1 and 0,
/// not a shift by 64, for a base of one bucket.
fn bucket(hash: u64, bits: u32) -> usize {
    ((u128::from(hash) << bits) >> 64) as usize
}

/// The `(app, version)` candidates `files` name, file by file.
fn candidates(files: &[File]) -> impl Iterator<Item = Candidate> + '_ {
    files
        .iter()
        .flat_map(|file| file.versions.clone().map(move |idx| (file.app, idx)))
}

/// Whether one of `files` is served by `candidate`.
fn serves(files: &[File], (app, idx): Candidate) -> bool {
    files
        .iter()
        .any(|file| file.app == app && file.versions.contains(&idx))
}

impl KnowledgeBase {
    /// Build the base over all 25 applications and their full release
    /// histories, hashing each distinct static file once.
    pub fn build() -> Self {
        let mut files = Vec::with_capacity(AppId::all().map(distinct_file_count).sum());
        for app in AppId::all() {
            files.extend(distinct_files(app).map(|(hash, versions)| File {
                hash,
                app,
                versions,
            }));
        }
        Self::from_files(files)
    }

    /// The base [`build`](Self::build) makes, built once per process and
    /// shared by every fingerprinter.
    pub fn shared() -> &'static KnowledgeBase {
        static SHARED: OnceLock<KnowledgeBase> = OnceLock::new();
        SHARED.get_or_init(KnowledgeBase::build)
    }

    /// Index `files` by the top bits of their hashes and put them in
    /// `(hash, app, first)` order: count each bucket's files, place every
    /// file in its bucket, then sort the buckets that hold more than one.
    fn from_files(files: Vec<File>) -> Self {
        let bits = files.len().next_power_of_two().trailing_zeros();
        // Count each bucket's files one slot to its right, then sum.
        let mut starts = vec![0; (1 << bits) + 1];
        for file in &files {
            starts[bucket(file.hash, bits) + 1] += 1;
        }
        let mut total = 0;
        for start in &mut starts {
            total += *start;
            *start = total;
        }
        // `order[place]`: the file that goes there. Each file, in the
        // order given, takes its bucket's next free place.
        let mut next = starts.clone();
        let mut order = vec![0; files.len()];
        for (i, file) in files.iter().enumerate() {
            let b = bucket(file.hash, bits);
            order[next[b]] = i;
            next[b] += 1;
        }
        let mut files: Vec<File> = order.iter().map(|&i| files[i].clone()).collect();
        for window in starts.windows(2) {
            if window[1] - window[0] > 1 {
                files[window[0]..window[1]]
                    .sort_unstable_by_key(|file| (file.hash, file.app, file.versions.start));
            }
        }
        let entries = files.iter().map(|file| file.versions.len()).sum();
        KnowledgeBase {
            files,
            starts,
            bits,
            entries,
        }
    }

    /// The files that carry `hash`, in `(app, first)` order.
    fn files_of(&self, hash: u64) -> &[File] {
        let b = bucket(hash, self.bits);
        let files = &self.files[self.starts[b]..self.starts[b + 1]];
        let first = files.partition_point(|file| file.hash < hash);
        let run = files[first..].partition_point(|file| file.hash == hash);
        &files[first..first + run]
    }

    /// Candidates whose corpus contains a file with `hash`.
    #[cfg(test)]
    fn lookup(&self, hash: u64) -> impl Iterator<Item = Candidate> + '_ {
        candidates(self.files_of(hash))
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
    /// candidate of the first set is held against the later sets' files
    /// as it is asked for.
    fn surviving<'a, P>(
        &'a self,
        observations: &'a [(P, u64)],
    ) -> impl Iterator<Item = Candidate> + 'a {
        let mut known = observations
            .iter()
            .map(|(_path, hash)| self.files_of(*hash))
            .filter(|files| !files.is_empty());
        let first = known.next().unwrap_or(&[]);
        candidates(first)
            .filter(move |&candidate| known.clone().all(|later| serves(later, candidate)))
    }

    /// Identify an application and version from crawled `(path, hash)`
    /// observations: intersect the candidate sets of every observed hash
    /// and return the newest surviving version; of two applications
    /// whose newest survivors tie, the later in catalog order.
    ///
    /// Generic over the path type, since only the hashes are read: the
    /// crawler passes the filled prefix of its stack array of
    /// `&'static str` paths, and the benchmark and the tests pass arrays
    /// of shorter-lived `&str`.
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
    use nokeys_apps::assets::{self, asset_hash};
    use nokeys_apps::release_history;
    use nokeys_http::cases::{check, Gen};
    use std::collections::{BTreeMap, HashSet};

    /// The per-version build the file table replaced: every asset of
    /// every version of every application hashed, and each hash's
    /// candidates collected in build order.
    fn per_version_lists() -> BTreeMap<u64, Vec<Candidate>> {
        let mut lists: BTreeMap<u64, Vec<Candidate>> = BTreeMap::new();
        for app in AppId::all() {
            for (idx, version) in history(app).iter().enumerate() {
                for (_path, hash) in assets::fingerprint(app, version) {
                    lists.entry(hash).or_default().push((app, idx));
                }
            }
        }
        lists
    }

    /// The candidates of `hash` as a list collected from `files` in the
    /// order they are given.
    fn collected(files: &[File], hash: u64) -> Vec<Candidate> {
        files
            .iter()
            .filter(|file| file.hash == hash)
            .flat_map(|file| file.versions.clone().map(move |idx| (file.app, idx)))
            .collect()
    }

    /// Identification by collected lists: intersect the lists of the
    /// known hashes, then take the newest survivor and, on a tie, the
    /// later application.
    fn collected_identify(files: &[File], observations: &[(&str, u64)]) -> Option<Candidate> {
        let mut surviving: Option<Vec<Candidate>> = None;
        for (_path, hash) in observations {
            let list = collected(files, *hash);
            if list.is_empty() {
                continue;
            }
            surviving = Some(match surviving {
                None => list,
                Some(prev) => prev.into_iter().filter(|c| list.contains(c)).collect(),
            });
        }
        surviving?.into_iter().max_by_key(|&(app, idx)| (idx, app))
    }

    /// Files whose hashes collide on purpose: `0xa` and `0xc` are each
    /// served by two applications (their newest survivors tie), `0xb` by
    /// two overlapping ranges of one application, `0` and `u64::MAX` sit
    /// at the index's two ends and `1 << 63` beside its successor. Given
    /// out of order, so the build must sort them.
    fn forced_collisions() -> Vec<File> {
        let (jenkins, hadoop) = (AppId::Jenkins, AppId::Hadoop);
        let file = |hash, app, versions| File {
            hash,
            app,
            versions,
        };
        vec![
            file(0xa, hadoop, 1..4),
            file(0xa, jenkins, 0..4),
            file(0xb, jenkins, 3..8),
            file(0xb, jenkins, 1..5),
            file(0xc, hadoop, 2..3),
            file(0xc, jenkins, 2..3),
            file(u64::MAX, hadoop, 0..9),
            file(u64::MAX, jenkins, 0..9),
            file(0, jenkins, 2..3),
            file((1 << 63) + 1, hadoop, 6..8),
            file(1 << 63, jenkins, 6..7),
        ]
    }

    /// A hash for an observation: mostly one of `hashes`, sometimes
    /// anything.
    fn observed(g: &mut Gen, hashes: &[u64]) -> u64 {
        if g.index(0..5) == 0 {
            g.u64()
        } else {
            *g.pick(hashes)
        }
    }

    /// `surviving` yields what intersecting the collected lists `lookup`
    /// gives yields, in the same order, and `identify` is its newest.
    fn assert_surviving_is_the_intersection(kb: &KnowledgeBase, observations: &[(&str, u64)]) {
        let mut expected: Option<Vec<Candidate>> = None;
        for (_path, hash) in observations {
            let candidates: Vec<Candidate> = kb.lookup(*hash).collect();
            if candidates.is_empty() {
                continue;
            }
            expected = Some(match expected {
                None => candidates,
                Some(prev) => prev
                    .into_iter()
                    .filter(|c| candidates.contains(c))
                    .collect(),
            });
        }
        let surviving: Vec<Candidate> = kb.surviving(observations).collect();
        assert_eq!(surviving, expected.unwrap_or_default(), "{observations:?}");
        let newest = surviving.iter().max_by_key(|(_, idx)| *idx);
        assert_eq!(
            kb.identify(observations),
            newest.map(|&(app, idx)| (app, history(app)[idx]))
        );
    }

    #[test]
    fn base_covers_all_apps_and_versions() {
        let kb = KnowledgeBase::build();
        let expected: usize = AppId::all()
            .map(|app| release_history(app).len() * ASSET_PATHS.len())
            .sum();
        assert_eq!(kb.len(), expected);
        assert!(!kb.is_empty());
    }

    /// For every hash the per-version loop met, the file table yields
    /// the same candidates in the same order, from 982 files standing
    /// for 2,036 `(hash, candidate)` entries, each in its own bucket.
    #[test]
    fn files_yield_what_the_per_version_loop_collected() {
        let kb = KnowledgeBase::build();
        let lists = per_version_lists();
        for (hash, list) in &lists {
            assert_eq!(kb.lookup(*hash).collect::<Vec<_>>(), *list, "{hash:#x}");
        }
        assert!(kb.files.iter().all(|file| lists.contains_key(&file.hash)));
        assert_eq!(lists.values().map(Vec::len).sum::<usize>(), kb.len());
        assert_eq!(kb.len(), 2036);
        assert_eq!(kb.files.len(), 982);
        assert_eq!(kb.files.capacity(), 982);
        assert_eq!(kb.starts.len(), 1024 + 1);
        for (b, window) in kb.starts.windows(2).enumerate() {
            for file in &kb.files[window[0]..window[1]] {
                assert_eq!(bucket(file.hash, kb.bits), b);
            }
        }
    }

    /// Every one of the 509 versions of the 25 applications is told
    /// apart by its four assets.
    #[test]
    fn identifies_exact_version_from_full_observation() {
        let kb = KnowledgeBase::shared();
        let mut versions = 0;
        for app in AppId::all() {
            for version in history(app) {
                let obs: Vec<(String, u64)> = ASSET_PATHS
                    .iter()
                    .map(|p| (p.to_string(), asset_hash(app, version, p).unwrap()))
                    .collect();
                let (found_app, found_version) = kb.identify(&obs).unwrap();
                assert_eq!(found_app, app);
                assert_eq!(found_version.triple(), version.triple(), "{app}");
                versions += 1;
            }
        }
        assert_eq!(versions, 509);
    }

    #[test]
    fn partial_observation_narrows_to_a_version_range() {
        let kb = KnowledgeBase::shared();
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

    /// The slow-churn asset alone names its generation's eight releases
    /// (fewer at the end of a history), and the newest of them is what
    /// every version of the generation is identified as.
    #[test]
    fn slow_churn_asset_alone_gives_the_newest_of_its_generation() {
        let kb = KnowledgeBase::shared();
        let path = "/static/logo.svg";
        for app in AppId::all() {
            let history = history(app);
            for (idx, version) in history.iter().enumerate() {
                let newest = history.len().min((idx / 8 + 1) * 8) - 1;
                let obs = [(path, asset_hash(app, version, path).unwrap())];
                assert_eq!(kb.identify(&obs), Some((app, history[newest])), "{app}");
            }
        }
    }

    #[test]
    fn unknown_hashes_are_ignored() {
        let kb = KnowledgeBase::shared();
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
    /// candidate lists yields, in the same order — over the built base
    /// and over one whose hashes collide on purpose.
    #[test]
    fn surviving_is_the_intersection_whatever_the_order() {
        let kb = KnowledgeBase::shared();
        let apps: Vec<AppId> = AppId::all().collect();
        check(256, |g| {
            let observations: Vec<(&str, u64)> = g.vec(0..7, |g| {
                let app = *g.pick(&apps[..3]);
                let history = history(app);
                let version = g.pick(&history[..history.len().min(12)]);
                let path = *g.pick(&ASSET_PATHS);
                let hash = asset_hash(app, version, path).unwrap();
                (path, observed(g, &[hash]))
            });
            assert_surviving_is_the_intersection(kb, &observations);
        });
        let files = forced_collisions();
        let hashes: Vec<u64> = files.iter().map(|file| file.hash).collect();
        let collided = KnowledgeBase::from_files(files);
        check(256, |g| {
            let observations: Vec<(&str, u64)> = g.vec(0..5, |g| ("/x", observed(g, &hashes)));
            assert_surviving_is_the_intersection(&collided, &observations);
        });
    }

    /// Two applications behind one hash, overlapping ranges of one
    /// application behind another: the table identifies what intersecting
    /// collected lists does, ties going to the later application.
    #[test]
    fn forced_collisions_identify_as_collected_lists_do() {
        let files = forced_collisions();
        let kb = KnowledgeBase::from_files(files.clone());
        let (jenkins, hadoop) = (AppId::Jenkins, AppId::Hadoop);
        let at = |app: AppId, idx: usize| Some((app, history(app)[idx]));
        assert_eq!(kb.identify(&[("/x", 0xa)]), at(hadoop, 3));
        assert_eq!(kb.identify(&[("/x", 0xa), ("/y", 0xc)]), at(hadoop, 2));
        assert_eq!(kb.identify(&[("/x", 0xb)]), at(jenkins, 7));
        assert_eq!(kb.identify(&[("/x", 0xb), ("/y", 0xa)]), at(jenkins, 3));
        assert_eq!(kb.identify(&[("/x", 0xa), ("/y", 1 << 63)]), None);
        assert_eq!(kb.len(), 40);
        let hashes: Vec<u64> = files.iter().map(|file| file.hash).collect();
        check(512, |g| {
            let observations: Vec<(&str, u64)> = g.vec(0..5, |g| ("/x", observed(g, &hashes)));
            assert_eq!(
                kb.identify(&observations),
                collected_identify(&files, &observations)
                    .map(|(app, idx)| (app, history(app)[idx])),
                "{observations:?}"
            );
        });
    }

    /// Counting placement orders `files` and `starts` as sorting every
    /// file does — the sort is kept here as the oracle — on random sets
    /// of up to 300 files whose hashes repeat, share their top bits and
    /// so crowd one bucket, sit at both ends of the index or are
    /// anything, and on the forced collisions. A set's keys are unique,
    /// as a real base's are (a file's text names its application, path
    /// and generation), so the sorted order is the only one.
    #[test]
    fn bucket_placement_orders_files_as_the_sort_does() {
        fn assert_placed_as_sorted(files: Vec<File>) {
            let mut sorted = files.clone();
            sorted.sort_unstable_by_key(|f| (f.hash, f.app, f.versions.start));
            let bits = sorted.len().next_power_of_two().trailing_zeros();
            let starts: Vec<usize> = (0..=1 << bits)
                .map(|b| sorted.partition_point(|f| bucket(f.hash, bits) < b))
                .collect();
            let fields = |files: &[File]| -> Vec<(u64, AppId, Range<usize>)> {
                files
                    .iter()
                    .map(|f| (f.hash, f.app, f.versions.clone()))
                    .collect()
            };
            let kb = KnowledgeBase::from_files(files);
            assert_eq!(fields(&kb.files), fields(&sorted));
            assert_eq!((kb.bits, &kb.starts), (bits, &starts));
        }
        let apps: Vec<AppId> = AppId::all().collect();
        check(256, |g| {
            let crowded = g.u64();
            let mut files = g.vec(0..301, |g| {
                let hash = match g.index(0..4) {
                    0 => g.range(0..4),
                    1 => crowded ^ g.range(0..1 << 20),
                    2 => u64::MAX - g.range(0..4),
                    _ => g.u64(),
                };
                let first = g.index(0..40);
                File {
                    hash,
                    app: *g.pick(&apps),
                    versions: first..first + g.index(1..9),
                }
            });
            let mut keys = HashSet::new();
            files.retain(|f| keys.insert((f.hash, f.app, f.versions.start)));
            assert_placed_as_sorted(files);
        });
        assert_placed_as_sorted(forced_collisions());
    }

    /// Hashes at both ends of the index, an empty base (one bucket, no
    /// files) and a one-file base, whose zero-bit bucket must not be a
    /// shift by 64.
    #[test]
    fn bucket_edges_hold() {
        let (jenkins, hadoop) = (AppId::Jenkins, AppId::Hadoop);
        let kb = KnowledgeBase::from_files(forced_collisions());
        assert_eq!(kb.bits, 4);
        assert_eq!(bucket(0, kb.bits), 0);
        assert_eq!(bucket(u64::MAX, kb.bits), 15);
        assert_eq!(kb.lookup(0).collect::<Vec<_>>(), [(jenkins, 2)]);
        let both: Vec<Candidate> = [jenkins, hadoop]
            .into_iter()
            .flat_map(|app| (0..9).map(move |idx| (app, idx)))
            .collect();
        assert_eq!(kb.lookup(u64::MAX).collect::<Vec<_>>(), both);
        assert_eq!(kb.lookup(1 << 63).collect::<Vec<_>>(), [(jenkins, 6)]);
        assert_eq!(kb.lookup(1).count(), 0);
        assert_eq!(kb.lookup(u64::MAX - 1).count(), 0);

        let empty = KnowledgeBase::from_files(Vec::new());
        assert!(empty.is_empty());
        assert_eq!((empty.bits, &empty.starts[..]), (0, &[0, 0][..]));
        for hash in [0, 1, u64::MAX] {
            assert_eq!(empty.lookup(hash).count(), 0);
            assert!(empty.identify(&[("/x", hash)]).is_none());
        }

        let one = KnowledgeBase::from_files(vec![File {
            hash: u64::MAX,
            app: hadoop,
            versions: 4..5,
        }]);
        assert_eq!((one.bits, &one.starts[..]), (0, &[0, 1][..]));
        assert_eq!(
            one.identify(&[("/x", u64::MAX)]),
            Some((hadoop, history(hadoop)[4]))
        );
        assert!(one.identify(&[("/x", 0)]).is_none());
        assert!(one.identify(&[("/x", u64::MAX - 1)]).is_none());
    }

    #[test]
    fn no_known_hashes_yields_none() {
        let kb = KnowledgeBase::shared();
        assert!(kb.identify(&[("/x".to_string(), 1)]).is_none());
        assert!(kb.identify::<&str>(&[]).is_none());
    }
}
