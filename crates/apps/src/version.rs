//! Version and release-date model for the investigated applications.
//!
//! The paper compares deployed software by *release date* rather than
//! version number (Section 3.3, RQ2 / Figure 1). We model each
//! application's release history as a list of versions with release months.
//! The histories are synthetic but pin the four security-relevant anchors
//! from the paper:
//!
//! * Jenkins 2.0 (April 2016) — random admin password at install,
//! * Jupyter Notebook 4.3 (December 2016) — token auth by default,
//! * Joomla 3.7.4 (July 2017) — remote-DB installation countermeasure,
//! * Adminer 4.6.3 (June 2018) — empty passwords rejected.

use crate::catalog::AppId;
use std::fmt;
use std::sync::OnceLock;

/// Year + month of a release. Months are enough resolution for the
/// paper's half-year binning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReleaseDate {
    pub year: u16,
    /// 1-12.
    pub month: u8,
}

impl ReleaseDate {
    pub const fn new(year: u16, month: u8) -> Self {
        ReleaseDate { year, month }
    }

    /// Months since January 2000; used for ordering and distance.
    pub fn months_since_2000(self) -> i32 {
        (self.year as i32 - 2000) * 12 + (self.month as i32 - 1)
    }

    /// Months between `self` and a later date (saturating at 0).
    pub fn months_until(self, later: ReleaseDate) -> i32 {
        (later.months_since_2000() - self.months_since_2000()).max(0)
    }
}

impl fmt::Display for ReleaseDate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}", self.year, self.month)
    }
}

/// A released version of an application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Version {
    pub major: u16,
    pub minor: u16,
    pub patch: u16,
    pub released: ReleaseDate,
}

impl Version {
    pub const fn new(major: u16, minor: u16, patch: u16, released: ReleaseDate) -> Self {
        Version {
            major,
            minor,
            patch,
            released,
        }
    }

    /// Version triple as a comparable key (release order also sorts by
    /// this within one application).
    pub fn triple(&self) -> (u16, u16, u16) {
        (self.major, self.minor, self.patch)
    }

    /// `"major.minor.patch"`.
    pub fn number(&self) -> String {
        format!("{}.{}.{}", self.major, self.minor, self.patch)
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.number(), self.released)
    }
}

/// Build a synthetic timeline: quarterly releases from `start`, bumping
/// minor each release and major every `releases_per_major`.
fn synthetic_timeline(
    start_major: u16,
    start: ReleaseDate,
    end: ReleaseDate,
    releases_per_major: u16,
) -> Vec<Version> {
    let mut out = Vec::new();
    let mut major = start_major;
    let mut minor = 0;
    let mut date = start;
    while date <= end {
        out.push(Version::new(major, minor, 0, date));
        minor += 1;
        if minor == releases_per_major {
            major += 1;
            minor = 0;
        }
        // Advance one quarter.
        let mut m = date.month as u16 + 3;
        let mut y = date.year;
        if m > 12 {
            m -= 12;
            y += 1;
        }
        date = ReleaseDate::new(y, m as u8);
    }
    out
}

/// End of the study's observation horizon (the scan ran June 2021).
pub const STUDY_HORIZON: ReleaseDate = ReleaseDate::new(2021, 6);

/// The release history for an application, oldest first.
///
/// Histories are deterministic and stable; indices into this list are used
/// as compact version identifiers across the simulation. All 25 are
/// generated on the first call and kept for the life of the process.
pub fn history(app: AppId) -> &'static [Version] {
    static HISTORIES: OnceLock<Vec<Vec<Version>>> = OnceLock::new();
    // `AppId::all` is in declaration order (asserted in `catalog`).
    &HISTORIES.get_or_init(|| AppId::all().map(generate).collect())[app as usize]
}

/// [`history`] as an owned copy. Nothing needs the `Vec`: the
/// signature stays only because `benchmark/src/program.rs` binds
/// `release_history(app) -> Vec<Version>`. New code calls [`history`].
pub fn release_history(app: AppId) -> Vec<Version> {
    history(app).to_vec()
}

/// Generate `app`'s history; [`history`] calls it once per application.
fn generate(app: AppId) -> Vec<Version> {
    match app {
        // Jenkins: 1.x era from 2013, 2.0 pinned at 2016-04.
        AppId::Jenkins => {
            let mut v = Vec::new();
            // 1.500 .. 1.650 era, roughly bi-monthly.
            let mut minor = 500;
            let mut date = ReleaseDate::new(2013, 2);
            while date < ReleaseDate::new(2016, 4) {
                v.push(Version::new(1, minor, 0, date));
                minor += 10;
                let mut m = date.month as u16 + 3;
                let mut y = date.year;
                if m > 12 {
                    m -= 12;
                    y += 1;
                }
                date = ReleaseDate::new(y, m as u8);
            }
            v.push(Version::new(2, 0, 0, ReleaseDate::new(2016, 4)));
            let mut rest =
                synthetic_timeline(2, ReleaseDate::new(2016, 7), STUDY_HORIZON, u16::MAX);
            for (i, r) in rest.iter_mut().enumerate() {
                r.minor = 10 * (i as u16 + 1);
            }
            v.extend(rest);
            v
        }
        // Jupyter Notebook: 4.0 mid-2015, 4.3 pinned at 2016-12.
        AppId::JupyterNotebook => {
            let mut v = vec![
                Version::new(4, 0, 0, ReleaseDate::new(2015, 7)),
                Version::new(4, 1, 0, ReleaseDate::new(2016, 1)),
                Version::new(4, 2, 0, ReleaseDate::new(2016, 6)),
                Version::new(4, 3, 0, ReleaseDate::new(2016, 12)),
            ];
            v.extend(synthetic_timeline(
                5,
                ReleaseDate::new(2017, 3),
                STUDY_HORIZON,
                4,
            ));
            v
        }
        // Joomla: 3.x era, 3.7.4 pinned at 2017-07.
        AppId::Joomla => {
            let mut v = vec![
                Version::new(3, 0, 0, ReleaseDate::new(2012, 9)),
                Version::new(3, 2, 0, ReleaseDate::new(2013, 11)),
                Version::new(3, 4, 0, ReleaseDate::new(2015, 2)),
                Version::new(3, 6, 0, ReleaseDate::new(2016, 7)),
                Version::new(3, 7, 0, ReleaseDate::new(2017, 4)),
                Version::new(3, 7, 4, ReleaseDate::new(2017, 7)),
                Version::new(3, 8, 0, ReleaseDate::new(2017, 9)),
                Version::new(3, 9, 0, ReleaseDate::new(2018, 10)),
            ];
            for (i, q) in [(2019u16, 3u8), (2019, 9), (2020, 3), (2020, 9), (2021, 3)]
                .into_iter()
                .enumerate()
            {
                v.push(Version::new(
                    3,
                    9,
                    (i as u16 + 1) * 5,
                    ReleaseDate::new(q.0, q.1),
                ));
            }
            v
        }
        // Adminer: 4.6.3 pinned at 2018-06.
        AppId::Adminer => {
            let mut v = vec![
                Version::new(4, 0, 0, ReleaseDate::new(2013, 12)),
                Version::new(4, 2, 0, ReleaseDate::new(2015, 5)),
                Version::new(4, 3, 0, ReleaseDate::new(2017, 3)),
                Version::new(4, 6, 0, ReleaseDate::new(2018, 2)),
                Version::new(4, 6, 3, ReleaseDate::new(2018, 6)),
                Version::new(4, 7, 0, ReleaseDate::new(2019, 2)),
                Version::new(4, 7, 7, ReleaseDate::new(2020, 5)),
                Version::new(4, 8, 0, ReleaseDate::new(2021, 4)),
            ];
            v.push(Version::new(4, 8, 1, ReleaseDate::new(2021, 5)));
            v
        }
        // Generic quarterly histories for everything else; start years are
        // chosen per product age so the Figure 1 bins are populated.
        AppId::Kubernetes => synthetic_timeline(1, ReleaseDate::new(2016, 1), STUDY_HORIZON, 8),
        AppId::Docker => synthetic_timeline(17, ReleaseDate::new(2015, 3), STUDY_HORIZON, 6),
        AppId::Consul => synthetic_timeline(1, ReleaseDate::new(2017, 10), STUDY_HORIZON, 10),
        AppId::Hadoop => synthetic_timeline(2, ReleaseDate::new(2014, 1), STUDY_HORIZON, 10),
        AppId::Nomad => synthetic_timeline(0, ReleaseDate::new(2016, 6), STUDY_HORIZON, 12),
        AppId::JupyterLab => synthetic_timeline(1, ReleaseDate::new(2018, 2), STUDY_HORIZON, 6),
        AppId::Zeppelin => synthetic_timeline(0, ReleaseDate::new(2016, 5), STUDY_HORIZON, 4),
        AppId::Polynote => synthetic_timeline(0, ReleaseDate::new(2019, 10), STUDY_HORIZON, 8),
        AppId::Gocd => synthetic_timeline(17, ReleaseDate::new(2016, 2), STUDY_HORIZON, 5),
        AppId::WordPress => synthetic_timeline(4, ReleaseDate::new(2014, 9), STUDY_HORIZON, 3),
        AppId::Grav => synthetic_timeline(1, ReleaseDate::new(2016, 10), STUDY_HORIZON, 8),
        AppId::Drupal => synthetic_timeline(8, ReleaseDate::new(2015, 11), STUDY_HORIZON, 10),
        AppId::Ajenti => synthetic_timeline(2, ReleaseDate::new(2017, 5), STUDY_HORIZON, 12),
        AppId::PhpMyAdmin => synthetic_timeline(4, ReleaseDate::new(2014, 12), STUDY_HORIZON, 9),
        AppId::Gitlab => synthetic_timeline(8, ReleaseDate::new(2015, 9), STUDY_HORIZON, 4),
        AppId::Drone => synthetic_timeline(0, ReleaseDate::new(2016, 4), STUDY_HORIZON, 10),
        AppId::Travis => synthetic_timeline(2, ReleaseDate::new(2015, 1), STUDY_HORIZON, 8),
        AppId::Ghost => synthetic_timeline(1, ReleaseDate::new(2016, 8), STUDY_HORIZON, 5),
        AppId::SparkNotebook => {
            // Discontinued: no updates after February 2019.
            synthetic_timeline(0, ReleaseDate::new(2015, 6), ReleaseDate::new(2019, 2), 9)
        }
        AppId::VestaCp => {
            synthetic_timeline(0, ReleaseDate::new(2016, 3), ReleaseDate::new(2020, 9), 10)
        }
        AppId::OmniDb => {
            synthetic_timeline(2, ReleaseDate::new(2017, 7), ReleaseDate::new(2020, 12), 8)
        }
    }
}

/// Version at `index` of the app's history (panics on out-of-range —
/// indices are always produced from the same history).
pub fn version_at(app: AppId, index: usize) -> Version {
    history(app)[index]
}

/// Index of the *newest* version released strictly before the application
/// became secure by default, if the app changed its defaults.
///
/// Returns `None` for apps whose posture never changed.
pub fn last_insecure_index(app: AppId) -> Option<usize> {
    let fixed = fixed_in_version(app)?;
    history(app).iter().rposition(|v| v.triple() < fixed)
}

/// First secure version triple for apps that changed their defaults.
pub fn fixed_in_version(app: AppId) -> Option<(u16, u16, u16)> {
    match app {
        AppId::Jenkins => Some((2, 0, 0)),
        AppId::JupyterNotebook => Some((4, 3, 0)),
        AppId::Joomla => Some((3, 7, 4)),
        AppId::Adminer => Some((4, 6, 3)),
        _ => None,
    }
}

/// Whether the given version of `app` is insecure *by default* — i.e. an
/// instance installed with factory settings carries a MAV.
pub fn insecure_by_default(app: AppId, version: &Version) -> bool {
    use crate::catalog::DefaultPosture;
    match app.info().default_posture {
        Some(DefaultPosture::InsecureByDefault) => true,
        Some(DefaultPosture::SecureByDefault) | None => false,
        Some(DefaultPosture::ChangedOverTime { .. }) => {
            let fixed = fixed_in_version(app).expect("changed-over-time app has a fix version");
            version.triple() < fixed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histories_are_sorted_and_nonempty() {
        for app in AppId::all() {
            let h = release_history(app);
            assert!(!h.is_empty(), "{app} has no versions");
            for w in h.windows(2) {
                assert!(
                    w[0].released <= w[1].released,
                    "{app}: {} after {}",
                    w[0],
                    w[1]
                );
                assert!(
                    w[0].triple() < w[1].triple(),
                    "{app}: versions not increasing"
                );
            }
        }
    }

    #[test]
    fn anchors_are_pinned() {
        let jenkins = release_history(AppId::Jenkins);
        let v2 = jenkins.iter().find(|v| v.triple() == (2, 0, 0)).unwrap();
        assert_eq!(v2.released, ReleaseDate::new(2016, 4));

        let jn = release_history(AppId::JupyterNotebook);
        let v43 = jn.iter().find(|v| v.triple() == (4, 3, 0)).unwrap();
        assert_eq!(v43.released, ReleaseDate::new(2016, 12));

        let joomla = release_history(AppId::Joomla);
        assert!(joomla.iter().any(|v| v.triple() == (3, 7, 4)));
        let adminer = release_history(AppId::Adminer);
        assert!(adminer.iter().any(|v| v.triple() == (4, 6, 3)));
    }

    #[test]
    fn insecure_by_default_respects_fix_boundaries() {
        let jn = release_history(AppId::JupyterNotebook);
        let before = jn.iter().find(|v| v.triple() == (4, 2, 0)).unwrap();
        let at = jn.iter().find(|v| v.triple() == (4, 3, 0)).unwrap();
        assert!(insecure_by_default(AppId::JupyterNotebook, before));
        assert!(!insecure_by_default(AppId::JupyterNotebook, at));

        // Always-insecure and always-secure apps.
        let hadoop = release_history(AppId::Hadoop);
        assert!(insecure_by_default(AppId::Hadoop, hadoop.last().unwrap()));
        let k8s = release_history(AppId::Kubernetes);
        assert!(!insecure_by_default(AppId::Kubernetes, k8s.last().unwrap()));
    }

    #[test]
    fn last_insecure_index_points_before_fix() {
        for app in [
            AppId::Jenkins,
            AppId::JupyterNotebook,
            AppId::Joomla,
            AppId::Adminer,
        ] {
            let idx = last_insecure_index(app).unwrap();
            let h = release_history(app);
            let fixed = fixed_in_version(app).unwrap();
            assert!(h[idx].triple() < fixed);
            assert!(h[idx + 1].triple() >= fixed);
        }
        assert_eq!(last_insecure_index(AppId::Hadoop), None);
    }

    #[test]
    fn spark_notebook_is_discontinued() {
        let h = release_history(AppId::SparkNotebook);
        let last = h.last().unwrap();
        assert!(last.released <= ReleaseDate::new(2019, 2));
    }

    #[test]
    fn release_date_arithmetic() {
        let a = ReleaseDate::new(2016, 12);
        let b = ReleaseDate::new(2017, 3);
        assert_eq!(a.months_until(b), 3);
        assert_eq!(b.months_until(a), 0);
        assert!(a < b);
    }

    /// The kept histories are what the generator produces, each under
    /// its own application, and `release_history` is a copy of them.
    #[test]
    fn histories_are_deterministic() {
        for app in AppId::all() {
            assert_eq!(history(app), generate(app));
            assert_eq!(release_history(app), history(app));
            assert!(std::ptr::eq(history(app), history(app)));
        }
    }
}
