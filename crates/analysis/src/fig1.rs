//! Figure 1: software release dates, secure vs vulnerable instances.
//!
//! Seven bins as in the paper; rendered overall plus for the two
//! highlighted products (Jupyter Notebook — defaults changed in 2016 —
//! and Hadoop — never changed).

use crate::render::Table;
use nokeys_apps::{AppId, ReleaseDate};
use nokeys_scanner::{HostFinding, ScanReport};

/// The seven release-date bins.
pub const BINS: [&str; 7] = [
    "<2017", "2017", "2018", "2019", "2020 H1", "2020 H2", "2021",
];

/// Bin index of a release date.
pub fn bin_of(date: ReleaseDate) -> usize {
    match date.year {
        0..=2016 => 0,
        2017 => 1,
        2018 => 2,
        2019 => 3,
        2020 if date.month <= 6 => 4,
        2020 => 5,
        _ => 6,
    }
}

/// Histogram of (secure, vulnerable) per bin.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BinCounts {
    pub secure: [u64; 7],
    pub vulnerable: [u64; 7],
}

/// Compute bin counts over findings matching `filter`.
pub fn bins<'a>(findings: impl Iterator<Item = &'a HostFinding>, app: Option<AppId>) -> BinCounts {
    let mut counts = BinCounts::default();
    for f in findings {
        if let Some(target) = app {
            if f.app != target {
                continue;
            }
        }
        let Some(date) = f.release_date() else {
            continue;
        };
        let idx = bin_of(date);
        if f.vulnerable {
            counts.vulnerable[idx] += 1;
        } else {
            counts.secure[idx] += 1;
        }
    }
    counts
}

/// Build the Figure 1 table: overall + J-Notebook + Hadoop.
pub fn build(report: &ScanReport) -> Table {
    let mut t = Table::new(
        "Figure 1 — Release-date bins, secure vs vulnerable instances",
        &[
            "Series", "<2017", "2017", "2018", "2019", "2020 H1", "2020 H2", "2021",
        ],
    );
    let mut push = |label: &str, c: &[u64; 7]| {
        let mut row = vec![label.to_string()];
        row.extend(c.iter().map(|v| v.to_string()));
        t.row(&row);
    };
    let overall = bins(report.findings.iter(), None);
    push("All secure", &overall.secure);
    push("All vulnerable", &overall.vulnerable);
    let jn = bins(report.findings.iter(), Some(AppId::JupyterNotebook));
    push("J-Notebook secure", &jn.secure);
    push("J-Notebook vulnerable", &jn.vulnerable);
    let hadoop = bins(report.findings.iter(), Some(AppId::Hadoop));
    push("Hadoop secure", &hadoop.secure);
    push("Hadoop vulnerable", &hadoop.vulnerable);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_boundaries() {
        assert_eq!(bin_of(ReleaseDate::new(2015, 3)), 0);
        assert_eq!(bin_of(ReleaseDate::new(2016, 12)), 0);
        assert_eq!(bin_of(ReleaseDate::new(2017, 1)), 1);
        assert_eq!(bin_of(ReleaseDate::new(2020, 6)), 4);
        assert_eq!(bin_of(ReleaseDate::new(2020, 7)), 5);
        assert_eq!(bin_of(ReleaseDate::new(2021, 5)), 6);
    }

    #[test]
    fn empty_report_renders() {
        let t = build(&ScanReport::default());
        assert_eq!(t.rows.len(), 6);
    }
}
