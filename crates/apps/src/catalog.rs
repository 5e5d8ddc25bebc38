//! The catalog of the 25 investigated applications (paper Table 1).
//!
//! This module is pure data: identifiers, categories, GitHub-star counts,
//! attack vectors, default postures, warnings and default ports, exactly as
//! reported in Section 2.1 of the paper.

use std::fmt;

/// The five AWE categories of Section 2.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Continuous integration.
    Ci,
    /// Content management systems.
    Cms,
    /// Cluster management.
    Cm,
    /// Notebooks.
    Nb,
    /// Control panels.
    Cp,
}

impl Category {
    pub const ALL: [Category; 5] = [
        Category::Ci,
        Category::Cms,
        Category::Cm,
        Category::Nb,
        Category::Cp,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Category::Ci => "CI",
            Category::Cms => "CMS",
            Category::Cm => "CM",
            Category::Nb => "NB",
            Category::Cp => "CP",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// All 25 investigated applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AppId {
    Gitlab,
    Drone,
    Jenkins,
    Travis,
    Gocd,
    Ghost,
    WordPress,
    Grav,
    Joomla,
    Drupal,
    Kubernetes,
    Docker,
    Consul,
    Hadoop,
    Nomad,
    JupyterLab,
    JupyterNotebook,
    Zeppelin,
    Polynote,
    SparkNotebook,
    Ajenti,
    PhpMyAdmin,
    Adminer,
    VestaCp,
    OmniDb,
}

/// How an application can be abused once exposed (Table 1 "Vuln" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackVector {
    /// Direct system-command execution (terminal, build step, script).
    Syscmd,
    /// Unfinished installation can be hijacked to gain admin.
    Install,
    /// An administrative HTTP API allows code execution.
    Api,
    /// SQL command execution against the backing database.
    Sql,
}

impl AttackVector {
    pub fn as_str(self) -> &'static str {
        match self {
            AttackVector::Syscmd => "Syscmd",
            AttackVector::Install => "Install",
            AttackVector::Api => "API",
            AttackVector::Sql => "SQL",
        }
    }
}

/// Default security posture (Table 1 "Default MAV" / Table 3 "Default").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DefaultPosture {
    /// Secure by default; a MAV requires explicit misconfiguration.
    SecureByDefault,
    /// Was insecure by default until the given version (year of the change).
    ChangedOverTime {
        /// First secure version, e.g. "2.0" for Jenkins.
        fixed_in: &'static str,
        year: u16,
    },
    /// A MAV exists in the default configuration.
    InsecureByDefault,
}

impl DefaultPosture {
    /// Rendering used by Tables 3 and 9: `✓` secure, `†` changed, `✗`
    /// insecure by default.
    pub fn symbol(self) -> &'static str {
        match self {
            DefaultPosture::SecureByDefault => "✓",
            DefaultPosture::ChangedOverTime { .. } => "†",
            DefaultPosture::InsecureByDefault => "✗",
        }
    }
}

/// Whether the vendor warns about the insecure setup (Table 1 "Warn").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Warning {
    /// A prominent warning exists (docs, download page or startup).
    Present,
    /// No warning found.
    Absent,
    /// Not applicable (secure by default or out of scope).
    NotApplicable,
}

impl Warning {
    pub fn symbol(self) -> &'static str {
        match self {
            Warning::Present => "✓",
            Warning::Absent => "✗",
            Warning::NotApplicable => "—",
        }
    }
}

/// Static description of one investigated application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppInfo {
    pub id: AppId,
    pub name: &'static str,
    pub category: Category,
    /// GitHub stars in thousands at the time of the study.
    pub stars_k: u32,
    /// `None` for the 7 out-of-scope applications.
    pub vector: Option<AttackVector>,
    /// `None` for out-of-scope applications.
    pub default_posture: Option<DefaultPosture>,
    pub warning: Warning,
    /// Default port the application listens on besides 80/443 (None for
    /// apps that live behind a regular web server).
    pub default_port: Option<u16>,
}

impl AppInfo {
    /// In scope for the MAV study (18 of 25).
    pub fn in_scope(&self) -> bool {
        self.vector.is_some()
    }
}

/// The full Table 1 data set, in paper order.
pub const CATALOG: [AppInfo; 25] = [
    AppInfo {
        id: AppId::Gitlab,
        name: "Gitlab",
        category: Category::Ci,
        stars_k: 23,
        vector: None,
        default_posture: None,
        warning: Warning::NotApplicable,
        default_port: None,
    },
    AppInfo {
        id: AppId::Drone,
        name: "Drone",
        category: Category::Ci,
        stars_k: 23,
        vector: None,
        default_posture: None,
        warning: Warning::NotApplicable,
        default_port: None,
    },
    AppInfo {
        id: AppId::Jenkins,
        name: "Jenkins",
        category: Category::Ci,
        stars_k: 18,
        vector: Some(AttackVector::Syscmd),
        default_posture: Some(DefaultPosture::ChangedOverTime {
            fixed_in: "2.0",
            year: 2016,
        }),
        warning: Warning::NotApplicable,
        default_port: Some(8080),
    },
    AppInfo {
        id: AppId::Travis,
        name: "Travis",
        category: Category::Ci,
        stars_k: 8,
        vector: None,
        default_posture: None,
        warning: Warning::NotApplicable,
        default_port: None,
    },
    AppInfo {
        id: AppId::Gocd,
        name: "GoCD",
        category: Category::Ci,
        stars_k: 6,
        vector: Some(AttackVector::Syscmd),
        default_posture: Some(DefaultPosture::InsecureByDefault),
        warning: Warning::Present,
        default_port: Some(8153),
    },
    AppInfo {
        id: AppId::Ghost,
        name: "Ghost",
        category: Category::Cms,
        stars_k: 38,
        vector: None,
        default_posture: None,
        warning: Warning::NotApplicable,
        default_port: None,
    },
    AppInfo {
        id: AppId::WordPress,
        name: "WordPress",
        category: Category::Cms,
        stars_k: 15,
        vector: Some(AttackVector::Install),
        default_posture: Some(DefaultPosture::InsecureByDefault),
        warning: Warning::Absent,
        default_port: None,
    },
    AppInfo {
        id: AppId::Grav,
        name: "Grav",
        category: Category::Cms,
        stars_k: 13,
        vector: Some(AttackVector::Install),
        default_posture: Some(DefaultPosture::InsecureByDefault),
        warning: Warning::Absent,
        default_port: None,
    },
    AppInfo {
        id: AppId::Joomla,
        name: "Joomla",
        category: Category::Cms,
        stars_k: 4,
        vector: Some(AttackVector::Install),
        default_posture: Some(DefaultPosture::ChangedOverTime {
            fixed_in: "3.7.4",
            year: 2017,
        }),
        warning: Warning::NotApplicable,
        default_port: None,
    },
    AppInfo {
        id: AppId::Drupal,
        name: "Drupal",
        category: Category::Cms,
        stars_k: 4,
        vector: Some(AttackVector::Install),
        default_posture: Some(DefaultPosture::InsecureByDefault),
        warning: Warning::Absent,
        default_port: None,
    },
    AppInfo {
        id: AppId::Kubernetes,
        name: "Kubernetes",
        category: Category::Cm,
        stars_k: 78,
        vector: Some(AttackVector::Api),
        default_posture: Some(DefaultPosture::SecureByDefault),
        warning: Warning::NotApplicable,
        default_port: Some(6443),
    },
    AppInfo {
        id: AppId::Docker,
        name: "Docker",
        category: Category::Cm,
        stars_k: 23,
        vector: Some(AttackVector::Api),
        default_posture: Some(DefaultPosture::InsecureByDefault),
        warning: Warning::Absent,
        default_port: Some(2375),
    },
    AppInfo {
        id: AppId::Consul,
        name: "Consul",
        category: Category::Cm,
        stars_k: 22,
        vector: Some(AttackVector::Api),
        default_posture: Some(DefaultPosture::SecureByDefault),
        warning: Warning::NotApplicable,
        default_port: Some(8500),
    },
    AppInfo {
        id: AppId::Hadoop,
        name: "Hadoop",
        category: Category::Cm,
        stars_k: 12,
        vector: Some(AttackVector::Api),
        default_posture: Some(DefaultPosture::InsecureByDefault),
        warning: Warning::Absent,
        default_port: Some(8088),
    },
    AppInfo {
        id: AppId::Nomad,
        name: "Nomad",
        category: Category::Cm,
        stars_k: 9,
        vector: Some(AttackVector::Api),
        default_posture: Some(DefaultPosture::InsecureByDefault),
        warning: Warning::Present,
        default_port: Some(4646),
    },
    AppInfo {
        id: AppId::JupyterLab,
        name: "J-Lab",
        category: Category::Nb,
        stars_k: 11,
        vector: Some(AttackVector::Syscmd),
        default_posture: Some(DefaultPosture::SecureByDefault),
        warning: Warning::NotApplicable,
        default_port: Some(8888),
    },
    AppInfo {
        id: AppId::JupyterNotebook,
        name: "J-Notebook",
        category: Category::Nb,
        stars_k: 8,
        vector: Some(AttackVector::Syscmd),
        default_posture: Some(DefaultPosture::ChangedOverTime {
            fixed_in: "4.3",
            year: 2016,
        }),
        warning: Warning::NotApplicable,
        default_port: Some(8888),
    },
    AppInfo {
        id: AppId::Zeppelin,
        name: "Zeppelin",
        category: Category::Nb,
        stars_k: 5,
        vector: Some(AttackVector::Syscmd),
        default_posture: Some(DefaultPosture::InsecureByDefault),
        warning: Warning::Absent,
        default_port: Some(8080),
    },
    AppInfo {
        id: AppId::Polynote,
        name: "Polynote",
        category: Category::Nb,
        stars_k: 4,
        vector: Some(AttackVector::Syscmd),
        default_posture: Some(DefaultPosture::InsecureByDefault),
        warning: Warning::Present,
        default_port: Some(8192),
    },
    AppInfo {
        id: AppId::SparkNotebook,
        name: "Spark NB",
        category: Category::Nb,
        stars_k: 3,
        vector: None,
        default_posture: None,
        warning: Warning::NotApplicable,
        default_port: None,
    },
    AppInfo {
        id: AppId::Ajenti,
        name: "Ajenti",
        category: Category::Cp,
        stars_k: 6,
        vector: Some(AttackVector::Syscmd),
        default_posture: Some(DefaultPosture::SecureByDefault),
        warning: Warning::Present,
        default_port: Some(8000),
    },
    AppInfo {
        id: AppId::PhpMyAdmin,
        name: "Phpmyadmin",
        category: Category::Cp,
        stars_k: 6,
        vector: Some(AttackVector::Sql),
        default_posture: Some(DefaultPosture::SecureByDefault),
        warning: Warning::Absent,
        default_port: None,
    },
    AppInfo {
        id: AppId::Adminer,
        name: "Adminer",
        category: Category::Cp,
        stars_k: 5,
        vector: Some(AttackVector::Sql),
        default_posture: Some(DefaultPosture::ChangedOverTime {
            fixed_in: "4.6.3",
            year: 2018,
        }),
        warning: Warning::NotApplicable,
        default_port: None,
    },
    AppInfo {
        id: AppId::VestaCp,
        name: "VestaCP",
        category: Category::Cp,
        stars_k: 3,
        vector: None,
        default_posture: None,
        warning: Warning::NotApplicable,
        default_port: None,
    },
    AppInfo {
        id: AppId::OmniDb,
        name: "OmniDB",
        category: Category::Cp,
        stars_k: 3,
        vector: None,
        default_posture: None,
        warning: Warning::NotApplicable,
        default_port: None,
    },
];

/// `CATALOG[app as usize]` is `app`'s entry: the table is in `AppId`'s
/// declaration order. `version::history` and the scanner's
/// per-application tally index by it.
const _: () = {
    let mut i = 0;
    while i < CATALOG.len() {
        assert!(CATALOG[i].id as usize == i);
        i += 1;
    }
};

impl AppId {
    /// All 25 applications, paper order.
    pub fn all() -> impl Iterator<Item = AppId> {
        CATALOG.iter().map(|a| a.id)
    }

    /// The 18 in-scope applications, paper order.
    pub fn in_scope() -> impl Iterator<Item = AppId> {
        CATALOG.iter().filter(|a| a.in_scope()).map(|a| a.id)
    }

    /// Catalog entry for this application.
    pub fn info(self) -> &'static AppInfo {
        CATALOG
            .iter()
            .find(|a| a.id == self)
            .expect("every AppId is in CATALOG")
    }

    /// Human-readable name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        self.info().name
    }

    /// The ports this application is reachable on in the study: its
    /// dedicated default port or, for apps served by a web server, 80/443.
    pub fn scan_ports(self) -> &'static [u16] {
        match self.info().default_port {
            Some(8080) => &[8080],
            Some(8153) => &[8153],
            Some(6443) => &[6443],
            Some(2375) => &[2375],
            Some(8500) => &[8500],
            Some(8088) => &[8088],
            Some(4646) => &[4646],
            Some(8888) => &[8888],
            Some(8192) => &[8192],
            Some(8000) => &[8000],
            _ => &[80, 443],
        }
    }
}

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The 12 ports of the Internet-wide scan (Table 2): 80, 443 and the
/// default ports of the 18 selected applications (with overlap removed).
pub const SCAN_PORTS: [u16; 12] = [
    80, 443, 2375, 4646, 6443, 8000, 8080, 8088, 8153, 8192, 8500, 8888,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_25_apps_18_in_scope() {
        assert_eq!(CATALOG.len(), 25);
        assert_eq!(AppId::in_scope().count(), 18);
    }

    #[test]
    fn five_apps_per_category() {
        for cat in Category::ALL {
            let n = CATALOG.iter().filter(|a| a.category == cat).count();
            assert_eq!(n, 5, "{cat} should have 5 representatives");
        }
    }

    #[test]
    fn vector_distribution_matches_paper() {
        // "7 ... directly execute system commands, 5 expose a critical API,
        //  2 allow to execute SQL commands and 4 are unsafe in their
        //  pre-installation state."
        let count = |v: AttackVector| CATALOG.iter().filter(|a| a.vector == Some(v)).count();
        assert_eq!(count(AttackVector::Syscmd), 7);
        assert_eq!(count(AttackVector::Api), 5);
        assert_eq!(count(AttackVector::Sql), 2);
        assert_eq!(count(AttackVector::Install), 4);
    }

    #[test]
    fn posture_distribution_matches_paper() {
        // "9 are insecure by default, 4 were insecure by default in an
        //  older version, and another 5 are easy to misconfigure."
        let insecure = CATALOG
            .iter()
            .filter(|a| a.default_posture == Some(DefaultPosture::InsecureByDefault))
            .count();
        let changed = CATALOG
            .iter()
            .filter(|a| {
                matches!(
                    a.default_posture,
                    Some(DefaultPosture::ChangedOverTime { .. })
                )
            })
            .count();
        let secure = CATALOG
            .iter()
            .filter(|a| a.default_posture == Some(DefaultPosture::SecureByDefault))
            .count();
        assert_eq!(insecure, 9);
        assert_eq!(changed, 4);
        assert_eq!(secure, 5);
    }

    #[test]
    fn every_app_resolves_info() {
        for id in AppId::all() {
            assert_eq!(id.info().id, id);
            assert!(!id.scan_ports().is_empty());
        }
    }

    #[test]
    fn scan_ports_are_subset_of_table2() {
        for id in AppId::in_scope() {
            for p in id.scan_ports() {
                assert!(
                    SCAN_PORTS.contains(p),
                    "{id} port {p} missing from SCAN_PORTS"
                );
            }
        }
    }

    #[test]
    fn posture_symbols() {
        assert_eq!(DefaultPosture::SecureByDefault.symbol(), "✓");
        assert_eq!(
            DefaultPosture::ChangedOverTime {
                fixed_in: "2.0",
                year: 2016
            }
            .symbol(),
            "†"
        );
        assert_eq!(DefaultPosture::InsecureByDefault.symbol(), "✗");
    }
}
