//! Per-instance configuration and the vulnerability ground truth.
//!
//! Section 2 of the paper distinguishes applications that are insecure by
//! default, applications that changed their defaults over time, and
//! applications that are secure by default but easy to misconfigure. This
//! module captures the concrete switches behind those postures.

use crate::catalog::AppId;
use crate::version::{insecure_by_default, Version};

/// Instance configuration. Not every field is meaningful for every
/// application; [`AppConfig::default_for`] produces factory settings and
/// the per-app `is_vulnerable` logic consults only its own switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AppConfig {
    /// Generic authentication switch: admin password, ACLs, Kerberos,
    /// token auth — whatever the product's primary mechanism is.
    pub auth_enabled: bool,
    /// CMS installation completed (admin credentials exist).
    pub installed: bool,
    /// Consul: `enable_script_checks` / `enable_remote_script_checks`.
    pub script_checks: bool,
    /// phpMyAdmin `AllowNoPassword` / a database account with an empty
    /// password reachable through Adminer.
    pub allow_no_password: bool,
    /// Ajenti `--autologin`.
    pub autologin: bool,
}

impl AppConfig {
    /// Factory-default configuration of `app` at `version`.
    ///
    /// "Default" means what a fresh deployment exposes: e.g. GoCD ships
    /// without authentication, Jenkins ≥ 2.0 generates an admin password,
    /// Consul ships with script checks disabled.
    pub fn default_for(app: AppId, version: &Version) -> AppConfig {
        let insecure = insecure_by_default(app, version);
        match app {
            // CMSes: the *pre-installation* state is the vulnerable one;
            // a freshly extracted CMS is not yet installed.
            AppId::WordPress | AppId::Grav | AppId::Joomla | AppId::Drupal => AppConfig {
                auth_enabled: true,
                installed: false,
                ..AppConfig::SECURE_BASE
            },
            AppId::Consul => AppConfig {
                script_checks: false,
                ..AppConfig::SECURE_BASE
            },
            AppId::PhpMyAdmin => AppConfig {
                allow_no_password: false,
                ..AppConfig::SECURE_BASE
            },
            AppId::Adminer => AppConfig {
                // Before 4.6.3 an empty-password login was accepted.
                allow_no_password: insecure,
                ..AppConfig::SECURE_BASE
            },
            AppId::Ajenti => AppConfig {
                autologin: false,
                ..AppConfig::SECURE_BASE
            },
            _ => AppConfig {
                auth_enabled: !insecure,
                ..AppConfig::SECURE_BASE
            },
        }
    }

    /// A configuration that makes `app` at `version` carry a MAV — the
    /// honeypot setup ("we either left the applications in an
    /// insecure-by-default state, or enabled insecure settings").
    pub fn vulnerable_for(app: AppId, version: &Version) -> AppConfig {
        let mut cfg = AppConfig::default_for(app, version);
        match app {
            AppId::WordPress | AppId::Grav | AppId::Joomla | AppId::Drupal => {
                cfg.installed = false;
            }
            AppId::Consul => cfg.script_checks = true,
            AppId::PhpMyAdmin | AppId::Adminer => cfg.allow_no_password = true,
            AppId::Ajenti => cfg.autologin = true,
            _ => cfg.auth_enabled = false,
        }
        cfg
    }

    /// A configuration with no MAV (completed installation, auth on,
    /// dangerous switches off).
    pub fn secure_for(_app: AppId, _version: &Version) -> AppConfig {
        AppConfig {
            installed: true,
            ..AppConfig::SECURE_BASE
        }
    }

    /// Whether `app` at `version` with this configuration carries a MAV.
    ///
    /// This is the simulation's ground truth, against which the detection
    /// plugins' verdicts can be scored.
    pub fn is_vulnerable(&self, app: AppId, version: &Version) -> bool {
        match app {
            AppId::Jenkins
            | AppId::Gocd
            | AppId::Hadoop
            | AppId::Nomad
            | AppId::Zeppelin
            | AppId::JupyterLab
            | AppId::JupyterNotebook
            | AppId::Polynote
            | AppId::Docker
            | AppId::Kubernetes => !self.auth_enabled,
            AppId::WordPress | AppId::Grav | AppId::Drupal => !self.installed,
            // Joomla ≥ 3.7.4 requires proof of server ownership during a
            // remote-DB installation, defeating installation hijacks.
            AppId::Joomla => !self.installed && version.triple() < (3, 7, 4),
            AppId::Consul => self.script_checks,
            AppId::PhpMyAdmin => self.allow_no_password,
            // Adminer rejects empty passwords outright since 4.6.3.
            AppId::Adminer => self.allow_no_password && version.triple() < (4, 6, 3),
            AppId::Ajenti => self.autologin,
            // Out-of-scope applications are never vulnerable to MAVs.
            AppId::Gitlab
            | AppId::Drone
            | AppId::Travis
            | AppId::Ghost
            | AppId::SparkNotebook
            | AppId::VestaCp
            | AppId::OmniDb => false,
        }
    }

    /// Whether this configuration differs from the factory default of
    /// `app` at `version` (the paper's "explicitly modified" class in
    /// Figure 2's right column).
    pub fn is_modified_from_default(&self, app: AppId, version: &Version) -> bool {
        let default = AppConfig::default_for(app, version);
        // Installation progress is a lifecycle step, not a configuration
        // change; ignore `installed` when comparing.
        AppConfig {
            installed: false,
            ..*self
        } != AppConfig {
            installed: false,
            ..default
        }
    }

    const SECURE_BASE: AppConfig = AppConfig {
        auth_enabled: true,
        installed: true,
        script_checks: false,
        allow_no_password: false,
        autologin: false,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::release_history;

    fn latest(app: AppId) -> Version {
        *release_history(app).last().unwrap()
    }

    fn oldest(app: AppId) -> Version {
        release_history(app)[0]
    }

    #[test]
    fn defaults_match_paper_postures() {
        // Insecure by default: GoCD, Hadoop, Nomad, Zeppelin, Polynote,
        // Docker (exposed API has no auth).
        for app in [
            AppId::Gocd,
            AppId::Hadoop,
            AppId::Nomad,
            AppId::Zeppelin,
            AppId::Polynote,
            AppId::Docker,
        ] {
            let v = latest(app);
            let cfg = AppConfig::default_for(app, &v);
            assert!(
                cfg.is_vulnerable(app, &v),
                "{app} should be vulnerable by default"
            );
        }
        // Secure by default: Kubernetes, Consul, J-Lab, Ajenti, phpMyAdmin.
        for app in [
            AppId::Kubernetes,
            AppId::Consul,
            AppId::JupyterLab,
            AppId::Ajenti,
            AppId::PhpMyAdmin,
        ] {
            let v = latest(app);
            let cfg = AppConfig::default_for(app, &v);
            assert!(
                !cfg.is_vulnerable(app, &v),
                "{app} should be secure by default"
            );
        }
    }

    #[test]
    fn changed_over_time_flips_with_version() {
        for app in [AppId::Jenkins, AppId::JupyterNotebook, AppId::Adminer] {
            let old = oldest(app);
            let new = latest(app);
            assert!(
                AppConfig::default_for(app, &old).is_vulnerable(app, &old),
                "{app} old default should be vulnerable"
            );
            assert!(
                !AppConfig::default_for(app, &new).is_vulnerable(app, &new),
                "{app} new default should be secure"
            );
        }
    }

    #[test]
    fn cms_pre_install_is_the_vulnerability() {
        let v = latest(AppId::WordPress);
        let fresh = AppConfig::default_for(AppId::WordPress, &v);
        assert!(!fresh.installed);
        assert!(fresh.is_vulnerable(AppId::WordPress, &v));
        let done = AppConfig {
            installed: true,
            ..fresh
        };
        assert!(!done.is_vulnerable(AppId::WordPress, &v));
    }

    #[test]
    fn joomla_countermeasure_since_374() {
        let h = release_history(AppId::Joomla);
        let before = h.iter().find(|v| v.triple() == (3, 7, 0)).unwrap();
        let after = h.iter().find(|v| v.triple() == (3, 8, 0)).unwrap();
        let fresh = AppConfig {
            installed: false,
            ..AppConfig::SECURE_BASE
        };
        assert!(fresh.is_vulnerable(AppId::Joomla, before));
        assert!(!fresh.is_vulnerable(AppId::Joomla, after));
    }

    #[test]
    fn vulnerable_for_always_produces_a_mav_for_in_scope_apps() {
        for app in AppId::in_scope() {
            // Adminer/Joomla need an old-enough version for the MAV to
            // exist at all.
            let v = match app {
                AppId::Adminer | AppId::Joomla => oldest(app),
                _ => latest(app),
            };
            let cfg = AppConfig::vulnerable_for(app, &v);
            assert!(
                cfg.is_vulnerable(app, &v),
                "{app} vulnerable_for not vulnerable"
            );
        }
    }

    #[test]
    fn secure_for_never_produces_a_mav() {
        for app in AppId::all() {
            for v in [oldest(app), latest(app)] {
                let cfg = AppConfig::secure_for(app, &v);
                assert!(!cfg.is_vulnerable(app, &v), "{app} secure_for vulnerable");
            }
        }
    }

    #[test]
    fn out_of_scope_apps_are_never_vulnerable() {
        for app in [AppId::Gitlab, AppId::Ghost, AppId::VestaCp, AppId::OmniDb] {
            let v = latest(app);
            let cfg = AppConfig {
                auth_enabled: false,
                installed: false,
                ..AppConfig::SECURE_BASE
            };
            assert!(!cfg.is_vulnerable(app, &v));
        }
    }

    #[test]
    fn modification_detection_ignores_install_progress() {
        let v = latest(AppId::WordPress);
        let mut cfg = AppConfig::default_for(AppId::WordPress, &v);
        assert!(!cfg.is_modified_from_default(AppId::WordPress, &v));
        cfg.installed = true;
        assert!(!cfg.is_modified_from_default(AppId::WordPress, &v));

        let v = latest(AppId::Consul);
        let mut cfg = AppConfig::default_for(AppId::Consul, &v);
        cfg.script_checks = true;
        assert!(cfg.is_modified_from_default(AppId::Consul, &v));
    }
}
