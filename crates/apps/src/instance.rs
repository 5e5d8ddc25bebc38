//! Factory for application instances.

use crate::catalog::AppId;
use crate::ci::{Gocd, Jenkins};
use crate::cm::{Consul, Docker, Hadoop, Kubernetes, Nomad};
use crate::cms::{Drupal, Grav, Joomla, WordPress};
use crate::config::AppConfig;
use crate::cp::{Adminer, Ajenti, PhpMyAdmin};
use crate::generic::LoginWalled;
use crate::nb::{Jupyter, Polynote, Zeppelin};
use crate::traits::WebApp;
use crate::version::Version;

/// Build a behavioural instance of `app` at `version` with `config`.
pub fn build_instance(app: AppId, version: Version, config: AppConfig) -> Box<dyn WebApp> {
    match app {
        AppId::Jenkins => Box::new(Jenkins::new(version, config)),
        AppId::Gocd => Box::new(Gocd::new(version, config)),
        AppId::WordPress => Box::new(WordPress::new(version, config)),
        AppId::Grav => Box::new(Grav::new(version, config)),
        AppId::Joomla => Box::new(Joomla::new(version, config)),
        AppId::Drupal => Box::new(Drupal::new(version, config)),
        AppId::Kubernetes => Box::new(Kubernetes::new(version, config)),
        AppId::Docker => Box::new(Docker::new(version, config)),
        AppId::Consul => Box::new(Consul::new(version, config)),
        AppId::Hadoop => Box::new(Hadoop::new(version, config)),
        AppId::Nomad => Box::new(Nomad::new(version, config)),
        AppId::JupyterLab | AppId::JupyterNotebook => Box::new(Jupyter::new(app, version, config)),
        AppId::Zeppelin => Box::new(Zeppelin::new(version, config)),
        AppId::Polynote => Box::new(Polynote::new(version, config)),
        AppId::Ajenti => Box::new(Ajenti::new(version, config)),
        AppId::PhpMyAdmin => Box::new(PhpMyAdmin::new(version, config)),
        AppId::Adminer => Box::new(Adminer::new(version, config)),
        AppId::Gitlab
        | AppId::Drone
        | AppId::Travis
        | AppId::Ghost
        | AppId::SparkNotebook
        | AppId::VestaCp
        | AppId::OmniDb => Box::new(LoginWalled::new(app, version, config)),
    }
}

/// Build the newest release of `app` in a configuration that carries a
/// MAV. For applications whose vulnerability ceased to exist in newer
/// releases (Joomla ≥ 3.7.4, Adminer ≥ 4.6.3) the newest *vulnerable*
/// release is used instead.
pub fn vulnerable_instance(app: AppId) -> Box<dyn WebApp> {
    let version = *crate::version::history(app)
        .iter()
        .rev()
        .find(|v| AppConfig::vulnerable_for(app, v).is_vulnerable(app, v))
        .unwrap_or_else(|| panic!("{app} has no vulnerable configuration in any release"));
    build_instance(app, version, AppConfig::vulnerable_for(app, &version))
}

/// Build the newest release of `app` in a secured configuration.
pub fn secure_instance(app: AppId) -> Box<dyn WebApp> {
    let version = *crate::version::history(app)
        .last()
        .expect("non-empty history");
    build_instance(app, version, AppConfig::secure_for(app, &version))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::release_history;

    #[test]
    fn convenience_builders() {
        for app in AppId::in_scope() {
            assert!(vulnerable_instance(app).is_vulnerable(), "{app}");
            if app != AppId::Polynote {
                assert!(!secure_instance(app).is_vulnerable(), "{app}");
            }
        }
    }

    #[test]
    fn factory_builds_every_app() {
        for app in AppId::all() {
            let v = *release_history(app).last().unwrap();
            let inst = build_instance(app, v, AppConfig::default_for(app, &v));
            assert_eq!(inst.id(), app);
            assert_eq!(inst.version().triple(), v.triple());
        }
    }

    #[test]
    fn vulnerable_instances_report_vulnerable() {
        for app in AppId::in_scope() {
            // Old versions guarantee the MAV exists even for
            // changed-over-time apps.
            let v = release_history(app)[0];
            let inst = build_instance(app, v, AppConfig::vulnerable_for(app, &v));
            assert!(
                inst.is_vulnerable(),
                "{app} vulnerable instance not vulnerable"
            );
        }
    }

    #[test]
    fn ground_truth_matches_config_level_prediction() {
        // Polynote is the documented exception: the model pins
        // `auth_enabled=false` because the product has no auth at all.
        for app in AppId::all().filter(|a| *a != AppId::Polynote) {
            for vulnerable in [false, true] {
                let v = release_history(app)[0];
                let cfg = if vulnerable {
                    AppConfig::vulnerable_for(app, &v)
                } else {
                    AppConfig::secure_for(app, &v)
                };
                let inst = build_instance(app, v, cfg);
                assert_eq!(
                    inst.is_vulnerable(),
                    cfg.is_vulnerable(app, &v),
                    "{app} config/instance ground truth diverges"
                );
            }
        }
    }
}
