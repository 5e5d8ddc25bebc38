//! Per-honeypot monitoring: every request and the application events it
//! triggers are shipped to the central log. A monitor does not know the
//! time; whoever delivers the requests stamps their records with the
//! instant of delivery ([`CentralLog::stamp_since`]).

use crate::logserver::{AuditRecord, CentralLog};
use crate::resource::ResourceGauge;
use nokeys_apps::{AppId, WebApp};
use nokeys_http::server::Handler;
use nokeys_http::{Request, Response};
use nokeys_netsim::SimTime;
use nokeys_scanner::telemetry::{Counter, Telemetry};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Cached attack-rate telemetry handles, shared across the deployment's
/// honeypots so counters aggregate over all of them.
#[derive(Debug, Clone)]
struct MonitorMetrics {
    /// `honeypot.requests` — every request received, up or down.
    requests: Counter,
    /// `honeypot.attack_evidence` — audit records classified as attacks.
    attack_evidence: Counter,
    /// `honeypot.shutdowns` — vigilante shutdowns taking a service down.
    shutdowns: Counter,
    /// `honeypot.restores` — snapshot restores.
    restores: Counter,
}

impl MonitorMetrics {
    fn new(telemetry: &Telemetry) -> Self {
        MonitorMetrics {
            requests: telemetry.counter("honeypot.requests"),
            attack_evidence: telemetry.counter("honeypot.attack_evidence"),
            shutdowns: telemetry.counter("honeypot.shutdowns"),
            restores: telemetry.counter("honeypot.restores"),
        }
    }
}

/// A monitored application instance: implements [`Handler`] so it can be
/// mounted on any transport; records everything to the central log and
/// feeds the resource gauge.
pub struct MonitoredApp {
    app: AppId,
    instance: Mutex<Box<dyn WebApp>>,
    log: Arc<CentralLog>,
    gauge: Arc<ResourceGauge>,
    metrics: MonitorMetrics,
    /// Service availability: a vigilante shutdown takes the app down
    /// until the study's availability monitor restores it.
    up: AtomicBool,
}

impl MonitoredApp {
    pub fn new(app: AppId, instance: Box<dyn WebApp>, log: Arc<CentralLog>) -> Self {
        Self::with_telemetry(app, instance, log, &Telemetry::default())
    }

    /// [`MonitoredApp::new`] recording attack-rate counters
    /// (`honeypot.requests`, `honeypot.attack_evidence`,
    /// `honeypot.shutdowns`, `honeypot.restores`) into `telemetry`. Pass
    /// the same registry to every honeypot to aggregate the deployment.
    pub fn with_telemetry(
        app: AppId,
        instance: Box<dyn WebApp>,
        log: Arc<CentralLog>,
        telemetry: &Telemetry,
    ) -> Self {
        MonitoredApp {
            app,
            instance: Mutex::new(instance),
            log,
            gauge: Arc::new(ResourceGauge::new()),
            metrics: MonitorMetrics::new(telemetry),
            up: AtomicBool::new(true),
        }
    }

    fn instance(&self) -> MutexGuard<'_, Box<dyn WebApp>> {
        self.instance
            .lock()
            .expect("an application model panicked mid-request")
    }

    /// The resource gauge of this honeypot.
    pub fn gauge(&self) -> &Arc<ResourceGauge> {
        &self.gauge
    }

    /// Whether the service is currently up.
    pub fn is_up(&self) -> bool {
        self.up.load(Ordering::SeqCst)
    }

    /// Ground truth of the wrapped instance.
    pub fn is_vulnerable(&self) -> bool {
        self.instance().is_vulnerable()
    }

    /// Restore the snapshot: reset application state, clear resource
    /// usage, bring the service back up. Matches the paper's "we shut
    /// down the infected machine and restored the snapshot".
    pub fn restore(&self) {
        self.instance().restore();
        self.gauge.reset();
        self.metrics.restores.incr();
        self.up.store(true, Ordering::SeqCst);
    }
}

impl Handler for MonitoredApp {
    fn handle(&self, req: &Request, peer: Ipv4Addr) -> Response {
        self.metrics.requests.incr();
        if !self.is_up() {
            return Response::new(nokeys_http::StatusCode::SERVICE_UNAVAILABLE)
                .with_body("connection refused");
        }
        let outcome = self.instance().handle(req, peer);
        self.gauge.note_events(&outcome.events);
        if outcome
            .events
            .iter()
            .any(|e| matches!(e, nokeys_apps::AppEvent::ShutdownRequested))
        {
            self.metrics.shutdowns.incr();
            self.up.store(false, Ordering::SeqCst);
        }
        let mut body_excerpt = req.body_text();
        body_excerpt.truncate(160);
        let record = AuditRecord {
            // Until the driver stamps the instant of delivery.
            time: SimTime::HONEYPOT_START,
            honeypot: self.app,
            peer,
            request_line: format!("{} {}", req.method, req.target),
            body_excerpt,
            events: outcome.events.clone(),
        };
        if record.is_attack_evidence() {
            self.metrics.attack_evidence.incr();
        }
        self.log.append(record);
        outcome.response
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nokeys_apps::{build_instance, release_history, AppConfig};

    fn monitored(app: AppId) -> (MonitoredApp, Arc<CentralLog>) {
        let v = *release_history(app).last().unwrap();
        let cfg = AppConfig::vulnerable_for(app, &v);
        let log = Arc::new(CentralLog::new());
        let m = MonitoredApp::new(app, build_instance(app, v, cfg), Arc::clone(&log));
        (m, log)
    }

    /// The record carries the peer as the monitor saw it and the time
    /// the delivering driver stamps on it.
    #[test]
    fn requests_are_audited_with_time_and_peer() {
        let (m, log) = monitored(AppId::Hadoop);
        let attacker = Ipv4Addr::new(81, 2, 0, 5);
        m.handle(&Request::get("/cluster/cluster"), attacker);
        log.stamp_since(0, SimTime(1000));
        let snap = log.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].time, SimTime(1000));
        assert_eq!(snap[0].peer, attacker);
        assert_eq!(snap[0].request_line, "GET /cluster/cluster");
        assert!(!snap[0].is_attack_evidence());
    }

    #[test]
    fn executions_raise_the_gauge_and_are_evidence() {
        let (m, log) = monitored(AppId::Hadoop);
        let attacker = Ipv4Addr::new(81, 2, 0, 5);
        m.handle(
            &Request::post(
                "/ws/v1/cluster/apps",
                r#"{"am-container-spec":{"commands":{"command":"/tmp/xmrig -o pool"}}}"#,
            ),
            attacker,
        );
        assert!(m.gauge().cpu() > 0.9, "miner pegs the CPU");
        assert!(log.snapshot()[0].is_attack_evidence());
    }

    #[test]
    fn vigilante_takes_the_service_down_until_restore() {
        let (m, _) = monitored(AppId::JupyterLab);
        let attacker = Ipv4Addr::new(81, 2, 0, 9);
        m.handle(&Request::post("/api/terminals/1", "shutdown"), attacker);
        assert!(!m.is_up());
        let resp = m.handle(&Request::get("/"), attacker);
        assert_eq!(resp.status.as_u16(), 503);
        m.restore();
        assert!(m.is_up());
        let resp = m.handle(&Request::get("/api/terminals"), attacker);
        assert!(resp.body_text().contains("JupyterLab"));
    }

    #[test]
    fn telemetry_counts_attack_rate_across_honeypots() {
        let telemetry = Telemetry::new();
        let log = Arc::new(CentralLog::new());
        let mounted: Vec<MonitoredApp> = [AppId::Hadoop, AppId::JupyterLab]
            .into_iter()
            .map(|app| {
                let v = *release_history(app).last().unwrap();
                MonitoredApp::with_telemetry(
                    app,
                    build_instance(app, v, AppConfig::vulnerable_for(app, &v)),
                    Arc::clone(&log),
                    &telemetry,
                )
            })
            .collect();
        let attacker = Ipv4Addr::new(81, 2, 0, 5);
        // A benign request, an attack, and a vigilante shutdown.
        mounted[0].handle(&Request::get("/cluster/cluster"), attacker);
        mounted[0].handle(
            &Request::post(
                "/ws/v1/cluster/apps",
                r#"{"am-container-spec":{"commands":{"command":"/tmp/xmrig -o pool"}}}"#,
            ),
            attacker,
        );
        mounted[1].handle(&Request::post("/api/terminals/1", "shutdown"), attacker);
        mounted[1].restore();
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("honeypot.requests"), 3);
        let evidence: u64 = log
            .snapshot()
            .iter()
            .filter(|r| r.is_attack_evidence())
            .count() as u64;
        assert_eq!(snap.counter("honeypot.attack_evidence"), evidence);
        assert!(evidence >= 1);
        assert_eq!(snap.counter("honeypot.shutdowns"), 1);
        assert_eq!(snap.counter("honeypot.restores"), 1);
    }

    /// A scanner (or attacker) pipelining requests must get every
    /// response, and the monitor must audit every request — the serve
    /// loop drains buffered requests before reading more bytes.
    #[test]
    fn pipelined_requests_are_each_answered_and_audited() {
        /// Both directions of a connection as plain buffers.
        struct Duplex {
            incoming: std::io::Cursor<Vec<u8>>,
            outgoing: Vec<u8>,
        }
        impl std::io::Read for Duplex {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.incoming.read(buf)
            }
        }
        impl std::io::Write for Duplex {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.outgoing.write(buf)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let (m, log) = monitored(AppId::Hadoop);
        let peer = Ipv4Addr::new(81, 2, 0, 5);
        // Both requests land in one read; the second asks to close so
        // the serve loop terminates.
        let mut stream = Duplex {
            incoming: std::io::Cursor::new(
                b"GET /cluster/cluster HTTP/1.1\r\nHost: h\r\n\r\n\
                  GET /cluster/cluster HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n"
                    .to_vec(),
            ),
            outgoing: Vec::new(),
        };
        nokeys_http::server::serve_connection(&mut stream, &m, peer).unwrap();
        let text = String::from_utf8_lossy(&stream.outgoing);
        assert_eq!(text.matches("HTTP/1.1 200").count(), 2, "{text}");
        let records = log.snapshot();
        assert_eq!(records.len(), 2, "every pipelined request is audited");
        assert!(records
            .iter()
            .all(|r| r.request_line == "GET /cluster/cluster"));
    }

    #[test]
    fn restore_reverts_trust_on_first_use_state() {
        let (m, _) = monitored(AppId::WordPress);
        let attacker = Ipv4Addr::new(81, 2, 0, 7);
        assert!(m.is_vulnerable());
        m.handle(
            &Request::post("/wp-admin/install.php?step=2", "user_name=evil"),
            attacker,
        );
        assert!(!m.is_vulnerable(), "installation completed");
        m.restore();
        assert!(m.is_vulnerable(), "snapshot restore reopens the hijack");
    }
}
