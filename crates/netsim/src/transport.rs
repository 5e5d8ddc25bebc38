//! In-memory [`Transport`] implementation over the simulated universe.
//!
//! Connections are byte-accurate [`MemConn`]s: the client writes a
//! serialized HTTP request, the connection parses it, dispatches to the
//! universe and queues the serialized response for reading — so the
//! exact same client and pipeline code runs against the simulation and
//! against real TCP.
//!
//! Transient faults are not drawn here: wrap the transport in
//! [`FaultyTransport`](crate::fault::FaultyTransport).

use crate::clock::SimTime;
use crate::ip::Cidr;
use crate::universe::{ConnectBehavior, Universe};
use nokeys_http::memory::MemConn;
use nokeys_http::server::Handler;
use nokeys_http::transport::CertificateInfo;
use nokeys_http::{
    Attempt, BlockSweepResult, Endpoint, ProbeOutcome, Request, Response, Result, Scheme, Transport,
};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Operation counters, used by benchmarks and the pipeline-ablation
/// study.
#[derive(Debug, Default)]
pub struct TransportStats {
    pub probes: AtomicU64,
    /// Connects that reached the universe. A fault layer in front of
    /// this transport refuses some before they get here, so only
    /// fault-free runs can read this as "connects the scan made".
    pub connects: AtomicU64,
    pub requests: AtomicU64,
}

impl TransportStats {
    pub fn probes(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }
    pub fn connects(&self) -> u64 {
        self.connects.load(Ordering::Relaxed)
    }
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }
}

/// Transport over a shared universe snapshot, evaluated at one fixed
/// virtual instant; [`SimTransport::at`] is a clone that answers at
/// another.
#[derive(Clone)]
pub struct SimTransport {
    universe: Arc<Universe>,
    /// The instant every probe and connection of this transport sees.
    now: SimTime,
    stats: Arc<TransportStats>,
    /// Source address the universe sees for requests from this transport.
    scanner_ip: Ipv4Addr,
}

impl SimTransport {
    pub fn new(universe: Arc<Universe>) -> Self {
        SimTransport {
            universe,
            now: SimTime::SCAN_START,
            stats: Arc::new(TransportStats::default()),
            scanner_ip: Ipv4Addr::new(198, 51, 100, 77),
        }
    }

    /// This transport as it answers at `t`: same universe, same source
    /// address, same operation counters.
    pub fn at(&self, t: SimTime) -> Self {
        SimTransport {
            now: t,
            ..self.clone()
        }
    }

    /// Set the source address presented to hosts.
    pub fn with_source_ip(mut self, ip: Ipv4Addr) -> Self {
        self.scanner_ip = ip;
        self
    }

    /// Operation counters.
    pub fn stats(&self) -> &TransportStats {
        &self.stats
    }

    /// The universe behind this transport.
    pub fn universe(&self) -> &Arc<Universe> {
        &self.universe
    }
}

impl Transport for SimTransport {
    type Conn = MemConn<SimHandler>;

    fn probe(&self, ep: Endpoint, _: Attempt<'_>) -> ProbeOutcome {
        self.stats.probes.fetch_add(1, Ordering::Relaxed);
        self.universe.probe(ep, self.now)
    }

    fn sweep_block(&self, block: Cidr, ports: &[u16]) -> BlockSweepResult {
        let populated = self.universe.populated_in(block);
        let mut probed = Vec::with_capacity(populated.len() * ports.len());
        for &ip in populated {
            for &port in ports {
                let ep = Endpoint::new(Ipv4Addr::from(ip), port);
                probed.push((ep, self.probe(ep, Attempt::FIRST)));
            }
        }
        // Every unpopulated address answers `Closed` on every port.
        let empty_addresses = block.size() - populated.len() as u64;
        BlockSweepResult {
            probed,
            addresses_probed: block.size(),
            bulk_closed: empty_addresses * ports.len() as u64,
        }
    }

    fn connect(&self, ep: Endpoint, scheme: Scheme, _: Attempt<'_>) -> Result<Self::Conn> {
        self.stats.connects.fetch_add(1, Ordering::Relaxed);
        let at = self.now;
        let conn = match self.universe.connect_behavior(ep, scheme, at)? {
            ConnectBehavior::Http => {
                let handler = SimHandler {
                    universe: Arc::clone(&self.universe),
                    stats: Arc::clone(&self.stats),
                    ep,
                    at,
                };
                MemConn::http(handler, self.scanner_ip)
            }
            ConnectBehavior::Garbage(banner) => MemConn::banner(banner),
            ConnectBehavior::Silent => MemConn::silent(),
        };
        let cert = if scheme == Scheme::Https {
            self.universe
                .host(ep.ip)
                .and_then(|h| h.cert_domain.clone())
                .map(|subject| CertificateInfo {
                    subject: Some(subject),
                })
        } else {
            None
        };
        Ok(conn.with_certificate(cert))
    }
}

/// The far end of one simulated HTTP connection: every request is
/// answered by the universe as it stood when the connection was made.
pub struct SimHandler {
    universe: Arc<Universe>,
    stats: Arc<TransportStats>,
    ep: Endpoint,
    at: SimTime,
}

impl Handler for SimHandler {
    fn handle(&self, req: &Request, peer: Ipv4Addr) -> Response {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        self.universe.respond(self.ep, req, peer, self.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultyTransport};
    use crate::universe::UniverseConfig;
    use nokeys_apps::AppId;
    use nokeys_http::transport::Connection;
    use nokeys_http::{Client, Url};

    fn transport() -> SimTransport {
        SimTransport::new(Arc::new(Universe::generate(UniverseConfig::tiny(42))))
    }

    fn find_app_ep(t: &SimTransport, app: AppId, vulnerable: bool) -> Endpoint {
        let host = t
            .universe()
            .hosts()
            .find(|h| {
                h.awe().map(|(_, a)| a) == Some(app)
                    && h.is_vulnerable_at_deploy() == vulnerable
                    && h.services[0].schemes.supports_http()
            })
            .unwrap_or_else(|| panic!("no {app} host with vulnerable={vulnerable}"));
        Endpoint::new(host.ip, host.services[0].port)
    }

    #[test]
    fn client_fetches_from_simulated_hadoop() {
        let t = transport();
        let ep = find_app_ep(&t, AppId::Hadoop, true);
        let client = Client::new(t.clone());
        let fetched = client
            .get(&Url::for_ip(
                Scheme::Http,
                ep.ip,
                ep.port,
                "/cluster/cluster",
            ))
            .unwrap();
        assert!(fetched.response.body_text().contains("dr.who"));
        assert!(t.stats().requests() >= 1);
        assert!(t.stats().connects() >= 1);
    }

    #[test]
    fn redirects_work_through_the_simulation() {
        let t = transport();
        let ep = find_app_ep(&t, AppId::WordPress, true);
        let client = Client::new(t.clone());
        // CMS hosts expose port 80 for HTTP.
        let fetched = client
            .get(&Url::for_ip(Scheme::Http, ep.ip, 80, "/"))
            .unwrap();
        assert!(
            fetched.redirects >= 1,
            "fresh WordPress redirects to the installer"
        );
        assert!(fetched.response.body_text().contains("id=\"setup\""));
    }

    #[test]
    fn probe_counts_and_results() {
        let t = transport();
        let ep = find_app_ep(&t, AppId::Gocd, true);
        assert_eq!(t.probe(ep, Attempt::FIRST), ProbeOutcome::Open);
        let closed = Endpoint::new(ep.ip, 9999);
        assert_eq!(t.probe(closed, Attempt::FIRST), ProbeOutcome::Closed);
        assert_eq!(t.stats().probes(), 2);
    }

    #[test]
    fn garbage_services_fail_http_parsing() {
        let t = transport();
        let host_ip = t
            .universe()
            .hosts()
            .find(|h| {
                matches!(
                    h.services.first().map(|s| &s.kind),
                    Some(crate::host::ServiceKind::Background(
                        nokeys_apps::background::BackgroundKind::NotHttp
                    ))
                )
            })
            .map(|h| (h.ip, h.services[0].port));
        let Some((ip, port)) = host_ip else { return };
        let client = Client::new(t.clone());
        let err = client
            .get(&Url::for_ip(Scheme::Http, ip, port, "/"))
            .unwrap_err();
        assert!(
            matches!(
                err,
                nokeys_http::Error::Malformed(_) | nokeys_http::Error::UnexpectedEof
            ),
            "{err:?}"
        );
    }

    #[test]
    fn https_exposes_certificates() {
        let t = transport();
        let host = t
            .universe()
            .hosts()
            .find(|h| h.cert_domain.is_some() && h.service_on(443).is_some())
            .map(|h| h.ip);
        let Some(ip) = host else { return };
        let conn = t
            .connect(Endpoint::new(ip, 443), Scheme::Https, Attempt::FIRST)
            .unwrap();
        let cert = conn.certificate().expect("cert present");
        assert!(cert.subject.unwrap().contains("example"));
    }

    #[test]
    fn time_travel_changes_responses() {
        let t = transport();
        // A plain-HTTP host that goes offline during the window.
        let end = SimTime::SCAN_START + SimTime::OBSERVATION;
        let ep = t
            .universe()
            .vulnerable_hosts()
            .find(|h| {
                h.lifecycle.state_at(end) == crate::lifecycle::HostState::Offline
                    && h.services[0].schemes.supports_http()
            })
            .map(|h| Endpoint::new(h.ip, h.services[0].port))
            .expect("some tiny-universe host goes offline");
        let later = t.at(end);
        let first = Attempt::FIRST;
        // Neither instant moves the other, whichever is asked first.
        assert_eq!(t.probe(ep, first), ProbeOutcome::Open);
        assert_eq!(later.probe(ep, first), ProbeOutcome::Filtered);
        assert_eq!(later.probe(ep, first), ProbeOutcome::Filtered);
        assert_eq!(t.probe(ep, first), ProbeOutcome::Open);
        assert!(matches!(
            later.connect(ep, Scheme::Http, first),
            Err(nokeys_http::Error::Timeout)
        ));
        assert!(t.connect(ep, Scheme::Http, first).is_ok());
        // Both instants count into the same operation counters.
        assert_eq!(later.stats().probes(), 4);
        assert_eq!(t.stats().connects(), 2);
    }

    /// The simulator behind the one fault layer, as `repro` stacks it.
    fn faulty(rate: f64, seed: u64) -> FaultyTransport<SimTransport> {
        FaultyTransport::new(transport(), FaultPlan::new(rate, seed))
    }

    /// `t` reporting its injected faults to a count of their own.
    fn counted(
        mut t: FaultyTransport<SimTransport>,
    ) -> (FaultyTransport<SimTransport>, Arc<AtomicU64>) {
        let injected = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&injected);
        t.report_faults_to(Arc::new(move |_| {
            seen.fetch_add(1, Ordering::Relaxed);
        }));
        (t, injected)
    }

    #[test]
    fn probes_can_fault_too() {
        let (t, injected) = counted(faulty(1.0, 1));
        let ep = find_app_ep(t.inner(), AppId::Hadoop, true);
        assert_eq!(t.probe(ep, Attempt::FIRST), ProbeOutcome::Filtered);
        assert_eq!(injected.load(Ordering::Relaxed), 1);
        // A fault-free transport sees the same endpoint open.
        assert_eq!(transport().probe(ep, Attempt::FIRST), ProbeOutcome::Open);
    }

    /// Forwards probes/connects but keeps the trait's dense
    /// `sweep_block` default, to pit the sparse override against.
    struct DenseOnly<T>(T);

    impl<T: Transport> Transport for DenseOnly<T> {
        type Conn = T::Conn;

        fn probe(&self, ep: Endpoint, attempt: Attempt<'_>) -> ProbeOutcome {
            self.0.probe(ep, attempt)
        }

        fn connect(&self, ep: Endpoint, scheme: Scheme, attempt: Attempt<'_>) -> Result<T::Conn> {
            self.0.connect(ep, scheme, attempt)
        }
    }

    fn populated_block(t: &SimTransport) -> Cidr {
        t.universe()
            .config()
            .space
            .slash24_blocks()
            .find(|b| t.universe().populated_in(*b).len() >= 2)
            .expect("tiny universe has a block with hosts")
    }

    #[test]
    fn sparse_sweep_matches_the_dense_default() {
        let ports = [80u16, 443, 8080];
        let sparse_t = transport();
        let dense_t = DenseOnly(transport());
        let block = populated_block(&sparse_t);

        let sparse = sparse_t.sweep_block(block, &ports);
        let dense = dense_t.sweep_block(block, &ports);

        assert_eq!(sparse.addresses_probed, dense.addresses_probed);
        assert_eq!(sparse.probes_sent(), dense.probes_sent());
        assert_eq!(
            sparse.open().collect::<Vec<_>>(),
            dense.open().collect::<Vec<_>>(),
            "discovery order must match the dense loop"
        );
        // Sparse evaluated only populated endpoints...
        let populated = sparse_t.universe().populated_in(block).len();
        assert_eq!(sparse.probed.len(), populated * ports.len());
        assert_eq!(sparse_t.stats().probes(), (populated * ports.len()) as u64);
        // ...while dense paid for the whole block.
        assert_eq!(dense.probed.len() as u64, block.size() * ports.len() as u64);
        // Every probe sparse skipped was Closed in the dense sweep.
        let evaluated: std::collections::HashMap<Endpoint, ProbeOutcome> =
            sparse.probed.iter().copied().collect();
        for (ep, outcome) in &dense.probed {
            match evaluated.get(ep) {
                Some(sparse_outcome) => assert_eq!(sparse_outcome, outcome, "{ep}"),
                None => assert_eq!(*outcome, ProbeOutcome::Closed, "{ep}"),
            }
        }
    }

    #[test]
    fn faulty_sweeps_match_the_dense_loop_draw_for_draw() {
        let ports = [80u16, 443];
        let (sparse_t, sparse_injected) = counted(faulty(0.3, 11));
        let (dense_t, dense_injected) = counted(faulty(0.3, 11));
        let dense_t = DenseOnly(dense_t);
        let block = populated_block(sparse_t.inner());

        let sparse = sparse_t.sweep_block(block, &ports);
        let dense = dense_t.sweep_block(block, &ports);

        assert_eq!(sparse.probes_sent(), dense.probes_sent());
        assert_eq!(
            sparse.open().collect::<Vec<_>>(),
            dense.open().collect::<Vec<_>>()
        );
        let evaluated: std::collections::HashMap<Endpoint, ProbeOutcome> =
            sparse.probed.iter().copied().collect();
        for (ep, outcome) in &dense.probed {
            match evaluated.get(ep) {
                Some(sparse_outcome) => assert_eq!(sparse_outcome, outcome, "{ep}"),
                None => assert_eq!(*outcome, ProbeOutcome::Closed, "{ep}"),
            }
        }
        let injected = sparse_injected.load(Ordering::Relaxed);
        assert!(injected > 0, "at 30% some probe of the block faults");
        assert_eq!(
            injected,
            dense_injected.load(Ordering::Relaxed),
            "sparse and dense must make identical fault draws"
        );
    }

    #[test]
    fn empty_addresses_are_closed_under_every_fault_lane() {
        let (t, injected) = counted(faulty(1.0, 9));
        let universe = t.inner().universe();
        let empty_ip = universe
            .config()
            .space
            .addresses()
            .find(|ip| universe.host(*ip).is_none())
            .expect("tiny universe is sparse");
        let ep = Endpoint::new(empty_ip, 80);
        // Probe lane at rate 1.0: still a definite RST, no fault drawn.
        for n in 0..4 {
            let attempt = Attempt { target: "", n };
            assert_eq!(t.probe(ep, attempt), ProbeOutcome::Closed);
        }
        assert_eq!(injected.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn fault_schedule_is_independent_of_endpoint_interleaving() {
        fn timed_out(t: &FaultyTransport<SimTransport>, ep: Endpoint, n: u32) -> bool {
            let attempt = Attempt { target: "/", n };
            matches!(
                t.connect(ep, Scheme::Http, attempt),
                Err(nokeys_http::Error::Timeout)
            )
        }

        let t1 = faulty(0.5, 7);
        let t2 = faulty(0.5, 7);
        let a = find_app_ep(t1.inner(), AppId::Hadoop, true);
        let b = find_app_ep(t1.inner(), AppId::WordPress, true);

        // Tries 0..16 of one connect at each endpoint: t1 interleaves
        // a/b, t2 visits b first, then a. The per-endpoint timeout
        // sequences must match regardless.
        let (a1, b1): (Vec<bool>, Vec<bool>) = (0..16)
            .map(|n| (timed_out(&t1, a, n), timed_out(&t1, b, n)))
            .unzip();
        let b2: Vec<bool> = (0..16).map(|n| timed_out(&t2, b, n)).collect();
        let a2: Vec<bool> = (0..16).map(|n| timed_out(&t2, a, n)).collect();
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
        assert!(a1.contains(&true) && a1.contains(&false), "{a1:?}");
    }
}
