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
use nokeys_http::{Attempt, Endpoint, ProbeOutcome, Request, Response, Result, Scheme, Transport};
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
}

/// Source address the universe sees for requests from the scanner.
const SCANNER_IP: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 77);

impl SimTransport {
    pub fn new(universe: Arc<Universe>) -> Self {
        SimTransport {
            universe,
            now: SimTime::SCAN_START,
            stats: Arc::new(TransportStats::default()),
        }
    }

    /// This transport as it answers at `t`: same universe, same
    /// operation counters.
    pub fn at(&self, t: SimTime) -> Self {
        SimTransport {
            now: t,
            ..self.clone()
        }
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

    /// The populated addresses: an empty one is a definite RST.
    fn live_addresses(&self, block: Cidr) -> Option<&[u32]> {
        Some(self.universe.populated_in(block))
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
                MemConn::http(handler, SCANNER_IP)
            }
            ConnectBehavior::Garbage(banner) => MemConn::banner(banner),
            ConnectBehavior::Silent => MemConn::silent(),
        };
        let cert = if scheme == Scheme::Https {
            self.universe
                .host(ep.ip)
                .and_then(|h| h.cert_domain.clone())
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
    use nokeys_http::cases::check;
    use nokeys_http::transport::Connection;
    use nokeys_http::Visit;

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
        let visit = Visit::new(&t, ep, Scheme::Http);
        let fetched = visit.get("/cluster/cluster").unwrap();
        assert!(fetched.response.body_text().contains("dr.who"));
        assert!(t.stats().requests() >= 1);
        assert!(t.stats().connects() >= 1);
    }

    #[test]
    fn redirects_work_through_the_simulation() {
        let t = transport();
        let ep = find_app_ep(&t, AppId::WordPress, true);
        // CMS hosts expose port 80 for HTTP.
        let visit = Visit::new(&t, Endpoint::new(ep.ip, 80), Scheme::Http);
        let fetched = visit.get("/").unwrap();
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
        let visit = Visit::new(&t, Endpoint::new(ip, port), Scheme::Http);
        let err = visit.get("/").unwrap_err();
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
        let subject = conn.certificate().expect("cert present");
        assert!(subject.contains("example"));
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

    /// `live_addresses`' contract over seeded /24s of the tiny universe:
    /// it lists exactly the populated addresses, and every address it
    /// leaves out answers `Closed` on every study port, at every try,
    /// through a fault layer that faults everything it may, at the
    /// scan's start and at the end of the observation window.
    #[test]
    fn every_address_live_addresses_omits_answers_closed() {
        let (faulty, injected) = counted(faulty(1.0, 5));
        let universe = Arc::clone(faulty.inner().universe());
        let space = universe.config().space;
        let end = SimTime::SCAN_START + SimTime::OBSERVATION;
        let blocks: Vec<Cidr> = space.slash24_blocks().collect();
        let hosts: Vec<Ipv4Addr> = universe.hosts().map(|h| h.ip).collect();
        check(8, |g| {
            // Half the cases sweep a block around a host.
            let block = match g.bool() {
                true => Cidr::new(*g.pick(&hosts), 24),
                false => *g.pick(&blocks),
            };
            let live = faulty.live_addresses(block).expect("the simulator knows");
            let populated: Vec<u32> = (block.addresses())
                .filter(|ip| universe.host(*ip).is_some())
                .map(u32::from)
                .collect();
            assert_eq!(live, populated, "{block}");
            for t in [faulty.clone(), faulty.at(end)] {
                for ip in block
                    .addresses()
                    .filter(|ip| !live.contains(&u32::from(*ip)))
                {
                    for port in nokeys_apps::SCAN_PORTS {
                        for n in 0..4 {
                            let attempt = Attempt { target: "", n };
                            let ep = Endpoint::new(ip, port);
                            assert_eq!(t.probe(ep, attempt), ProbeOutcome::Closed, "{ep}");
                        }
                    }
                }
            }
        });
        assert_eq!(injected.load(Ordering::Relaxed), 0, "no RST is faulted");
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
