//! In-memory [`Transport`] implementation over the simulated universe.
//!
//! Connections are byte-accurate: the client writes a serialized HTTP
//! request, the connection parses it, dispatches to the universe and
//! queues the serialized response for reading — so the exact same client
//! and pipeline code runs against the simulation and against real TCP.

use crate::clock::SimTime;
use crate::fault::{FaultLane, FaultPlan, FaultStats};
use crate::ip::Cidr;
use crate::universe::{ConnectBehavior, Universe};
use nokeys_http::parse::{Decoder, Limits};
use nokeys_http::transport::{CertificateInfo, Connection};
use nokeys_http::{BlockSweepResult, Endpoint, ProbeOutcome, Request, Result, Scheme, Transport};
use std::io::{Read, Write};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Operation counters, used by benchmarks and the pipeline-ablation
/// study.
#[derive(Debug, Default)]
pub struct TransportStats {
    pub probes: AtomicU64,
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

/// Transport over a shared universe snapshot, evaluated at a settable
/// virtual time (the longevity observer advances it between rescans).
#[derive(Clone)]
pub struct SimTransport {
    universe: Arc<Universe>,
    /// Seconds since the scan epoch; one atomic so clones on other
    /// worker threads read a whole value without a lock.
    now: Arc<AtomicI64>,
    stats: Arc<TransportStats>,
    /// Source address the universe sees for requests from this transport.
    scanner_ip: Ipv4Addr,
    /// Transient-loss schedule: probe faults drop the SYN answer
    /// (`Filtered`), connect faults time the attempt out. Decisions are
    /// keyed per `(endpoint, lane, attempt ordinal)` — see
    /// [`FaultPlan`] — so the schedule one endpoint sees is independent
    /// of cross-endpoint execution order, and fault-injected runs
    /// replay exactly at any shard count.
    faults: FaultPlan,
}

impl SimTransport {
    pub fn new(universe: Arc<Universe>) -> Self {
        SimTransport {
            universe,
            now: Arc::new(AtomicI64::new(SimTime::SCAN_START.as_secs())),
            stats: Arc::new(TransportStats::default()),
            scanner_ip: Ipv4Addr::new(198, 51, 100, 77),
            faults: FaultPlan::disabled(),
        }
    }

    /// Enable transient faults with the given per-attempt probability
    /// (smoltcp-style fault injection; exercises the pipeline's
    /// resilience to flaky networks). Faults fire on both SYN probes
    /// (dropped answer → `Filtered`) and connects (timeout). Starts a
    /// fresh schedule, so call during setup — and before
    /// [`with_fault_observer`](Self::with_fault_observer).
    pub fn with_fault_injection(self, rate: f64) -> Self {
        let seed = self.faults.seed();
        self.with_fault_plan(FaultPlan::new(rate, seed))
    }

    /// Re-key the fault stream. Starts a fresh schedule, keeping the
    /// configured rate.
    pub fn with_fault_seed(self, seed: u64) -> Self {
        let rate = self.faults.rate();
        self.with_fault_plan(FaultPlan::new(rate, seed))
    }

    /// Replace the whole fault schedule.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Observe every injected fault — used to bridge fault counts into
    /// a telemetry registry this crate cannot depend on.
    pub fn with_fault_observer(
        mut self,
        observer: impl Fn(FaultLane) + Send + Sync + 'static,
    ) -> Self {
        self.faults = self.faults.clone().with_observer(observer);
        self
    }

    /// Injected-fault counts (shared across clones).
    pub fn fault_stats(&self) -> &FaultStats {
        self.faults.stats()
    }

    /// Set the virtual time at which the universe is observed.
    pub fn set_time(&self, t: SimTime) {
        self.now.store(t.as_secs(), Ordering::SeqCst);
    }

    /// Current virtual observation time.
    pub fn time(&self) -> SimTime {
        SimTime(self.now.load(Ordering::SeqCst))
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
    type Conn = SimConn;

    fn probe(&self, ep: Endpoint) -> ProbeOutcome {
        self.stats.probes.fetch_add(1, Ordering::Relaxed);
        let outcome = self.universe.probe(ep, self.time());
        if outcome == ProbeOutcome::Closed {
            // An RST is a definite answer: fault lanes model *lost*
            // answers, and a closed port stays closed on every attempt,
            // so no fault draw happens (and no retry would follow). This
            // is what lets the sparse sweep answer `Closed` for empty
            // addresses without consuming any fault ordinals.
            return outcome;
        }
        if self.faults.fires(FaultLane::Probe, ep) {
            // Injected SYN loss: the probe goes unanswered.
            return ProbeOutcome::Filtered;
        }
        outcome
    }

    fn sweep_block(&self, block: Cidr, ports: &[u16]) -> BlockSweepResult {
        let populated = self.universe.populated_in(block);
        let mut probed = Vec::with_capacity(populated.len() * ports.len());
        for &ip in populated {
            for &port in ports {
                let ep = Endpoint::new(Ipv4Addr::from(ip), port);
                probed.push((ep, self.probe(ep)));
            }
        }
        // Every unpopulated address answers `Closed` on every port; see
        // `probe` above for why no fault draws are owed for them.
        let empty_addresses = block.size() - populated.len() as u64;
        BlockSweepResult {
            probed,
            addresses_probed: block.size(),
            bulk_closed: empty_addresses * ports.len() as u64,
        }
    }

    fn connect(&self, ep: Endpoint, scheme: Scheme) -> Result<SimConn> {
        self.stats.connects.fetch_add(1, Ordering::Relaxed);
        if self.faults.fires(FaultLane::Connect, ep) {
            return Err(nokeys_http::Error::Timeout);
        }
        let at = self.time();
        let behavior = self.universe.connect_behavior(ep, scheme, at)?;
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
        Ok(SimConn {
            universe: Arc::clone(&self.universe),
            stats: Arc::clone(&self.stats),
            ep,
            at,
            peer: self.scanner_ip,
            behavior,
            requests: Decoder::request(Limits::default()),
            read_buf: Vec::new(),
            banner_sent: false,
            cert,
        })
    }
}

/// A simulated connection. All operations complete immediately; reads
/// return EOF once no more simulated bytes are pending (the server always
/// behaves as `Connection: close`).
pub struct SimConn {
    universe: Arc<Universe>,
    stats: Arc<TransportStats>,
    ep: Endpoint,
    at: SimTime,
    peer: Ipv4Addr,
    behavior: ConnectBehavior,
    requests: Decoder<Request>,
    read_buf: Vec<u8>,
    banner_sent: bool,
    cert: Option<CertificateInfo>,
}

impl SimConn {
    /// Answer every complete request written so far into the read
    /// buffer.
    fn pump(&mut self) {
        if self.behavior != ConnectBehavior::Http {
            return;
        }
        // A malformed request ends the simulated connection: the decoder
        // keeps reporting its error, so nothing after it is answered.
        while let Ok(Some(req)) = self.requests.next(false) {
            self.stats.requests.fetch_add(1, Ordering::Relaxed);
            let resp = self.universe.respond(self.ep, &req, self.peer, self.at);
            self.read_buf
                .extend_from_slice(&nokeys_http::encode::encode_response(&resp));
        }
    }
}

impl Write for SimConn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.requests.feed(buf);
        self.pump();
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Read for SimConn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if let ConnectBehavior::Garbage(banner) = self.behavior {
            if !self.banner_sent {
                self.banner_sent = true;
                self.read_buf.extend_from_slice(banner);
            }
        }
        // Nothing pending reads as EOF: the simulated server closes.
        // (Silent services land here immediately.)
        let n = self.read_buf.len().min(buf.len());
        buf[..n].copy_from_slice(&self.read_buf[..n]);
        self.read_buf.drain(..n);
        Ok(n)
    }
}

impl Connection for SimConn {
    fn certificate(&self) -> Option<CertificateInfo> {
        self.cert.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::UniverseConfig;
    use nokeys_apps::AppId;
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
        assert_eq!(t.probe(ep), ProbeOutcome::Open);
        assert_eq!(t.probe(Endpoint::new(ep.ip, 9999)), ProbeOutcome::Closed);
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
        let conn = t.connect(Endpoint::new(ip, 443), Scheme::Https).unwrap();
        let cert = conn.certificate().expect("cert present");
        assert!(cert.subject.unwrap().contains("example"));
    }

    #[test]
    fn time_travel_changes_responses() {
        let t = transport();
        // Find a host that goes offline during the window.
        let end = SimTime::SCAN_START + SimTime::OBSERVATION;
        let gone = t
            .universe()
            .vulnerable_hosts()
            .find(|h| h.lifecycle.state_at(end) == crate::lifecycle::HostState::Offline)
            .map(|h| Endpoint::new(h.ip, h.services[0].port));
        let Some(ep) = gone else { return };
        assert_eq!(t.probe(ep), ProbeOutcome::Open);
        t.set_time(end);
        assert_eq!(t.probe(ep), ProbeOutcome::Filtered);
        assert!(t.connect(ep, Scheme::Http).is_err());
    }

    #[test]
    fn probes_can_fault_too() {
        let t = transport().with_fault_injection(1.0);
        let ep = find_app_ep(&t, AppId::Hadoop, true);
        assert_eq!(t.probe(ep), ProbeOutcome::Filtered);
        assert_eq!(t.fault_stats().probe_injected(), 1);
        // A fault-free transport sees the same endpoint open.
        assert_eq!(transport().probe(ep), ProbeOutcome::Open);
    }

    /// Forwards probes/connects but keeps the trait's dense
    /// `sweep_block` default, to pit the sparse override against.
    struct DenseOnly(SimTransport);

    impl Transport for DenseOnly {
        type Conn = SimConn;

        fn probe(&self, ep: Endpoint) -> ProbeOutcome {
            self.0.probe(ep)
        }

        fn connect(&self, ep: Endpoint, scheme: Scheme) -> Result<SimConn> {
            self.0.connect(ep, scheme)
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
        let mk = || transport().with_fault_injection(0.3).with_fault_seed(11);
        let ports = [80u16, 443];
        let sparse_t = mk();
        let dense_t = DenseOnly(mk());
        let block = populated_block(&sparse_t);

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
        assert_eq!(
            sparse_t.fault_stats().probe_injected(),
            dense_t.0.fault_stats().probe_injected(),
            "sparse and dense must consume identical fault schedules"
        );
    }

    #[test]
    fn empty_addresses_are_closed_under_every_fault_lane() {
        let t = transport().with_fault_injection(1.0);
        let empty_ip = t
            .universe()
            .config()
            .space
            .addresses()
            .find(|ip| t.universe().host(*ip).is_none())
            .expect("tiny universe is sparse");
        let ep = Endpoint::new(empty_ip, 80);
        // Probe lane at rate 1.0: still a definite RST, no fault drawn.
        for _ in 0..4 {
            assert_eq!(t.probe(ep), ProbeOutcome::Closed);
        }
        assert_eq!(t.fault_stats().probe_injected(), 0);
        // The standalone wrapper obeys the same invariant.
        let wrapped = crate::fault::FaultyTransport::new(transport(), FaultPlan::new(1.0, 9));
        assert_eq!(wrapped.probe(ep), ProbeOutcome::Closed);
        assert_eq!(wrapped.plan().stats().probe_injected(), 0);
    }

    #[test]
    fn fault_schedule_is_independent_of_endpoint_interleaving() {
        fn timed_out(t: &SimTransport, ep: Endpoint) -> bool {
            matches!(
                t.connect(ep, Scheme::Http),
                Err(nokeys_http::Error::Timeout)
            )
        }

        let t1 = transport().with_fault_injection(0.5).with_fault_seed(7);
        let t2 = transport().with_fault_injection(0.5).with_fault_seed(7);
        let a = find_app_ep(&t1, AppId::Hadoop, true);
        let b = find_app_ep(&t1, AppId::WordPress, true);

        // t1 interleaves a/b; t2 visits b first, then all of a. The
        // per-endpoint timeout sequences must match regardless.
        let mut a1 = Vec::new();
        let mut b1 = Vec::new();
        for _ in 0..16 {
            a1.push(timed_out(&t1, a));
            b1.push(timed_out(&t1, b));
        }
        let mut b2 = Vec::new();
        for _ in 0..16 {
            b2.push(timed_out(&t2, b));
        }
        let mut a2 = Vec::new();
        for _ in 0..16 {
            a2.push(timed_out(&t2, a));
        }
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
        assert!(a1.contains(&true) && a1.contains(&false), "{a1:?}");
    }
}
