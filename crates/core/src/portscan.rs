//! Stage I: masscan-style port sweep.
//!
//! Mirrors the paper's setup: the target space is decomposed into /24
//! blocks which are scanned in a deterministic *shuffled* order (to avoid
//! flooding any single network), IANA reserved ranges are excluded, and
//! only the 12 study ports are probed. Results are delivered in batches
//! so later (slower) stages can run on fresh data while the sweep
//! continues — the paper's answer to scan-vs-verify staleness.
//!
//! Stage I is two functions of a [`PipelineConfig`]: [`shuffled_blocks`]
//! orders its targets' /24s by its seed, and [`sweep`] probes a slice of
//! them on its ports, skipping reserved space if it says so, drawing
//! tokens from an optional [`Pacer`]. For each block the transport names
//! the addresses that can answer ([`Transport::live_addresses`]; `None`
//! means all of them), and the sweep probes each of those on every
//! port through the ordinary wrapper stack. Every other address is a
//! definite RST, so it is counted, not probed: over the simulator a
//! sweep calls the transport only for populated hosts.
//!
//! A sweep returns its open endpoints and nothing else. What it counts
//! goes to the telemetry registry alone: `stage1.blocks_swept`,
//! `stage1.addresses_probed`, `stage1.probes_sent` and, per configured
//! port, `stage1.ports_open.<port>` — the numbers a
//! [`ScanReport`](crate::report::ScanReport) reads back.

use crate::pipeline::PipelineConfig;
use crate::rate::Pacer;
use crate::telemetry::{Counter, Telemetry};
use nokeys_http::ip::BlockCoverage;
use nokeys_http::rng::XorShift64;
use nokeys_http::{Attempt, Endpoint, ProbeOutcome, Transport};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

pub use nokeys_http::ip::{Cidr, ReservedRanges};

/// Group open endpoints by address, ascending, each host's ports in
/// discovery order (hosts with several open ports).
pub(crate) fn by_host(open: &[Endpoint]) -> BTreeMap<Ipv4Addr, Vec<u16>> {
    let mut map: BTreeMap<Ipv4Addr, Vec<u16>> = BTreeMap::new();
    for ep in open {
        map.entry(ep.ip).or_default().push(ep.port);
    }
    map
}

/// Stage-I telemetry handles.
struct SweepMetrics {
    blocks_swept: Counter,
    addresses_probed: Counter,
    /// `stage1.probes_sent` counts *logical* probes — one per
    /// (address, port) pair. Transport-level retransmits (a
    /// [`RetryTransport`](crate::retry::RetryTransport) re-probing a
    /// filtered endpoint) are deliberately not counted, so fault-injected runs
    /// with retries reconcile with fault-free reports.
    probes_sent: Counter,
    /// `stage1.ports_open.<port>` (Table 2, column "# Open"), one per
    /// configured port.
    ports_open: BTreeMap<u16, Counter>,
}

impl SweepMetrics {
    fn new(telemetry: &Telemetry, ports: &[u16]) -> Self {
        let open = |port| telemetry.counter(&format!("stage1.ports_open.{port}"));
        SweepMetrics {
            blocks_swept: telemetry.counter("stage1.blocks_swept"),
            addresses_probed: telemetry.counter("stage1.addresses_probed"),
            probes_sent: telemetry.counter("stage1.probes_sent"),
            ports_open: ports.iter().map(|&port| (port, open(port))).collect(),
        }
    }

    /// Count `ep` open and add it to `open`.
    fn found(&self, ep: Endpoint, open: &mut Vec<Endpoint>) {
        self.ports_open
            .get(&ep.port)
            .expect("a sweep answers only the configured ports")
            .incr();
        open.push(ep);
    }
}

/// The /24 blocks of `config`'s targets in its deterministic shuffled
/// scan order: a Fisher–Yates shuffle over the xorshift64 stream of
/// its seed.
pub fn shuffled_blocks(config: &PipelineConfig) -> Vec<Cidr> {
    let mut blocks: Vec<Cidr> = (config.targets.iter())
        .flat_map(|t| t.slash24_blocks())
        .collect();
    XorShift64::new(config.seed).shuffle(&mut blocks);
    blocks
}

/// Sweep `blocks` in order on `config`'s ports, skipping reserved space
/// if it says so, and return the open endpoints in discovery order.
/// Each block's probe tokens are drawn from `pacer` in one step
/// ([`Pacer::acquire_many`]), so the cap holds as an average at block
/// granularity: a transport that names no live addresses sends a /24's
/// probes back-to-back after the block's wait. Every worker of a scan
/// draws from the one pacer its plan made; a pacer per block would
/// grant a fresh burst each time and overshoot the ceiling.
///
/// Every stage-I counter is registered in `telemetry` before the first
/// block, so a batch's snapshot lists each of them, zeros included.
pub fn sweep<T: Transport>(
    config: &PipelineConfig,
    telemetry: &Telemetry,
    transport: &T,
    blocks: &[Cidr],
    pacer: Option<&Pacer>,
) -> Vec<Endpoint> {
    let sweep = Sweep::new(config, telemetry);
    let mut open = Vec::new();
    for &block in blocks {
        sweep.metrics.blocks_swept.incr();
        sweep.block(transport, block, pacer, &mut open);
    }
    open
}

/// One sweep's view of its configuration, exclusion list and counters.
struct Sweep<'a> {
    config: &'a PipelineConfig,
    reserved: ReservedRanges,
    metrics: SweepMetrics,
}

impl<'a> Sweep<'a> {
    fn new(config: &'a PipelineConfig, telemetry: &Telemetry) -> Self {
        Sweep {
            config,
            reserved: ReservedRanges::iana(),
            metrics: SweepMetrics::new(telemetry, &config.ports),
        }
    }

    /// Sweep one block: classify it against the exclusion list once,
    /// draw the whole block's pacer tokens in one step, and probe each
    /// of its addresses on each port — only the ones the transport
    /// names live ([`Transport::live_addresses`]), since every other
    /// one answers `Closed`. The counts are the dense loop's, and the
    /// test-only `block_dense` reference pins that.
    fn block<T: Transport>(
        &self,
        transport: &T,
        block: Cidr,
        pacer: Option<&Pacer>,
        open: &mut Vec<Endpoint>,
    ) {
        if self.config.exclude_reserved {
            match self.reserved.coverage(block) {
                // Every address of the block is excluded.
                BlockCoverage::Full => return,
                // Every IANA range is a /24 or larger, so only a block
                // larger than /24 can straddle one: sweep its /24s,
                // none of which can.
                BlockCoverage::Partial => {
                    assert!(block.prefix < 24, "{block} straddles a reserved range");
                    for sub in block.slash24_blocks() {
                        self.block(transport, sub, pacer, open);
                    }
                    return;
                }
                BlockCoverage::None => {}
            }
        }
        let probes = block.size() * self.config.ports.len() as u64;
        if let Some(p) = pacer {
            p.acquire_many(probes);
        }
        self.metrics.addresses_probed.add(block.size());
        self.metrics.probes_sent.add(probes);
        let mut probe = |ip: Ipv4Addr| {
            for &port in &self.config.ports {
                let ep = Endpoint::new(ip, port);
                if transport.probe(ep, Attempt::FIRST) == ProbeOutcome::Open {
                    self.metrics.found(ep, open);
                }
            }
        };
        match transport.live_addresses(block) {
            Some(live) => live.iter().for_each(|&ip| probe(Ipv4Addr::from(ip))),
            None => block.addresses().for_each(probe),
        }
    }

    /// The dense per-endpoint loop the sweep must reproduce byte for
    /// byte: one `probe` call per (address, port) pair, whatever the
    /// transport's live addresses, reserved addresses skipped one at a
    /// time.
    #[cfg(test)]
    fn block_dense<T: Transport>(&self, transport: &T, block: Cidr) -> Vec<Endpoint> {
        self.metrics.blocks_swept.incr();
        let mut open = Vec::new();
        for ip in block.addresses() {
            if self.config.exclude_reserved && self.reserved.contains(ip) {
                continue;
            }
            self.metrics.addresses_probed.incr();
            for &port in &self.config.ports {
                self.metrics.probes_sent.incr();
                let ep = Endpoint::new(ip, port);
                if transport.probe(ep, Attempt::FIRST) == ProbeOutcome::Open {
                    self.metrics.found(ep, &mut open);
                }
            }
        }
        open
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::TelemetrySnapshot;
    use nokeys_apps::SCAN_PORTS;
    use nokeys_http::{FaultLane, FaultObserver};
    use nokeys_netsim::killswitch::Killed;
    use nokeys_netsim::{
        FaultPlan, FaultyTransport, KillSwitch, KillableTransport, SimTransport, Universe,
        UniverseConfig,
    };
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    fn sim() -> SimTransport {
        SimTransport::new(Arc::new(Universe::generate(UniverseConfig::tiny(42))))
    }

    fn config_for_tiny() -> PipelineConfig {
        PipelineConfig::new(vec!["20.0.0.0/16".parse().unwrap()])
    }

    /// A sweep's open endpoints and its stage-I snapshot.
    type Swept = (Vec<Endpoint>, TelemetrySnapshot);

    /// Sweep the configured targets whole, in their shuffled order,
    /// into a registry of its own.
    fn scan_counted(config: PipelineConfig, t: &SimTransport) -> Swept {
        let telemetry = Telemetry::new();
        let open = sweep(&config, &telemetry, t, &shuffled_blocks(&config), None);
        (open, telemetry.snapshot())
    }

    /// `block` swept sparse and dense under `config`, each into a
    /// registry of its own.
    fn sparse_and_dense(config: &PipelineConfig, block: Cidr) -> (Swept, Swept) {
        let run = |dense: bool| {
            let telemetry = Telemetry::new();
            let open = if dense {
                Sweep::new(config, &telemetry).block_dense(&sim(), block)
            } else {
                sweep(config, &telemetry, &sim(), &[block], None)
            };
            (open, telemetry.snapshot())
        };
        (run(false), run(true))
    }

    #[test]
    fn shuffle_is_deterministic_and_complete() {
        let a = shuffled_blocks(&config_for_tiny());
        let b = shuffled_blocks(&config_for_tiny());
        assert_eq!(a, b);
        assert_eq!(a.len(), 256, "a /16 has 256 /24 blocks");
        // It is actually shuffled (first few blocks not in natural order).
        let natural: Vec<Cidr> = "20.0.0.0/16"
            .parse::<Cidr>()
            .unwrap()
            .slash24_blocks()
            .collect();
        assert_ne!(a, natural);
        let mut sorted = a.clone();
        sorted.sort_by_key(|c| c.base);
        assert_eq!(sorted, natural);
    }

    #[test]
    fn finds_every_populated_endpoint() {
        let t = sim();
        let (open, snap) = scan_counted(config_for_tiny(), &t);
        // Every non-tarpit host's service ports must be discovered.
        let expected: u64 = t
            .universe()
            .hosts()
            .filter(|h| !h.tarpit)
            .map(|h| h.services.len() as u64)
            .sum();
        let tarpit_ports: u64 =
            t.universe().hosts().filter(|h| h.tarpit).count() as u64 * SCAN_PORTS.len() as u64;
        assert_eq!(open.len() as u64, expected + tarpit_ports);
        assert_eq!(
            snap.counter("stage1.probes_sent"),
            snap.counter("stage1.addresses_probed") * 12
        );
    }

    #[test]
    fn reserved_ranges_are_skipped() {
        let t = sim();
        let cfg = PipelineConfig::new(vec!["10.0.0.0/24".parse().unwrap()]);
        assert!(cfg.exclude_reserved);
        let (open, snap) = scan_counted(cfg, &t);
        assert!(open.is_empty());
        assert_eq!(
            snap.counter("stage1.addresses_probed"),
            0,
            "10/8 is reserved"
        );
        assert_eq!(t.stats().probes(), 0);
    }

    #[test]
    fn rate_limit_paces_the_sweep() {
        let t = sim();
        let cfg = PipelineConfig {
            ports: vec![80],
            ..PipelineConfig::new(vec!["20.0.0.0/26".parse().unwrap()])
        };
        let telemetry = Telemetry::new();
        let clock = Arc::new(crate::rate::VirtualClock::default());
        let pacer = Pacer::with_clock(32.0, clock.clone());
        sweep(&cfg, &telemetry, &t, &shuffled_blocks(&cfg), Some(&pacer));
        // 64 probes at 32/s with a 32-token burst: ~1s of (virtual)
        // pacing time.
        assert_eq!(telemetry.snapshot().counter("stage1.probes_sent"), 64);
        let elapsed = crate::rate::Clock::now(clock.as_ref());
        assert!(
            elapsed >= std::time::Duration::from_millis(900),
            "{elapsed:?}"
        );
    }

    /// One pacer is shared across all blocks of a sweep: the burst
    /// allowance is granted once, not once per block.
    #[test]
    fn blocks_of_one_sweep_share_one_pacer() {
        let t = sim();
        let cfg = PipelineConfig {
            ports: vec![80],
            ..PipelineConfig::new(vec![
                "20.0.0.0/24".parse().unwrap(),
                "20.0.1.0/24".parse().unwrap(),
            ])
        };
        let telemetry = Telemetry::new();
        let clock = Arc::new(crate::rate::VirtualClock::default());
        let pacer = Pacer::with_clock(256.0, clock.clone());
        sweep(&cfg, &telemetry, &t, &shuffled_blocks(&cfg), Some(&pacer));
        assert_eq!(telemetry.snapshot().counter("stage1.probes_sent"), 512);
        // 512 probes at 256/s with a single 256-token burst: ~1s of
        // virtual pacing. A fresh burst per block would finish in ~0s.
        let elapsed = crate::rate::Clock::now(clock.as_ref());
        assert!(
            elapsed >= std::time::Duration::from_millis(900),
            "{elapsed:?}"
        );
    }

    /// The sparse block sweep equals the dense per-endpoint reference —
    /// open endpoints *and* stage-I telemetry — with and without
    /// injected faults under the retry layer; it just asks the transport
    /// for O(populated endpoints) probes instead of O(address space).
    #[test]
    fn sparse_sweep_equals_the_dense_reference() {
        use crate::retry::RetryTransport;
        for fault_rate in [0.0, 0.05] {
            let run = |dense: bool| {
                let mut faulty =
                    FaultyTransport::new(sim(), FaultPlan::new(fault_rate, 0xfa17_5eed));
                let injected = Arc::new(AtomicU64::new(0));
                let seen = Arc::clone(&injected);
                let observer: FaultObserver = Arc::new(move |lane| {
                    assert_eq!(lane, FaultLane::Probe, "a sweep only probes");
                    seen.fetch_add(1, Ordering::Relaxed);
                });
                faulty.report_faults_to(observer);
                let telemetry = Telemetry::new();
                let t = RetryTransport::new(faulty.clone(), 3, Duration::ZERO, &telemetry);
                let config = config_for_tiny();
                let mut open = Vec::new();
                for block in shuffled_blocks(&config) {
                    open.extend(if dense {
                        Sweep::new(&config, &telemetry).block_dense(&t, block)
                    } else {
                        sweep(&config, &telemetry, &t, &[block], None)
                    });
                }
                let injected = injected.load(Ordering::Relaxed);
                (open, telemetry.snapshot(), faulty, injected)
            };
            let (sparse, sparse_telemetry, sparse_t, sparse_injected) = run(false);
            let (dense, dense_telemetry, dense_t, dense_injected) = run(true);

            assert_eq!(sparse, dense, "same endpoints, same order");
            assert_eq!(
                sparse_telemetry.to_json(),
                dense_telemetry.to_json(),
                "fault rate {fault_rate}"
            );
            assert_eq!(
                sparse_injected, dense_injected,
                "both sweeps make the same fault draws"
            );
            assert_eq!(fault_rate > 0.0, sparse_injected > 0);
            // Dense evaluated every (address, port) pair at least once;
            // sparse touched only the populated hosts.
            let probes_sent = dense_telemetry.counter("stage1.probes_sent");
            let (sparse_t, dense_t) = (sparse_t.inner(), dense_t.inner());
            assert!(dense_t.stats().probes() >= probes_sent);
            assert!(sparse_t.stats().probes() < dense_t.stats().probes() / 10);
            if fault_rate == 0.0 {
                let populated = sparse_t.universe().host_count() as u64 * SCAN_PORTS.len() as u64;
                assert_eq!(sparse_t.stats().probes(), populated);
            }
        }
    }

    /// A kill switch's transport names no live addresses, so a sweep
    /// through it is the dense loop: one operation per (address, port)
    /// pair, however sparse the universe — the count the kill-and-resume
    /// budgets assume. A sweep the budget cannot cover dies partway,
    /// having spent what was left.
    #[test]
    fn sweeps_through_a_kill_switch_charge_dense_ops() {
        let switch = KillSwitch::after(600);
        let t = KillableTransport::new(sim(), switch.clone());
        let cfg = PipelineConfig {
            ports: vec![80, 443],
            ..PipelineConfig::new(vec!["20.0.1.0/24".parse().unwrap()])
        };
        let scan = || sweep(&cfg, &Telemetry::new(), &t, &shuffled_blocks(&cfg), None);
        scan();
        assert_eq!(switch.used(), 512, "256 addresses on 2 ports");
        assert!(!switch.is_tripped());

        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(scan));
        assert!(died.unwrap_err().is::<Killed>());
        assert_eq!(switch.used(), 600, "the last 88 ops were spent first");
        assert!(switch.is_tripped());
    }

    /// A block larger than /24 that straddles a reserved range is swept
    /// /24 by /24, like the dense loop skipping reserved addresses.
    #[test]
    fn oversized_blocks_straddling_reserved_space_match_the_dense_reference() {
        let block: Cidr = "192.0.0.0/22".parse().unwrap(); // holds 192.0.0.0/24 and 192.0.2.0/24
        let (sparse, dense) = sparse_and_dense(&PipelineConfig::new(vec![block]), block);
        assert_eq!(sparse.1.counter("stage1.addresses_probed"), 512);
        assert_eq!(sparse.0, dense.0);
        assert_eq!(sparse.1, dense.1);
    }

    /// 192.0.0.0/22 lies in a first octet that is neither clear nor
    /// reserved: `192.0.0.0/24` and `192.0.2.0/24` are excluded, the
    /// other two /24s are not.
    #[test]
    fn a_target_inside_a_mixed_octet_sweeps_only_its_unreserved_blocks() {
        let target: Cidr = "192.0.0.0/22".parse().unwrap();
        let config = PipelineConfig::new(vec![target]);
        let (_, snap) = scan_counted(config.clone(), &sim());
        assert_eq!(snap.counter("stage1.addresses_probed"), 512);
        assert_eq!(snap.counter("stage1.blocks_swept"), 4);
        for block in target.slash24_blocks() {
            let (sparse, dense) = sparse_and_dense(&config, block);
            assert_eq!(sparse.0, dense.0, "{block}");
            assert_eq!(sparse.1, dense.1, "{block}");
        }

        let config = PipelineConfig {
            exclude_reserved: false,
            ..PipelineConfig::new(vec![target])
        };
        let (_, snap) = scan_counted(config, &sim());
        assert_eq!(snap.counter("stage1.addresses_probed"), 1024);
    }

    /// The sweep meets every level of the exclusion tree: each mixed
    /// first octet, swept over empty space, probes exactly the
    /// addresses its ranges leave, and the /23 and /22 around each /24
    /// reserved at the third level sweep as the dense reference does.
    #[test]
    fn every_mixed_octet_sweeps_exactly_its_unreserved_addresses() {
        let ranges = ReservedRanges::iana().ranges();
        let mut mixed: Vec<u8> = (ranges.iter())
            .filter(|range| range.prefix > 8)
            .map(|range| range.first().octets()[0])
            .collect();
        mixed.dedup();
        assert_eq!(mixed, [100, 169, 172, 192, 198, 203]);
        for octet in mixed {
            let target = Cidr::new(Ipv4Addr::new(octet, 0, 0, 0), 8);
            let excluded: u64 = (ranges.iter())
                .filter(|range| target.contains(range.first()))
                .map(Cidr::size)
                .sum();
            let (_, snap) = scan_counted(PipelineConfig::new(vec![target]), &sim());
            let probed = snap.counter("stage1.addresses_probed");
            assert_eq!(probed, (1 << 24) - excluded, "{target}");
        }

        for reserved in ["192.0.2.0", "198.51.100.0", "203.0.113.0"] {
            for prefix in [23, 22] {
                let block = Cidr::new(reserved.parse().unwrap(), prefix);
                let (sparse, dense) = sparse_and_dense(&PipelineConfig::new(vec![block]), block);
                assert!(
                    sparse.1.counter("stage1.addresses_probed") < block.size(),
                    "{block}"
                );
                assert_eq!(sparse.0, dense.0, "{block}");
                assert_eq!(sparse.1, dense.1, "{block}");
            }
        }
    }

    /// Stage I's counters are what the sweep found: one open counter per
    /// configured port, registered whether or not it fires, summing to
    /// the endpoints returned.
    #[test]
    fn sweep_telemetry_matches_results() {
        let t = sim();
        let (open, snap) = scan_counted(config_for_tiny(), &t);
        assert_eq!(snap.counter("stage1.blocks_swept"), 256);
        assert_eq!(snap.counter("stage1.addresses_probed"), 65_536);
        assert_eq!(snap.counter("stage1.probes_sent"), 65_536 * 12);
        let family = (snap.counters.keys())
            .filter(|k| k.starts_with("stage1.ports_open."))
            .count();
        assert_eq!(family, SCAN_PORTS.len());
        for port in SCAN_PORTS {
            let name = format!("stage1.ports_open.{port}");
            let found = open.iter().filter(|ep| ep.port == port).count() as u64;
            assert_eq!(snap.counter(&name), found, "{name}");
        }
        assert_eq!(snap.prefixed_total("stage1.ports_open."), open.len() as u64);
        assert!(!snap.counters.contains_key("stage1.ports_open"));
    }

    #[test]
    fn by_host_groups_ports() {
        let t = sim();
        let (open, _) = scan_counted(config_for_tiny(), &t);
        let by_host = by_host(&open);
        // Tarpit hosts have all 12 ports open.
        let tarpits = by_host.values().filter(|ports| ports.len() == 12).count();
        assert_eq!(tarpits as u64, 5, "tiny universe has 5 tarpits");
    }
}
