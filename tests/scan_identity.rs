//! The scan engine's identity claims, observed rather than asserted in
//! prose: a fixed seed yields a byte-identical `ScanReport` *and*
//! telemetry snapshot at any shard count, with or without injected
//! transport faults — whichever worker thread the cursor hands a batch
//! to, and in whatever order the batches are scanned and filed in the
//! ledger.
//!
//! One small orthogonal set on the one engine: shards ∈ {1, 4} ×
//! fault rate ∈ {0, 0.05 with three attempts}; the kill/resume half
//! lives in `checkpoint_resume.rs`, the sweep's dense reference
//! in `nokeys_scanner::portscan`'s unit tests.
//!
//! Fault-injected runs deliberately skip the `fault.*` observer bridge:
//! bridged counters live in the caller's registry, outside the engine.

use nokeys::http::cases::{check, Gen};
use nokeys::http::{Attempt, Client, Endpoint, ProbeOutcome, Scheme, Transport};
use nokeys::netsim::{Cidr, FaultPlan, FaultyTransport, SimTransport, Universe, UniverseConfig};
use nokeys::scanner::shard::{scan_batch, Ledger};
use nokeys::scanner::{
    Pipeline, PipelineConfig, PortScanner, ScanReport, Telemetry, TelemetrySnapshot,
};
use std::collections::HashSet;
use std::sync::{Arc, Condvar, Mutex, OnceLock};

fn universe() -> &'static Arc<Universe> {
    static UNIVERSE: OnceLock<Arc<Universe>> = OnceLock::new();
    UNIVERSE.get_or_init(|| Arc::new(Universe::generate(UniverseConfig::tiny(42))))
}

fn space() -> Cidr {
    universe().config().space
}

/// 20.0.0.0/16 is 256 /24 blocks; 8 per batch makes 32 batches, eight
/// or so for each of four workers.
fn config(shards: usize) -> PipelineConfig {
    PipelineConfig {
        blocks_per_batch: 8,
        shards,
        max_attempts: 3,
        ..PipelineConfig::new(vec![space()])
    }
}

fn transport(fault_rate: f64) -> FaultyTransport<SimTransport> {
    FaultyTransport::new(
        SimTransport::new(Arc::clone(universe())),
        FaultPlan::new(fault_rate, 0xfa17_5eed),
    )
}

fn run(shards: usize, fault_rate: f64) -> (ScanReport, TelemetrySnapshot) {
    let telemetry = Telemetry::new();
    let pipeline = Pipeline::new(config(shards), &telemetry);
    let report = pipeline
        .run(&Client::new(transport(fault_rate)))
        .expect("scan failed");
    (report, telemetry.snapshot())
}

#[test]
fn report_and_telemetry_are_byte_identical_across_shards_and_faults() {
    let mut clean_retries = 0;
    for fault_rate in [0.0, 0.05] {
        let (baseline, baseline_snap) = run(1, fault_rate);
        let (sharded, sharded_snap) = run(4, fault_rate);
        assert_eq!(
            baseline.to_json_string(),
            sharded.to_json_string(),
            "report diverged at 4 shards, faults {fault_rate}"
        );
        assert_eq!(
            baseline_snap.to_json(),
            sharded_snap.to_json(),
            "telemetry diverged at 4 shards, faults {fault_rate}"
        );
        // The comparison means something: every address was probed on
        // every port exactly once, the scan found hosts, and the fault
        // runs really exercised the retry layer.
        assert_eq!(sharded.probes_sent, 65_536 * 12);
        assert!(baseline.total_mavs() > 0);
        let retries = baseline_snap.prefixed_total("retry.");
        if fault_rate == 0.0 {
            clean_retries = retries;
        } else {
            assert!(retries > clean_retries, "no fault was ever retried");
        }
    }
}

/// The matcher reads every body in place and copies none, so the one
/// `stage2.multipattern.*` counter is the bodies it read: there is no
/// view, no view byte and no arena growth to count. Nothing counts
/// allocations either; the `alloc.*` family left with the header arena.
#[test]
fn multipattern_counts_only_the_bodies_it_reads() {
    let (_, snap) = run(4, 0.0);
    assert!(snap.counter("stage2.multipattern.bodies") > 0);
    let families = |prefix: &str| -> Vec<&str> {
        snap.counters
            .keys()
            .filter(|k| k.starts_with(prefix))
            .map(String::as_str)
            .collect()
    };
    assert_eq!(
        families("stage2.multipattern."),
        ["stage2.multipattern.bodies"]
    );
    assert!(families("alloc.").is_empty());
}

/// A transport that blocks the very first block of the shuffled sweep
/// order until every block of every *other* batch has begun its sweep
/// (the scanner asks for a block's live addresses as it starts it). The
/// worker that drew batch 0 is stuck in it, so the run can only
/// complete if a stalled worker holds back nothing but the batch it is
/// running — the other three must drain batches 1..32 from the cursor
/// between them. The interleaving is forced with a condition variable,
/// not a sleep.
#[derive(Clone)]
struct StallTransport {
    inner: SimTransport,
    /// The block whose sweep stalls (first block of batch 0).
    target: Cidr,
    /// Block bases whose sweep must begin before the stall releases: every
    /// block of batches 1.. (batch 0's own later blocks sit *behind*
    /// the stalled sweep, so requiring them would deadlock).
    required: Arc<(Mutex<HashSet<u32>>, Condvar)>,
}

impl Transport for StallTransport {
    type Conn = <SimTransport as Transport>::Conn;

    fn probe(&self, ep: Endpoint, attempt: Attempt<'_>) -> ProbeOutcome {
        self.inner.probe(ep, attempt)
    }

    fn connect(
        &self,
        ep: Endpoint,
        scheme: Scheme,
        attempt: Attempt<'_>,
    ) -> nokeys::http::Result<Self::Conn> {
        self.inner.connect(ep, scheme, attempt)
    }

    /// Called once per block, as its sweep starts.
    fn live_addresses(&self, block: Cidr) -> Option<&[u32]> {
        let (required, released) = &*self.required;
        let mut left = required.lock().expect("stall lock");
        if block == self.target {
            drop(
                released
                    .wait_while(left, |left| !left.is_empty())
                    .expect("stall lock"),
            );
        } else {
            left.remove(&block.base);
            if left.is_empty() {
                released.notify_all();
            }
        }
        self.inner.live_addresses(block)
    }
}

#[test]
fn stalled_worker_holds_back_one_batch_and_output_unchanged() {
    let (baseline, baseline_snap) = run(1, 0.0);

    let telemetry = Telemetry::new();
    // The sweep order is the seeded shuffle, identical in every run.
    let shuffle = PortScanner::new(&config(4)).shuffled_blocks();
    assert_eq!(shuffle.len(), 256);
    let stalled = StallTransport {
        inner: SimTransport::new(Arc::clone(universe())),
        target: shuffle[0],
        required: Arc::new((
            Mutex::new(shuffle[8..].iter().map(|b| b.base).collect()),
            Condvar::new(),
        )),
    };
    let report = Pipeline::new(config(4), &telemetry)
        .run(&Client::new(stalled))
        .expect("scan failed");

    assert_eq!(
        baseline.to_json_string(),
        report.to_json_string(),
        "a stalled worker changed the report"
    );
    assert_eq!(
        baseline_snap.to_json(),
        telemetry.snapshot().to_json(),
        "a stalled worker changed the telemetry"
    );
}

/// Fisher–Yates on a property case's own stream.
fn shuffle<T>(g: &mut Gen, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, g.index(0..i + 1));
    }
}

/// The ledger is order-independent: the 32 batches scanned in one
/// random order and filed in another reconstruct the single-worker
/// bytes.
#[test]
fn ledger_is_order_independent() {
    let (baseline, baseline_snap) = run(1, 0.05);
    let config = config(1);
    check(4, |g| {
        let client = Client::new(transport(0.05));
        let mut order: Vec<u64> = (0..32).collect();
        shuffle(g, &mut order);
        let mut batches: Vec<_> = order
            .iter()
            .map(|&seq| (seq, scan_batch(&config, &client, seq)))
            .collect();
        shuffle(g, &mut batches);
        let mut ledger = Ledger::new(32);
        for (seq, (findings, work)) in batches {
            ledger.file(seq, findings, &work).expect("no log to fail");
        }
        let telemetry = Telemetry::new();
        let report = ledger.finish(&telemetry).expect("every batch filed");
        assert_eq!(baseline.to_json_string(), report.to_json_string());
        assert_eq!(baseline_snap.to_json(), telemetry.snapshot().to_json());
    });
}
