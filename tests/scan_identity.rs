//! The scan engine's identity claims, observed rather than asserted in
//! prose: a fixed seed yields a byte-identical `ScanReport` *and*
//! telemetry snapshot at any shard count, with or without injected
//! transport faults — whichever worker thread the cursor hands a batch
//! to, and in whatever order the batches are scanned and filed in the
//! ledger.
//!
//! One small orthogonal set on the one engine: shards ∈ {1, 4} ×
//! fault rate ∈ {0, 0.05 with three attempts}, and the checkpoint log
//! line by line at shards 1, 2 and 4; the kill/resume half lives in
//! `checkpoint_resume.rs`, the sweep's dense reference in
//! `nokeys_scanner::portscan`'s unit tests.
//!
//! Fault-injected runs deliberately skip the `fault.*` observer bridge:
//! bridged counters live in the caller's registry, outside the engine.

use nokeys::http::cases::{check, Gen};
use nokeys::http::{Attempt, Endpoint, ProbeOutcome, Scheme, Transport};
use nokeys::netsim::{Cidr, FaultPlan, FaultyTransport, SimTransport, Universe, UniverseConfig};
use nokeys::scanner::json;
use nokeys::scanner::portscan::shuffled_blocks;
use nokeys::scanner::shard::{scan_batch, Ledger};
use nokeys::scanner::{
    CheckpointLog, Pipeline, PipelineConfig, ScanReport, Telemetry, TelemetrySnapshot,
};
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
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
    let report = pipeline.run(&transport(fault_rate)).expect("scan failed");
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
    let shuffle = shuffled_blocks(&config(4));
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
        .run(&stalled)
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
        let faulty = transport(0.05);
        let mut order: Vec<u64> = (0..32).collect();
        shuffle(g, &mut order);
        let mut batches: Vec<_> = order
            .iter()
            .map(|&seq| (seq, scan_batch(&config, &faulty, seq)))
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

/// A checkpoint log as the identity reads it: its header, then each
/// batch line by its `seq`. Append order is completion order, so the
/// file's bytes are not compared, only its lines.
type Log = (String, BTreeMap<u64, String>);

fn log_lines(path: &Path) -> Log {
    let text = std::fs::read_to_string(path).expect("the scan wrote its log");
    let mut lines = text.lines().map(str::to_string);
    let header = lines.next().expect("a header");
    let batches = lines
        .map(|line| {
            let seq = json::parse(line.as_bytes())
                .and_then(|batch| batch.field("seq"))
                .expect("a batch line");
            (seq, line)
        })
        .collect();
    (header, batches)
}

/// Hold log `b` to log `a`, naming the first batch whose line differs.
fn assert_same_log(a: &Log, b: &Log, what: &str) {
    assert_eq!(a.0, b.0, "{what}: headers differ");
    assert_eq!(
        a.1.keys().collect::<Vec<_>>(),
        b.1.keys().collect::<Vec<_>>(),
        "{what}: logged batches differ"
    );
    for (seq, line) in &a.1 {
        assert_eq!(line, &b.1[seq], "{what}: batch {seq} differs");
    }
}

/// Scan at `shards` with a checkpoint log at `log`, starting it afresh
/// or resuming it.
fn scan_logged(shards: usize, fault_rate: f64, log: &Path, resume: bool) {
    let config = PipelineConfig {
        checkpoint_path: Some(log.to_path_buf()),
        ..config(shards)
    };
    let pipeline = Pipeline::new(config, &Telemetry::new());
    let faulty = transport(fault_rate);
    let scanned = if resume {
        pipeline.resume(&faulty)
    } else {
        pipeline.run(&faulty)
    };
    scanned.expect("scan failed");
}

/// A batch line is a function of the batch alone: the logs written at
/// 1, 2 and 4 shards hold the same lines, a log torn mid-write and
/// resumed at another shard count ends with them too, and each is the
/// line batch `k` makes when it is scanned by itself — with and without
/// injected faults.
#[test]
fn checkpoint_logs_are_a_function_of_their_batches() {
    let dir = std::env::temp_dir().join(format!("nokeys-log-identity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for fault_rate in [0.0, 0.05] {
        let logs: Vec<_> = [1, 2, 4]
            .into_iter()
            .map(|shards| {
                let path = dir.join(format!("shards{shards}.ckpt"));
                scan_logged(shards, fault_rate, &path, false);
                (shards, path)
            })
            .collect();
        let baseline = log_lines(&logs[0].1);
        assert_eq!(baseline.1.len(), 32);
        for (shards, path) in &logs[1..] {
            let what = format!("{shards} shards, faults {fault_rate}");
            assert_same_log(&baseline, &log_lines(path), &what);
        }

        let torn = &logs[2].1;
        let len = std::fs::metadata(torn).expect("log metadata").len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(torn)
            .and_then(|file| file.set_len(len - 100))
            .expect("tear the log");
        scan_logged(1, fault_rate, torn, true);
        let what = format!("torn at 4 shards, resumed at 1, faults {fault_rate}");
        assert_same_log(&baseline, &log_lines(torn), &what);

        let config = config(1);
        let faulty = transport(fault_rate);
        let alone = dir.join("alone.ckpt");
        for seq in 0..32 {
            let (findings, work) = scan_batch(&config, &faulty, seq);
            let mut log =
                CheckpointLog::create(&alone, &config.fingerprint(), 32).expect("creates");
            log.append(seq, &findings, &work).expect("appends");
            let (header, batches) = log_lines(&alone);
            assert_eq!(header, baseline.0);
            assert_eq!(
                batches[&seq], baseline.1[&seq],
                "batch {seq} scanned alone, faults {fault_rate}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
