//! The scan engine: worker threads drawing batches from one cursor and
//! filing them in one ledger.
//!
//! Every scan — [`Pipeline::run`](crate::pipeline::Pipeline::run),
//! [`resume`](crate::pipeline::Pipeline::resume), at any shard count —
//! runs through `run_sharded`. The deterministic batch sequence (the
//! seeded /24 shuffle chunked by
//! [`blocks_per_batch`](crate::pipeline::PipelineConfig::blocks_per_batch))
//! is numbered `0..total_batches`;
//! [`PipelineConfig::shards`](crate::pipeline::PipelineConfig::shards)
//! OS threads (`std::thread::scope`) each take the next unscanned batch
//! number from a shared atomic cursor, sweep and verify that batch, and
//! file its result in the [`Ledger`] — until the cursor runs off the
//! end. The finished ledger — its findings in batch order and one
//! snapshot of its batches' telemetry, which every report number is
//! read off — is the [`ScanReport`] and the telemetry snapshot,
//! byte-identical at any shard count, one included. Shard workers *are*
//! the scan's parallelism: inside a worker everything is a plain
//! sequential loop.
//!
//! # The cursor
//!
//! `todo` lists the batches the ledger lacks (all of them on a fresh
//! run, the gaps on a resume) and a worker's whole scheduling step is
//! `todo[cursor.fetch_add(1)]`. The seeded shuffle makes every batch
//! statistically the same work, so handing them out one at a time keeps
//! the workers within one batch of each other by construction: a slow
//! or stalled worker holds back only the batch it is running. There is
//! nothing to plan, split or rebalance, and batches a worker ends up
//! with need not be contiguous.
//!
//! # Why the ledger is order-independent
//!
//! A batch is its findings and its telemetry, and each is either
//! **keyed by batch sequence** or an **order-free sum**:
//!
//! * Findings are ordered by stage-I batch sequence, and each batch is
//!   processed entirely by one worker — so concatenating the ledger's
//!   per-batch findings in key order reconstructs the single-worker
//!   findings order exactly, whichever worker filed which batch when.
//! * Telemetry snapshots are sums (counters add, histogram buckets
//!   add). A worker records into a private staging registry and
//!   empties it after every batch ([`Telemetry::take`]), so what it
//!   files is that batch's work alone, and absorbing the batches in
//!   *any* order yields the single-worker registry. Every count in the
//!   [`ScanReport`] — Table 2's per-port rows, the exclusions, the
//!   stage funnel — is read off that registry once, when the ledger
//!   finishes (`ScanReport::from_telemetry`), so no count is kept
//!   twice.
//! * Fault injection draws each fate as a pure function of `(lane,
//!   endpoint, instant, request target, try)`: no draw depends on which
//!   worker, batch or process made it, or on what ran before — so
//!   fault-injected replays shard and resume exactly, too. Each worker
//!   has its transport report injected faults
//!   ([`Transport::report_faults_to`]) to its staging registry as
//!   `fault.<lane>.injected`, so a logged batch carries its faults.
//!
//! Which worker runs which batch is timing-dependent, so nothing about
//! scheduling ever enters a report or the telemetry registry.
//!
//! # Checkpoints
//!
//! With a checkpoint path configured the ledger has a
//! [`CheckpointLog`] behind it: filing a batch first appends it to the
//! log — one line, one write — and only then records it in memory, both
//! under the ledger's lock. No network operation ever happens under
//! that lock, so a worker dying mid-batch cannot poison it, and a kill
//! loses exactly the batches in flight. Resume reads the log back into
//! the ledger and scans what is missing, appending to the same file;
//! a finished scan is a log that holds every batch, so resuming it
//! scans nothing. The shard count is not part of
//! [`PipelineConfig::fingerprint`], so a log written at `--shards 4`
//! resumes at `--shards 8` (or 1).

use crate::checkpoint::CheckpointLog;
use crate::pipeline::{BatchProcessor, PipelineConfig, PipelineError};
use crate::portscan::{Cidr, PortScanner};
use crate::rate::SharedPacer;
use crate::report::{HostFinding, ScanReport};
use crate::retry::RetryTransport;
use crate::telemetry::{Telemetry, TelemetrySnapshot};
use nokeys_http::{Client, FaultLane, Transport};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The scan's one piece of shared state: every finished batch's
/// findings by batch sequence number, plus one registry holding the
/// telemetry of exactly those batches.
#[derive(Debug)]
pub struct Ledger {
    total_batches: u64,
    findings: BTreeMap<u64, Vec<HostFinding>>,
    telemetry: Telemetry,
    /// Where filed batches are persisted first, when checkpointing.
    log: Option<CheckpointLog>,
}

impl Ledger {
    /// An empty ledger for a scan of `total_batches` batches.
    pub fn new(total_batches: u64) -> Self {
        Ledger {
            total_batches,
            findings: BTreeMap::new(),
            telemetry: Telemetry::new(),
            log: None,
        }
    }

    /// File finished batch `seq`: its findings and the telemetry of the
    /// work it took. Batches may arrive in any order. With a log
    /// attached the batch is appended there before it counts as filed.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range or already filed — the cursor
    /// hands every batch out once, so either is an engine bug.
    pub fn file(
        &mut self,
        seq: u64,
        findings: Vec<HostFinding>,
        telemetry: &TelemetrySnapshot,
    ) -> Result<(), PipelineError> {
        assert!(seq < self.total_batches, "batch {seq} is out of range");
        assert!(!self.findings.contains_key(&seq), "batch {seq} filed twice");
        if let Some(log) = &mut self.log {
            log.append(seq, &findings, telemetry)?;
        }
        self.record(seq, findings, telemetry);
        Ok(())
    }

    fn record(&mut self, seq: u64, findings: Vec<HostFinding>, telemetry: &TelemetrySnapshot) {
        self.telemetry.absorb(telemetry);
        self.findings.insert(seq, findings);
    }

    /// The batches not filed yet, ascending.
    fn missing(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.total_batches).filter(|seq| !self.findings.contains_key(seq))
    }

    /// The whole reducer: the findings in batch order and the counts
    /// of the ledger's own registry make the report, and that registry
    /// is handed to `telemetry`. The report reads nothing from
    /// `telemetry`, which may hold other work too. Fails, naming the
    /// first gap, unless every batch has been filed.
    pub fn finish(self, telemetry: &Telemetry) -> Result<ScanReport, PipelineError> {
        if let Some(seq) = self.missing().next() {
            return Err(PipelineError::SweepFailed(format!(
                "batch {seq} of {} was never scanned",
                self.total_batches
            )));
        }
        let work = self.telemetry.snapshot();
        telemetry.absorb(&work);
        let findings = self.findings.into_values().flatten().collect();
        Ok(ScanReport::from_telemetry(findings, &work))
    }
}

/// One worker's private pipeline: a staged scanner, retry transport and
/// batch processor all recording into a worker-private telemetry
/// registry, sweeping slices of the shared shuffled block list.
struct BatchRunner<'a, T: Transport + Clone> {
    staging: Telemetry,
    scanner: PortScanner,
    processor: BatchProcessor,
    client: Client<RetryTransport<T>>,
    blocks: &'a [Cidr],
    blocks_per_batch: usize,
    /// Shared across all workers so `--max-probes-per-sec` stays a
    /// whole-scan bound, not a per-shard one.
    pacer: Option<SharedPacer>,
}

impl<'a, T: Transport + Clone> BatchRunner<'a, T> {
    fn new(
        config: &PipelineConfig,
        client: &Client<T>,
        blocks: &'a [Cidr],
        pacer: Option<SharedPacer>,
    ) -> Self {
        let staging = Telemetry::new();
        let scanner = PortScanner::with_telemetry(config, &staging);
        let processor = BatchProcessor::new(config, &staging);
        // A fault counts in the batch that drew it, so a checkpoint logs
        // it with the batch's other counters.
        let faults = staging.clone();
        let mut transport = client.transport().clone();
        transport.report_faults_to(Arc::new(move |lane| {
            let name = match lane {
                FaultLane::Probe => "fault.probe.injected",
                FaultLane::Connect => "fault.connect.injected",
            };
            faults.counter(name).incr();
        }));
        let client = client.with_transport(RetryTransport::new(
            transport,
            config.max_attempts,
            config.backoff_unit,
            &staging,
        ));
        BatchRunner {
            staging,
            scanner,
            processor,
            client,
            blocks,
            blocks_per_batch: config.blocks_per_batch,
            pacer,
        }
    }

    /// Sweep and process batch `seq`; returns its findings and the
    /// telemetry it recorded, leaving the staging registry empty for
    /// the next batch.
    fn run_batch(&mut self, seq: u64) -> (Vec<HostFinding>, TelemetrySnapshot) {
        let blocks = self
            .blocks
            .chunks(self.blocks_per_batch)
            .nth(seq as usize)
            .expect("batch sequence number in range");
        let open = self
            .scanner
            .scan_blocks(self.client.transport(), blocks, &self.pacer);
        let findings = self.processor.process_batch(&self.client, &open);
        (findings, self.staging.take())
    }
}

/// The seeded /24 shuffle and the whole-scan pacer of `config`.
fn plan(config: &PipelineConfig) -> (Vec<Cidr>, Option<SharedPacer>) {
    // Throwaway registry: this scanner only computes the shuffle and
    // the shared pacer. Workers sweep with their own staged scanners.
    let planner = PortScanner::new(config);
    (planner.shuffled_blocks(), planner.pacer())
}

/// Scan batch `seq` of `config`'s batch sequence with a fresh worker,
/// exactly as a shard worker would. Public so tests can scan batches
/// and [`Ledger::file`] them in arbitrary orders.
pub fn scan_batch<T: Transport + Clone>(
    config: &PipelineConfig,
    client: &Client<T>,
    seq: u64,
) -> (Vec<HostFinding>, TelemetrySnapshot) {
    let (blocks, pacer) = plan(config);
    BatchRunner::new(config, client, &blocks, pacer).run_batch(seq)
}

/// Why a worker thread ended without returning.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("no message")
}

/// The scan engine behind [`Pipeline::run`] and [`Pipeline::resume`].
///
/// With a checkpoint path configured, `resume` selects whether the log
/// already there is read back or truncated.
///
/// [`Pipeline::run`]: crate::pipeline::Pipeline::run
/// [`Pipeline::resume`]: crate::pipeline::Pipeline::resume
pub(crate) fn run_sharded<T: Transport + Clone>(
    config: &PipelineConfig,
    telemetry: &Telemetry,
    client: &Client<T>,
    resume: bool,
) -> Result<ScanReport, PipelineError> {
    let (blocks, pacer) = plan(config);
    let total_batches = blocks.chunks(config.blocks_per_batch).len() as u64;

    let mut ledger = Ledger::new(total_batches);
    if let Some(path) = &config.checkpoint_path {
        let fingerprint = config.fingerprint();
        ledger.log = Some(if resume {
            let (log, batches) = CheckpointLog::resume(path, &fingerprint, total_batches)?;
            for (seq, (findings, work)) in batches {
                ledger.record(seq, findings, &work);
            }
            log
        } else {
            CheckpointLog::create(path, &fingerprint, total_batches)?
        });
    }

    let todo: Vec<u64> = ledger.missing().collect();
    let cursor = AtomicUsize::new(0);
    let ledger = Mutex::new(ledger);
    // Scoped threads: the scan cannot return (or unwind) past this
    // block while a worker is still sweeping or appending to the log.
    // A worker that panics is reported, not propagated: the others
    // finish (and log) every batch it had not started.
    let outcomes: Vec<Result<(), PipelineError>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..config.shards.min(todo.len()))
            .map(|_| {
                let mut runner = BatchRunner::new(config, client, &blocks, pacer.clone());
                let (todo, cursor, ledger) = (&todo, &cursor, &ledger);
                scope.spawn(move || {
                    while let Some(&seq) = todo.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                        let (findings, work) = runner.run_batch(seq);
                        ledger
                            .lock()
                            .expect("no worker panics while filing")
                            .file(seq, findings, &work)?;
                    }
                    Ok(())
                })
            })
            .collect();
        workers
            .into_iter()
            .enumerate()
            .map(|(worker, handle)| {
                handle.join().unwrap_or_else(|payload| {
                    Err(PipelineError::SweepFailed(format!(
                        "shard worker {worker} panicked: {}",
                        panic_message(payload.as_ref())
                    )))
                })
            })
            .collect()
    });
    outcomes.into_iter().collect::<Result<(), _>>()?;
    ledger
        .into_inner()
        .expect("no worker panics while filing")
        .finish(telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nokeys_apps::AppId;
    use nokeys_http::{Endpoint, Scheme};
    use std::net::Ipv4Addr;

    /// Batch `seq`: one finding at an address ending in `seq`, and
    /// `probes` probes sent.
    fn batch(seq: u64, probes: u64) -> (Vec<HostFinding>, TelemetrySnapshot) {
        let finding = HostFinding {
            endpoint: Endpoint::new(Ipv4Addr::new(20, 0, 0, seq as u8), 80),
            scheme: Scheme::Http,
            app: AppId::Docker,
            vulnerable: false,
            version: None,
            fingerprint_method: None,
        };
        let telemetry = Telemetry::new();
        telemetry.counter("stage1.probes_sent").add(probes);
        (vec![finding], telemetry.snapshot())
    }

    #[test]
    fn ledger_reduces_in_batch_order_whatever_the_filing_order() {
        let mut ledger = Ledger::new(3);
        assert_eq!(ledger.missing().collect::<Vec<_>>(), [0, 1, 2]);
        for seq in [2, 0, 1] {
            let (findings, telemetry) = batch(seq, 10 + seq);
            ledger
                .file(seq, findings, &telemetry)
                .expect("no log to fail");
        }
        assert_eq!(ledger.missing().next(), None);
        // The caller's registry may already hold other work: the report
        // counts only the ledger's batches, the registry gets them added.
        let telemetry = Telemetry::new();
        telemetry.counter("stage1.probes_sent").add(1000);
        let report = ledger.finish(&telemetry).expect("every batch filed");
        assert_eq!(report.probes_sent, 33);
        assert_eq!(telemetry.snapshot().counter("stage1.probes_sent"), 1033);
        let order: Vec<u8> = (report.findings.iter())
            .map(|f| f.endpoint.ip.octets()[3])
            .collect();
        assert_eq!(order, [0, 1, 2]);
    }

    #[test]
    fn finish_names_the_batch_never_scanned() {
        let mut ledger = Ledger::new(4);
        for seq in [0, 1, 3] {
            let (findings, telemetry) = batch(seq, 1);
            ledger
                .file(seq, findings, &telemetry)
                .expect("no log to fail");
        }
        let err = ledger.finish(&Telemetry::new()).unwrap_err();
        assert_eq!(
            err,
            PipelineError::SweepFailed("batch 2 of 4 was never scanned".into())
        );
    }

    #[test]
    #[should_panic(expected = "batch 1 filed twice")]
    fn filing_a_batch_twice_is_a_bug() {
        let mut ledger = Ledger::new(2);
        for _ in 0..2 {
            let (findings, telemetry) = batch(1, 1);
            let _ = ledger.file(1, findings, &telemetry);
        }
    }
}
