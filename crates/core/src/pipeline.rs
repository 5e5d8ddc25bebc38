//! The full three-stage pipeline.
//!
//! Orchestrates stage I (port scan), artifact exclusion ("3.0M hosts that
//! appeared to always have all ports open ... we excluded them"), stage
//! II (prefilter), stage III (MAV plugins) and version fingerprinting
//! into a single [`ScanReport`].
//!
//! # Configuration
//!
//! A scan is configured one way: a [`PipelineConfig`] with public
//! fields, [`PipelineConfig::new`] for the paper's settings and
//! struct-update syntax for the rest. [`PipelineConfig::fingerprint`]
//! is the one list of the fields that define a batch, and is what a
//! checkpoint records; [`Pipeline::new`] normalizes the struct once.
//!
//! # Execution model
//!
//! A scan has exactly one way to run: the [`shard`](crate::shard)
//! engine. The seeded /24 shuffle is chunked into batches,
//! [`PipelineConfig::shards`] worker threads draw batch numbers from
//! one shared cursor, and each worker takes its batch through all
//! three stages — sweep it, prefilter its open endpoints, verify and
//! fingerprint its hits — as a plain sequential loop
//! (`BatchProcessor`) before filing the result in the batch ledger.
//! `shards = 1` is the same engine with one worker. Batches stay small ("we always selected and scanned a
//! fraction of all hosts with our full pipeline before we continued"),
//! which is the paper's answer to scan-vs-verify staleness.
//!
//! # Determinism
//!
//! Concurrency never changes the report. Every batch is processed whole
//! by one worker, in endpoint and host order, its findings are joined
//! in batch-sequence order and its telemetry summed, and every report
//! count is read off that sum once, at the end — so a fixed seed
//! yields a bit-for-bit identical [`ScanReport`] and telemetry snapshot
//! at any shard count (Tables 2–4 and Figure 2 depend on this). This
//! holds with fault injection enabled too: each fault draw is a pure
//! function of `(lane, endpoint, instant, request target, try)`, never
//! of execution order, so a resumed scan draws the same fates as well.
//!
//! # Fault tolerance
//!
//! Transient network failures are retried at the transport layer: each
//! worker wraps the caller's transport in a [`RetryTransport`] allowed
//! [`PipelineConfig::max_attempts`] tries, giving stage-I probes, stage-II
//! fetches, stage-III plugin requests and the fingerprinter a shared
//! seeded retry/backoff budget (the analogue of masscan's SYN
//! retransmits and the paper's §3.5 rescans). A host that stays
//! unreachable after the budget simply goes missing from the findings,
//! like one lost to the network; only the loss of a whole worker
//! surfaces as a [`PipelineError`].
//!
//! [`RetryTransport`]: crate::retry::RetryTransport

use crate::checkpoint::CheckpointError;
use crate::fingerprint::Fingerprinter;
use crate::json::{object, ToJson, Value};
use crate::plugin::verify;
use crate::portscan::{by_host, Cidr};
use crate::prefilter::{Prefilter, PrefilterHit};
use crate::report::{HostFinding, ScanReport};
use crate::scratch::Scratch;
use crate::telemetry::{Counter, Histogram, Telemetry};
use nokeys_apps::{AppId, SCAN_PORTS};
use nokeys_http::{Client, Endpoint, Transport};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::net::Ipv4Addr;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

/// A whole-pipeline failure.
///
/// Per-host and per-endpoint network problems never surface here —
/// they are retried, then the host simply goes missing from the
/// findings — so a flaky host cannot abort an internet-scale sweep.
/// Only losing a whole worker, or the checkpoint file, is an error.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PipelineError {
    /// A shard worker died, or a batch was never scanned.
    SweepFailed(String),
    /// Reading, writing or validating the checkpoint file failed.
    /// Surfaced as a whole-pipeline error because a run that cannot
    /// checkpoint does not deliver the crash-safety it was asked for.
    Checkpoint(CheckpointError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::SweepFailed(e) => write!(f, "scan failed: {e}"),
            PipelineError::Checkpoint(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<CheckpointError> for PipelineError {
    fn from(e: CheckpointError) -> Self {
        PipelineError::Checkpoint(e)
    }
}

/// Pipeline configuration: one plain struct, filled in with
/// struct-update syntax over [`PipelineConfig::new`].
///
/// The first seven fields define what batch `seq` means — which blocks
/// it sweeps, on which ports, how its hosts are judged and how often a
/// dial is tried — and are exactly what [`fingerprint`](Self::fingerprint)
/// records in a checkpoint. The last four say how the scan runs and
/// never change a report.
///
/// ```
/// use nokeys_scanner::pipeline::PipelineConfig;
///
/// let config = PipelineConfig {
///     blocks_per_batch: 16,
///     shards: 4,
///     ..PipelineConfig::new(vec!["20.0.0.0/16".parse().unwrap()])
/// };
/// assert_eq!(config.ports.len(), 12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Target blocks to sweep. [`Pipeline::new`] drops exact duplicates
    /// and blocks contained in another target and sorts the survivors
    /// by base address: aligned CIDR blocks either nest or are
    /// disjoint, so listing `10.0.0.0/16` twice, or alongside
    /// `10.0.5.0/24`, scans each address exactly once.
    pub targets: Vec<Cidr>,
    /// Ports probed by stage I (default: the paper's 12).
    /// [`Pipeline::new`] keeps a repeated port's first position only, so
    /// it can neither double the sweep nor count twice towards the
    /// tarpit threshold.
    pub ports: Vec<u16>,
    /// Seed of the stage-I /24 shuffle.
    pub seed: u64,
    /// Whether stage I skips IANA-reserved ranges (default `true`).
    pub exclude_reserved: bool,
    /// /24 blocks per batch ("we always selected and scanned a fraction
    /// of all hosts with our full pipeline before we continued").
    /// [`Pipeline::new`] rejects `0`.
    pub blocks_per_batch: usize,
    /// Hosts with at least this many open scan ports are treated as
    /// all-ports-open artifacts and excluded. `None` (the default) means
    /// every configured port, but never below 2: one open port is a
    /// host, not a tarpit.
    pub tarpit_port_threshold: Option<usize>,
    /// Total tries per network operation — probe or dial — of every
    /// stage (default 3). `0` and `1` both mean "no retries".
    pub max_attempts: u32,
    /// Number of shard workers — the scan's one concurrency setting
    /// (default 1). [`Pipeline::run`] hands the batch sequence out one
    /// batch at a time to this many worker threads and joins the
    /// per-batch findings in batch order — the report and telemetry
    /// snapshot are byte-identical at any shard count, fault injection
    /// included (see the [`shard`](crate::shard) module).
    /// [`Pipeline::new`] rejects `0`.
    pub shards: usize,
    /// Probe-rate ceiling in probes/second (token bucket); `None` scans
    /// at full speed. The paper paced its sweep to stay polite. One
    /// [`SharedPacer`](crate::rate::SharedPacer) serves every shard
    /// worker, so the ceiling bounds the whole scan, not each shard.
    pub max_probes_per_sec: Option<f64>,
    /// Wall-clock length of one virtual retry-backoff unit.
    /// `Duration::ZERO` (the default) records backoff without sleeping
    /// — right for the simulator; the real-socket CLI uses 1 ms.
    pub backoff_unit: Duration,
    /// When set, [`Pipeline::run`] appends every finished batch to the
    /// log at this path — the one file checkpointing creates — and
    /// [`Pipeline::resume`] continues from it (see
    /// [`checkpoint`](crate::checkpoint)).
    pub checkpoint_path: Option<PathBuf>,
}

impl PipelineConfig {
    /// The paper's settings over `targets`: 12 ports, the seeded
    /// shuffle, IANA exclusions, batches of 64 blocks, 3 attempts per
    /// network operation, one shard worker, no pacing.
    pub fn new(targets: Vec<Cidr>) -> Self {
        PipelineConfig {
            targets,
            ports: SCAN_PORTS.to_vec(),
            seed: 0x6e6f6b657973, // "nokeys"
            exclude_reserved: true,
            blocks_per_batch: 64,
            tarpit_port_threshold: None,
            max_attempts: 3,
            shards: 1,
            max_probes_per_sec: None,
            backoff_unit: Duration::ZERO,
            checkpoint_path: None,
        }
    }

    /// The fields that define what batch `seq` means, under the keys a
    /// checkpoint header records them: two runs with equal fingerprints
    /// sweep the same blocks in the same order with the same
    /// per-endpoint behaviour. The tarpit threshold and the attempt
    /// budget are written as resolved; the run-only fields are left
    /// out, so a scan interrupted at one shard count or rate may resume
    /// at another. Targets and ports are written as they stand: a
    /// pipeline fingerprints its config after [`Pipeline::new`] has
    /// normalized them.
    pub fn fingerprint(&self) -> Value {
        object([
            ("targets", self.targets.to_json()),
            ("ports", self.ports.to_json()),
            ("shuffle_seed", self.seed.to_json()),
            ("exclude_reserved", self.exclude_reserved.to_json()),
            ("blocks_per_batch", self.blocks_per_batch.to_json()),
            ("tarpit_port_threshold", self.tarpit_threshold().to_json()),
            ("retry_max_attempts", self.max_attempts.max(1).to_json()),
        ])
    }

    /// The open-port count at which a host is an all-ports-open
    /// artifact.
    fn tarpit_threshold(&self) -> usize {
        self.tarpit_port_threshold
            .unwrap_or(self.ports.len().max(2))
    }
}

/// Drop duplicate and nested target blocks, sorting the survivors.
///
/// Aligned CIDR blocks either nest or are disjoint — two blocks can
/// never partially overlap — so after sorting by `(base, prefix)` a
/// contained block always directly follows (one of) its containers, and
/// a single pass keeping blocks not covered by the last survivor yields
/// a minimal disjoint cover of the same addresses.
fn normalize_targets(mut targets: Vec<Cidr>) -> Vec<Cidr> {
    targets.sort_by_key(|c| (c.base, c.prefix));
    let mut out: Vec<Cidr> = Vec::with_capacity(targets.len());
    for t in targets {
        let covered = out
            .last()
            .is_some_and(|last| last.contains(t.first()) && last.contains(t.last()));
        if !covered {
            out.push(t);
        }
    }
    out
}

/// Cached pipeline-level telemetry handles (stage-level instruments live
/// in the stage components themselves).
#[derive(Debug, Clone)]
struct PipelineMetrics {
    /// `pipeline.batches` — stage-I batches processed by stages II/III.
    batches: Counter,
    /// `pipeline.tarpit_excluded` — hosts dropped as all-ports-open.
    tarpit_excluded: Counter,
    /// `pipeline.findings` — host/application findings reported.
    findings: Counter,
    /// `pipeline.mavs` — findings a stage-III plugin confirmed.
    mavs: Counter,
    /// `pipeline.open_ports_per_host` — open scan ports on responsive
    /// hosts (tarpits included, so the top bucket exposes them).
    open_ports_per_host: Histogram,
    /// `stage3.error.<class>` by [`nokeys_http::Error::class_index`]:
    /// plugin runs a failed `GET` ended, each registered on first use
    /// as stage II's are.
    errors: [OnceLock<Counter>; nokeys_http::Error::CLASSES.len()],
}

impl PipelineMetrics {
    fn new(telemetry: &Telemetry) -> Self {
        PipelineMetrics {
            batches: telemetry.counter("pipeline.batches"),
            tarpit_excluded: telemetry.counter("pipeline.tarpit_excluded"),
            findings: telemetry.counter("pipeline.findings"),
            mavs: telemetry.counter("pipeline.mavs"),
            open_ports_per_host: telemetry.histogram("pipeline.open_ports_per_host", &[1, 2, 4, 8]),
            errors: Default::default(),
        }
    }

    fn note_findings(&self, findings: &[HostFinding]) {
        self.findings.add(findings.len() as u64);
        self.mavs
            .add(findings.iter().filter(|f| f.vulnerable).count() as u64);
    }
}

/// Stages II + III for one batch of stage-I results, bound to one
/// telemetry registry: the [`shard`](crate::shard) engine runs one
/// processor per worker against that worker's private staging registry.
pub(crate) struct BatchProcessor {
    telemetry: Telemetry,
    prefilter: Prefilter,
    fingerprinter: Fingerprinter,
    metrics: PipelineMetrics,
    tarpit_port_threshold: usize,
    /// Matching and crawl buffers, reused across every endpoint and
    /// host this processor ever sees.
    scratch: Scratch,
}

/// The pipeline.
pub struct Pipeline {
    config: PipelineConfig,
    telemetry: Telemetry,
}

impl Pipeline {
    /// A pipeline over `config`, recording into `telemetry`.
    ///
    /// Normalizes the configuration once, here: targets are deduped and
    /// sorted, repeated ports dropped, and a `max_attempts` of 0 read as
    /// 1.
    ///
    /// # Panics
    ///
    /// Panics on 0 shards or 0 blocks per batch — neither can make
    /// progress, and silently clamping would hide a configuration bug.
    pub fn new(mut config: PipelineConfig, telemetry: &Telemetry) -> Self {
        assert!(config.shards > 0, "pipeline shards must be at least 1");
        assert!(config.blocks_per_batch > 0, "batch size must be positive");
        config.targets = normalize_targets(std::mem::take(&mut config.targets));
        let mut seen = BTreeSet::new();
        config.ports.retain(|port| seen.insert(*port));
        config.max_attempts = config.max_attempts.max(1);
        Pipeline {
            config,
            telemetry: telemetry.clone(),
        }
    }

    /// Run the full pipeline over the configured target space on
    /// [`PipelineConfig::shards`] worker threads; returns when every
    /// worker has finished. Each worker wraps the caller's transport in
    /// a [`RetryTransport`](crate::retry::RetryTransport), so every
    /// network operation of every stage shares
    /// [`PipelineConfig::max_attempts`].
    ///
    /// With [`PipelineConfig::checkpoint_path`] set, the run starts from
    /// scratch (truncating whatever is at that path) and logs every
    /// batch as it finishes; use [`Pipeline::resume`] to continue from
    /// such a log.
    pub fn run<T>(&self, client: &Client<T>) -> Result<ScanReport, PipelineError>
    where
        T: Transport + Clone,
    {
        crate::shard::run_sharded(&self.config, &self.telemetry, client, false)
    }

    /// Continue a checkpointed scan from the log at
    /// [`PipelineConfig::checkpoint_path`], producing a [`ScanReport`]
    /// byte-identical to what the uninterrupted run would have produced
    /// (telemetry snapshot included), at any shard count. With no path
    /// configured, or no log at it, this is [`CheckpointError::Io`].
    ///
    /// The checkpoint's recorded [`fingerprint`](PipelineConfig::fingerprint)
    /// must match this pipeline's — resuming under a different
    /// configuration returns [`CheckpointError::ConfigMismatch`]. The
    /// run-only fields may differ freely; they never change the report,
    /// so a checkpoint taken at `--shards 4` resumes at `--shards 8`
    /// (or 1). Only batches the log lacks are scanned (and appended to
    /// it); resuming a finished scan scans nothing and returns the
    /// stored report.
    ///
    /// The stored telemetry is replayed into the pipeline's registry,
    /// so resume with a **fresh (or otherwise pipeline-private)
    /// registry**: pre-existing pipeline counts would be double-counted.
    pub fn resume<T>(&self, client: &Client<T>) -> Result<ScanReport, PipelineError>
    where
        T: Transport + Clone,
    {
        if self.config.checkpoint_path.is_none() {
            return Err(CheckpointError::Io("no checkpoint path is configured".into()).into());
        }
        crate::shard::run_sharded(&self.config, &self.telemetry, client, true)
    }
}

impl BatchProcessor {
    /// Build a processor for `config`, registering the stage II/III
    /// instruments into `telemetry`.
    pub(crate) fn new(config: &PipelineConfig, telemetry: &Telemetry) -> Self {
        BatchProcessor {
            telemetry: telemetry.clone(),
            prefilter: Prefilter::with_telemetry(telemetry),
            fingerprinter: Fingerprinter::with_telemetry(telemetry),
            metrics: PipelineMetrics::new(telemetry),
            tarpit_port_threshold: config.tarpit_threshold(),
            scratch: Scratch::new(),
        }
    }

    /// Stages II + III for the open endpoints of one stage-I batch;
    /// returns the batch's findings. Everything counted along the way
    /// goes to the processor's registry.
    pub(crate) fn process_batch<T: Transport>(
        &mut self,
        client: &Client<T>,
        open: &[Endpoint],
    ) -> Vec<HostFinding> {
        self.metrics.batches.incr();

        // Exclude all-ports-open artifacts.
        let mut endpoints = Vec::new();
        for (ip, ports) in by_host(open) {
            self.metrics.open_ports_per_host.observe(ports.len() as u64);
            if ports.len() >= self.tarpit_port_threshold {
                self.metrics.tarpit_excluded.incr();
                continue;
            }
            endpoints.extend(ports.into_iter().map(|port| Endpoint::new(ip, port)));
        }

        // Stage II, in endpoint order.
        let hits = self.prefilter.run(client, &endpoints, &mut self.scratch);

        // Group hits per host: one finding per (host, application).
        let mut per_host: BTreeMap<Ipv4Addr, Vec<PrefilterHit>> = BTreeMap::new();
        for hit in hits {
            per_host.entry(hit.endpoint.ip).or_default().push(hit);
        }

        // Stage III + fingerprinting, in host order.
        let mut findings = Vec::new();
        for hits in per_host.into_values() {
            let host = self.verify_host(client, hits);
            self.metrics.note_findings(&host);
            findings.extend(host);
        }
        findings
    }

    /// Verify one host, producing one finding per *application* the host
    /// runs. An application running on several ports of the host is
    /// counted once (the paper's counting rule); distinct applications on
    /// distinct ports each count.
    fn verify_host<T: Transport>(
        &mut self,
        client: &Client<T>,
        hits: Vec<PrefilterHit>,
    ) -> Vec<HostFinding> {
        // Which endpoints does each candidate application appear on, and
        // which application is each endpoint's *strongest* match?
        let mut endpoints_of: BTreeMap<AppId, Vec<&PrefilterHit>> = BTreeMap::new();
        let mut primary_of: BTreeMap<AppId, &PrefilterHit> = BTreeMap::new();
        for hit in &hits {
            for &app in &hit.candidates {
                endpoints_of.entry(app).or_default().push(hit);
            }
            if let Some(&best) = hit.candidates.first() {
                primary_of.entry(best).or_insert(hit);
            }
        }

        let mut findings = Vec::new();
        for (app, app_hits) in endpoints_of {
            // Stage III: a MAV on any of the app's endpoints confirms it.
            let confirmed = app_hits.iter().copied().find(|hit| {
                let verdict = verify(client, app, hit.endpoint, hit.scheme);
                if let Err(error) = &verdict {
                    self.metrics.errors[error.class_index()]
                        .get_or_init(|| {
                            self.telemetry
                                .counter(&format!("stage3.error.{}", error.class()))
                        })
                        .incr();
                }
                let confirmed = verdict == Ok(true);
                // `stage3.verify.<app>.{confirmed,rejected}` register on
                // first use: a snapshot lists only outcomes that occurred.
                let outcome = if confirmed { "confirmed" } else { "rejected" };
                self.telemetry
                    .counter(&format!("stage3.verify.{app}.{outcome}"))
                    .incr();
                confirmed
            });
            // Attribute the host to this application if a plugin
            // confirmed it, or if it is the strongest match of one of
            // the host's endpoints (weak secondary matches alone do not
            // create findings).
            let hit = match (confirmed, primary_of.get(&app)) {
                (Some(hit), _) => hit,
                (None, Some(hit)) => hit,
                (None, None) => continue,
            };
            let mut finding = HostFinding {
                endpoint: hit.endpoint,
                scheme: hit.scheme,
                app,
                vulnerable: confirmed.is_some(),
                version: None,
                fingerprint_method: None,
            };
            if let Some((version, method)) = self.fingerprinter.fingerprint_with(
                client,
                app,
                hit.endpoint,
                hit.scheme,
                &mut self.scratch,
            ) {
                finding.version = Some(version);
                finding.fingerprint_method = Some(method);
            }
            findings.push(finding);
        }
        findings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nokeys_netsim::{SimTransport, Universe, UniverseConfig};
    use std::sync::Arc;

    fn tiny() -> Vec<Cidr> {
        vec!["20.0.0.0/16".parse().unwrap()]
    }

    fn run_tiny() -> (Client<SimTransport>, ScanReport) {
        let t = SimTransport::new(Arc::new(Universe::generate(UniverseConfig::tiny(42))));
        let client = Client::new(t);
        let pipeline = Pipeline::new(PipelineConfig::new(tiny()), &Telemetry::new());
        let report = pipeline.run(&client).expect("pipeline failed");
        (client, report)
    }

    /// `Pipeline::new` keeps every field as set, normalizing nothing
    /// that is already normal.
    #[test]
    fn builder_applies_every_knob() {
        let config = PipelineConfig {
            ports: vec![80, 443],
            seed: 7,
            exclude_reserved: false,
            blocks_per_batch: 16,
            tarpit_port_threshold: Some(5),
            max_attempts: 5,
            shards: 4,
            max_probes_per_sec: Some(100.0),
            backoff_unit: Duration::from_millis(1),
            checkpoint_path: Some("/tmp/nokeys-checkpoint.json".into()),
            ..PipelineConfig::new(tiny())
        };
        let kept = Pipeline::new(config.clone(), &Telemetry::new()).config;
        assert_eq!(kept, config);
        assert_eq!(kept.tarpit_threshold(), 5);
    }

    #[test]
    #[should_panic(expected = "shards must be at least 1")]
    fn builder_rejects_zero_shards() {
        let config = PipelineConfig {
            shards: 0,
            ..PipelineConfig::new(tiny())
        };
        let _ = Pipeline::new(config, &Telemetry::new());
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_blocks_per_batch_is_rejected() {
        let config = PipelineConfig {
            blocks_per_batch: 0,
            ..PipelineConfig::new(tiny())
        };
        let _ = Pipeline::new(config, &Telemetry::new());
    }

    /// Duplicate, nested and split target blocks collapse to a disjoint
    /// cover of the same addresses.
    #[test]
    fn build_normalizes_overlapping_targets() {
        let targets: Vec<Cidr> = [
            "20.0.128.0/17",
            "20.0.0.0/16",
            "20.0.0.0/17",
            "20.0.0.0/16",
            "20.0.5.0/24",
            "10.9.0.0/24",
        ]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
        let pipeline = Pipeline::new(PipelineConfig::new(targets), &Telemetry::new());
        let expect: Vec<Cidr> = ["10.9.0.0/24", "20.0.0.0/16"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        assert_eq!(pipeline.config.targets, expect);
    }

    /// Overlapping targets produce the very report their union would —
    /// no address is swept or verified twice.
    #[test]
    fn overlapping_targets_report_equals_their_union() {
        fn run_with(targets: Vec<Cidr>) -> String {
            let t = SimTransport::new(Arc::new(Universe::generate(UniverseConfig::tiny(42))));
            let client = Client::new(t);
            let pipeline = Pipeline::new(PipelineConfig::new(targets), &Telemetry::new());
            let report = pipeline.run(&client).expect("pipeline failed");
            report.to_json_string()
        }
        let union = run_with(tiny());
        let overlapping = run_with(
            [
                "20.0.0.0/17",
                "20.0.0.0/16",
                "20.0.128.0/17",
                "20.0.77.0/24",
            ]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect(),
        );
        assert_eq!(overlapping, union);
        // Adjacent halves with no explicit union behave the same: their
        // /24 decomposition (and thus the shuffled sweep order) matches
        // the full block's.
        let halves = run_with(
            ["20.0.128.0/17", "20.0.0.0/17"]
                .iter()
                .map(|s| s.parse().unwrap())
                .collect(),
        );
        assert_eq!(halves, union);
    }

    #[test]
    fn retries_zero_and_one_both_disable_retrying() {
        let with = |max_attempts| {
            let config = PipelineConfig {
                max_attempts,
                ..PipelineConfig::new(tiny())
            };
            Pipeline::new(config, &Telemetry::new()).config
        };
        let (zero, one) = (with(0), with(1));
        assert_eq!(zero.max_attempts, 1);
        assert_eq!(one.max_attempts, 1);
        assert_eq!(zero.fingerprint(), one.fingerprint());
    }

    #[test]
    fn tarpit_threshold_defaults_to_port_count() {
        // The default threshold tracks the *configured* ports, including
        // when they are overridden.
        let config = PipelineConfig {
            ports: vec![80, 443, 8080],
            ..PipelineConfig::new(tiny())
        };
        assert_eq!(config.tarpit_threshold(), 3);
    }

    /// A repeated port is probed once and counts once: `[80, 8080, 80]`
    /// used to send half as many probes again as `[80, 8080]`.
    #[test]
    fn repeated_ports_report_equals_distinct_ports() {
        fn run_with(ports: Vec<u16>) -> (PipelineConfig, ScanReport) {
            let t = SimTransport::new(Arc::new(Universe::generate(UniverseConfig::tiny(42))));
            let config = PipelineConfig {
                ports,
                ..PipelineConfig::new(tiny())
            };
            let pipeline = Pipeline::new(config, &Telemetry::new());
            let report = pipeline.run(&Client::new(t)).expect("pipeline failed");
            (pipeline.config, report)
        }
        let (config, repeated) = run_with(vec![80, 8080, 80]);
        assert_eq!(config.ports, vec![80, 8080]);
        let (_, distinct) = run_with(vec![80, 8080]);
        assert_eq!(repeated.to_json_string(), distinct.to_json_string());
        assert_eq!(distinct.probes_sent, 65_536 * 2);
        assert!(distinct.total_hosts() > 0);
    }

    /// With one scan port the default threshold used to be 1, which
    /// every host with that port open reaches: 0 findings, every
    /// responsive host "excluded as all-ports-open".
    #[test]
    fn a_single_port_scan_excludes_nothing_and_finds_hosts() {
        for ports in [vec![80], vec![80, 80]] {
            let t = SimTransport::new(Arc::new(Universe::generate(UniverseConfig::tiny(42))));
            let config = PipelineConfig {
                ports,
                ..PipelineConfig::new(tiny())
            };
            let pipeline = Pipeline::new(config, &Telemetry::new());
            assert_eq!(pipeline.config.ports, vec![80]);
            assert_eq!(pipeline.config.tarpit_threshold(), 2);
            let report = pipeline.run(&Client::new(t)).expect("pipeline failed");
            assert_eq!(report.excluded_all_ports_open, 0);
            assert!(report.total_hosts() > 0);
            assert!(report.total_mavs() > 0);
        }
    }

    /// `PipelineConfig::new` is the paper's settings.
    #[test]
    fn builder_defaults_are_the_papers_settings() {
        let config = PipelineConfig::new(tiny());
        assert_eq!(config.blocks_per_batch, 64);
        assert_eq!(config.tarpit_threshold(), config.ports.len());
        assert_eq!(config.shards, 1);
        assert_eq!(config.ports.len(), 12);
        assert_eq!(config.max_attempts, 3);
        assert_eq!(config.backoff_unit, Duration::ZERO);
    }

    /// Resuming needs a log to resume from: without a checkpoint path
    /// there is none, and that is an I/O error, not a fresh scan.
    #[test]
    fn resume_without_a_checkpoint_path_is_an_io_error() {
        let t = SimTransport::new(Arc::new(Universe::generate(UniverseConfig::tiny(42))));
        let pipeline = Pipeline::new(PipelineConfig::new(tiny()), &Telemetry::new());
        let err = pipeline.resume(&Client::new(t)).unwrap_err();
        assert_eq!(
            err,
            PipelineError::Checkpoint(CheckpointError::Io(
                "no checkpoint path is configured".into()
            ))
        );
    }

    #[test]
    fn pipeline_matches_ground_truth_per_app() {
        let (client, report) = run_tiny();
        let universe = client.transport().universe();

        for app in AppId::in_scope() {
            let truth_hosts = universe
                .hosts()
                .filter(|h| h.awe().map(|(_, a)| a) == Some(app))
                .count() as u64;
            let truth_mavs = universe
                .vulnerable_hosts()
                .filter(|h| h.awe().map(|(_, a)| a) == Some(app))
                .count() as u64;
            assert_eq!(
                report.hosts_running(app),
                truth_hosts,
                "{app}: host count mismatch"
            );
            assert_eq!(report.mavs(app), truth_mavs, "{app}: MAV count mismatch");
        }
    }

    #[test]
    fn pipeline_excludes_tarpits() {
        let (client, report) = run_tiny();
        let tarpits = client
            .transport()
            .universe()
            .hosts()
            .filter(|h| h.tarpit)
            .count() as u64;
        assert_eq!(report.excluded_all_ports_open, tarpits);
    }

    #[test]
    fn pipeline_discards_background_noise() {
        let (_, report) = run_tiny();
        assert!(report.prefilter_discarded > 0);
        // Nothing in the findings is a background host.
        for f in &report.findings {
            assert!(AppId::in_scope().any(|a| a == f.app));
        }
    }

    #[test]
    fn fingerprints_cover_most_findings() {
        let (_, report) = run_tiny();
        assert!(
            report.fingerprint_coverage() > 0.9,
            "coverage = {}",
            report.fingerprint_coverage()
        );
    }

    #[test]
    fn port_stats_have_open_counts() {
        let (_, report) = run_tiny();
        assert!(report.port_stats.get(&80).map(|s| s.open).unwrap_or(0) > 0);
        // Port 80 never records HTTPS.
        assert_eq!(report.port_stats.get(&80).map(|s| s.https).unwrap_or(0), 0);
    }

    /// Each plugin run records one per-application outcome.
    #[test]
    fn instrumented_detection_records_outcomes() {
        use crate::plugin::AppHandler;
        use nokeys_apps::{build_instance, release_history, AppConfig};
        use nokeys_http::memory::HandlerTransport;
        use nokeys_http::Scheme;

        let app = AppId::Hadoop;
        let version = *release_history(app).last().unwrap();
        let mut transport = HandlerTransport::new();
        let mut hits = Vec::new();
        for (last, cfg) in [
            (1, AppConfig::vulnerable_for(app, &version)),
            (2, AppConfig::secure_for(app, &version)),
        ] {
            let endpoint = Endpoint::new(Ipv4Addr::new(10, 1, 1, last), app.scan_ports()[0]);
            let handler = Arc::new(AppHandler::new(build_instance(app, version, cfg)));
            transport = transport.with(endpoint, handler);
            hits.push(PrefilterHit {
                endpoint,
                scheme: Scheme::Http,
                candidates: vec![app],
                redirects: 0,
            });
        }
        let client = Client::new(transport);
        let telemetry = Telemetry::new();
        let config = PipelineConfig::new(vec!["10.1.1.0/24".parse().unwrap()]);
        let mut processor = BatchProcessor::new(&config, &telemetry);
        let vulnerable: Vec<bool> = hits
            .into_iter()
            .flat_map(|hit| processor.verify_host(&client, vec![hit]))
            .map(|finding| finding.vulnerable)
            .collect();
        assert_eq!(vulnerable, [true, false]);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("stage3.verify.Hadoop.confirmed"), 1);
        assert_eq!(snap.counter("stage3.verify.Hadoop.rejected"), 1);
    }

    /// Every report number is read off the telemetry; check each
    /// against the universe's ground truth, and the snapshot's stage-II
    /// accounting against itself.
    #[test]
    fn telemetry_reconciles_with_report() {
        let t = SimTransport::new(Arc::new(Universe::generate(UniverseConfig::tiny(42))));
        let client = Client::new(t);
        let telemetry = Telemetry::new();
        let pipeline = Pipeline::new(PipelineConfig::new(tiny()), &telemetry);
        let report = pipeline.run(&client).expect("pipeline failed");
        let snap = telemetry.snapshot();
        let universe = client.transport().universe();

        // Stage I swept the whole /16 on all 12 ports.
        assert_eq!(report.addresses_probed, 65_536);
        assert_eq!(report.probes_sent, 65_536 * 12);
        // Every tarpit, and nothing else, was excluded.
        let tarpits = universe.hosts().filter(|h| h.tarpit).count() as u64;
        assert_eq!(report.excluded_all_ports_open, tarpits);
        // Every populated endpoint was found open: each host's services,
        // and all 12 ports of each tarpit.
        let services: u64 = (universe.hosts())
            .filter(|h| !h.tarpit)
            .map(|h| h.services.len() as u64)
            .sum();
        let open: u64 = report.port_stats.values().map(|s| s.open).sum();
        assert_eq!(open, services + tarpits * 12);
        assert!(report.port_stats.values().all(|s| s.open > 0));
        // Every probed endpoint is classified exactly once.
        assert_eq!(
            report.prefilter_hits + report.prefilter_discarded + report.prefilter_silent,
            snap.counter("stage2.endpoints_probed")
        );
        assert_eq!(
            snap.counter("pipeline.findings"),
            report.findings.len() as u64
        );
        assert_eq!(
            snap.counter("pipeline.mavs"),
            report.findings.iter().filter(|f| f.vulnerable).count() as u64
        );
        // No stage-II fetch is anonymous: each (endpoint, scheme) try
        // ends as a response or as one named error. An excluded host
        // has every scan port open, so a port's probed endpoints are
        // its open count less the exclusions.
        let errors = snap.prefixed_total("stage2.error.");
        assert!(errors > 0, "the tiny universe has silent ports");
        let tries: u64 = report
            .port_stats
            .iter()
            .map(|(&port, stat)| {
                let probed = stat.open - report.excluded_all_ports_open;
                probed * Prefilter::schemes_for_port(port).len() as u64
            })
            .sum();
        let responses: u64 = report.port_stats.values().map(|s| s.http + s.https).sum();
        assert_eq!(tries, responses + errors);
        // Port 80 is only asked for HTTP, port 443 only for HTTPS.
        assert!(!snap.counters.contains_key("stage2.https_responses.80"));
        assert!(!snap.counters.contains_key("stage2.http_responses.443"));
        // Stage III ran: confirmed verifications equal the MAV count.
        let outcomes = |outcome: &str| -> u64 {
            snap.counters
                .iter()
                .filter(|(k, _)| k.starts_with("stage3.verify.") && k.ends_with(outcome))
                .map(|(_, v)| v)
                .sum()
        };
        assert_eq!(outcomes(".confirmed"), snap.counter("pipeline.mavs"));
        // A plugin run a failed GET ended is one of the rejections.
        assert!(snap.prefixed_total("stage3.error.") <= outcomes(".rejected"));
    }
}
