//! The full three-stage pipeline.
//!
//! Orchestrates stage I (port scan), artifact exclusion ("3.0M hosts that
//! appeared to always have all ports open ... we excluded them"), stage
//! II (prefilter), stage III (MAV plugins) and version fingerprinting
//! into a single [`ScanReport`].
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
//! worker wraps the caller's transport in a [`RetryTransport`] driven
//! by [`PipelineConfig::retry`], giving stage-I probes, stage-II
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
use crate::plugin::verify;
use crate::portscan::{by_host, Cidr, PortScanConfig};
use crate::prefilter::{Prefilter, PrefilterHit};
use crate::report::{HostFinding, ScanReport};
use crate::retry::RetryPolicy;
use crate::scratch::Scratch;
use crate::telemetry::{Counter, Histogram, Telemetry};
use nokeys_apps::AppId;
use nokeys_http::{Client, Endpoint, Transport};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

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

/// Pipeline configuration.
///
/// Construct via [`PipelineConfig::builder`]; the struct is
/// `#[non_exhaustive]` so new knobs (like [`telemetry`](Self::telemetry))
/// can be added without breaking downstream construction sites.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct PipelineConfig {
    /// Stage-I configuration.
    pub portscan: PortScanConfig,
    /// /24 blocks per batch ("we always selected and scanned a fraction
    /// of all hosts with our full pipeline before we continued").
    pub blocks_per_batch: usize,
    /// Hosts with at least this many open scan ports are treated as
    /// all-ports-open artifacts and excluded.
    pub tarpit_port_threshold: usize,
    /// Number of shard workers — the scan's one concurrency setting
    /// (default 1). [`Pipeline::run`] hands the batch sequence out one
    /// batch at a time to this many worker threads and joins the
    /// per-batch findings in batch order — the report and telemetry
    /// snapshot are byte-identical at any shard count, fault injection
    /// included (see the [`shard`](crate::shard) module). The builder
    /// rejects `0`.
    pub shards: usize,
    /// Transport-level retry/backoff applied to every probe and connect
    /// during [`Pipeline::run`] (default: 3 attempts, deterministic
    /// capped-exponential backoff in virtual units). Use
    /// [`RetryPolicy::disabled`] to scan without retries.
    pub retry: RetryPolicy,
    /// Telemetry registry the pipeline records into. `None` gives the
    /// pipeline a private registry, still reachable through
    /// [`Pipeline::telemetry`]; pass a shared one to aggregate several
    /// pipelines (or external components) into a single snapshot.
    pub telemetry: Option<Telemetry>,
    /// When set, [`Pipeline::run`] appends every finished batch to the
    /// log at this path — the one file checkpointing creates — so a
    /// killed scan loses only its in-flight batches and can continue
    /// via [`Pipeline::resume`] (see [`checkpoint`](crate::checkpoint)).
    pub checkpoint_path: Option<PathBuf>,
}

impl PipelineConfig {
    /// Start building a configuration over `targets` with the paper's
    /// defaults (12 ports, batches of 64 blocks, one shard worker,
    /// 3 attempts per network operation).
    pub fn builder(targets: Vec<Cidr>) -> PipelineConfigBuilder {
        PipelineConfigBuilder {
            portscan: PortScanConfig::new(targets),
            blocks_per_batch: 64,
            tarpit_port_threshold: None,
            shards: 1,
            retry: RetryPolicy::default(),
            telemetry: None,
            checkpoint_path: None,
        }
    }
}

/// Fluent builder for [`PipelineConfig`].
///
/// ```
/// use nokeys_scanner::pipeline::PipelineConfig;
///
/// let config = PipelineConfig::builder(vec!["20.0.0.0/16".parse().unwrap()])
///     .blocks_per_batch(64)
///     .shards(4)
///     .build();
/// assert_eq!(config.shards, 4);
/// ```
#[derive(Debug, Clone)]
pub struct PipelineConfigBuilder {
    portscan: PortScanConfig,
    blocks_per_batch: usize,
    tarpit_port_threshold: Option<usize>,
    shards: usize,
    retry: RetryPolicy,
    telemetry: Option<Telemetry>,
    checkpoint_path: Option<PathBuf>,
}

impl PipelineConfigBuilder {
    /// Ports probed by stage I (defaults to the paper's 12).
    pub fn ports(mut self, ports: Vec<u16>) -> Self {
        self.portscan.ports = ports;
        self
    }

    /// Seed for the stage-I /24 shuffle.
    pub fn seed(mut self, seed: u64) -> Self {
        self.portscan.seed = seed;
        self
    }

    /// Whether stage I skips IANA-reserved ranges.
    pub fn exclude_reserved(mut self, exclude: bool) -> Self {
        self.portscan.exclude_reserved = exclude;
        self
    }

    /// Probe-rate ceiling in probes/second (`None` scans at full speed).
    pub fn max_probes_per_sec(mut self, rate: Option<f64>) -> Self {
        self.portscan.max_probes_per_sec = rate;
        self
    }

    /// /24 blocks handed to stages II/III per batch.
    pub fn blocks_per_batch(mut self, blocks: usize) -> Self {
        self.blocks_per_batch = blocks;
        self
    }

    /// Open-port count at which a host is discarded as an all-ports-open
    /// artifact. Defaults to the number of scan ports, but never below
    /// 2: one open port is a host, not a tarpit.
    pub fn tarpit_port_threshold(mut self, threshold: usize) -> Self {
        self.tarpit_port_threshold = Some(threshold);
        self
    }

    /// Shard workers the batch sequence is handed out to (default 1).
    /// Any value produces the identical report and telemetry snapshot.
    ///
    /// # Panics
    ///
    /// Panics on `0` — zero shard workers can never make progress, and
    /// silently clamping would hide a configuration bug.
    pub fn shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "pipeline shards must be at least 1");
        self.shards = shards;
        self
    }

    /// Total attempts per network operation (probe or connect).
    /// `0` and `1` both mean "no retries"; the default is 3. Keeps the
    /// rest of the configured [`RetryPolicy`] intact.
    pub fn retries(mut self, attempts: u32) -> Self {
        self.retry.max_attempts = attempts.max(1);
        self
    }

    /// Replace the whole transport retry/backoff policy.
    pub fn retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
    /// Record pipeline metrics into a shared telemetry registry.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Log every finished batch to `path` during [`Pipeline::run`].
    pub fn checkpoint_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint_path = Some(path.into());
        self
    }

    /// Finalize the configuration.
    ///
    /// Target CIDRs are normalized here: exact duplicates and blocks
    /// contained in another target are dropped, and the survivors are
    /// sorted by base address. Aligned CIDR blocks either nest or are
    /// disjoint, so this leaves a disjoint cover of the same address
    /// set — listing `10.0.0.0/16` twice, or alongside `10.0.5.0/24`,
    /// scans each address exactly once. Ports are normalized too: a
    /// repeated port keeps its first position and is probed once, so it
    /// can neither double the sweep nor count twice towards the tarpit
    /// threshold.
    pub fn build(mut self) -> PipelineConfig {
        self.portscan.targets = normalize_targets(std::mem::take(&mut self.portscan.targets));
        let mut seen = BTreeSet::new();
        self.portscan.ports.retain(|port| seen.insert(*port));
        let tarpit_port_threshold = self
            .tarpit_port_threshold
            .unwrap_or(self.portscan.ports.len().max(2));
        PipelineConfig {
            portscan: self.portscan,
            blocks_per_batch: self.blocks_per_batch,
            tarpit_port_threshold,
            shards: self.shards,
            retry: self.retry,
            telemetry: self.telemetry,
            checkpoint_path: self.checkpoint_path,
        }
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
    pub fn new(config: PipelineConfig) -> Self {
        let telemetry = config.telemetry.clone().unwrap_or_default();
        Pipeline { config, telemetry }
    }

    /// The telemetry registry this pipeline records into (the one passed
    /// via [`PipelineConfigBuilder::telemetry`], or a private default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Run the full pipeline over the configured target space on
    /// [`PipelineConfig::shards`] worker threads; returns when every
    /// worker has finished. Each worker wraps the caller's transport in
    /// a [`RetryTransport`](crate::retry::RetryTransport), so every
    /// network operation of every stage shares [`PipelineConfig::retry`].
    ///
    /// With [`PipelineConfig::checkpoint_path`] set, the run starts from
    /// scratch (truncating whatever is at that path) and logs every
    /// batch as it finishes; use [`Pipeline::resume`] to continue from
    /// such a log.
    pub fn run<T>(&self, client: &Client<T>) -> Result<ScanReport, PipelineError>
    where
        T: Transport + Clone,
    {
        crate::shard::run_sharded(
            &self.config,
            &self.telemetry,
            client,
            self.config.checkpoint_path.as_deref(),
            false,
        )
    }

    /// Continue a checkpointed scan from the log at `path`, producing
    /// a [`ScanReport`] byte-identical to what the uninterrupted run
    /// would have produced (telemetry snapshot included), at any shard
    /// count.
    ///
    /// The checkpoint's recorded configuration fingerprint must match
    /// this pipeline's report-affecting knobs (targets, ports, seeds,
    /// retry budget, …) — resuming under a different configuration
    /// returns [`CheckpointError::ConfigMismatch`]. Shard count and
    /// wall-clock pacing may differ freely; they never change the
    /// report, so a checkpoint taken at `--shards 4` resumes at
    /// `--shards 8` (or 1). Only batches the log lacks are scanned (and
    /// appended to it); resuming a finished scan scans nothing and
    /// returns the stored report.
    ///
    /// The stored telemetry is replayed into [`Pipeline::telemetry`],
    /// so resume with a **fresh (or otherwise pipeline-private)
    /// registry**: pre-existing pipeline counts would be double-counted.
    pub fn resume<T>(
        &self,
        client: &Client<T>,
        path: impl AsRef<Path>,
    ) -> Result<ScanReport, PipelineError>
    where
        T: Transport + Clone,
    {
        crate::shard::run_sharded(
            &self.config,
            &self.telemetry,
            client,
            Some(path.as_ref()),
            true,
        )
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
            tarpit_port_threshold: config.tarpit_port_threshold,
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

    fn run_tiny() -> (Client<SimTransport>, ScanReport) {
        let t = SimTransport::new(Arc::new(Universe::generate(UniverseConfig::tiny(42))));
        let client = Client::new(t);
        let pipeline =
            Pipeline::new(PipelineConfig::builder(vec!["20.0.0.0/16".parse().unwrap()]).build());
        let report = pipeline.run(&client).expect("pipeline failed");
        (client, report)
    }

    #[test]
    fn builder_applies_every_knob() {
        let telemetry = Telemetry::new();
        let config = PipelineConfig::builder(vec!["20.0.0.0/16".parse().unwrap()])
            .ports(vec![80, 443])
            .seed(7)
            .exclude_reserved(false)
            .max_probes_per_sec(Some(100.0))
            .blocks_per_batch(16)
            .tarpit_port_threshold(5)
            .shards(4)
            .retries(5)
            .telemetry(telemetry)
            .checkpoint_path("/tmp/nokeys-checkpoint.json")
            .build();
        assert_eq!(config.portscan.ports, vec![80, 443]);
        assert_eq!(config.portscan.seed, 7);
        assert!(!config.portscan.exclude_reserved);
        assert_eq!(config.portscan.max_probes_per_sec, Some(100.0));
        assert_eq!(config.blocks_per_batch, 16);
        assert_eq!(config.tarpit_port_threshold, 5);
        assert_eq!(config.shards, 4);
        assert_eq!(config.retry.max_attempts, 5);
        assert!(config.telemetry.is_some());
        assert_eq!(
            config.checkpoint_path.as_deref(),
            Some(Path::new("/tmp/nokeys-checkpoint.json"))
        );
    }

    #[test]
    #[should_panic(expected = "shards must be at least 1")]
    fn builder_rejects_zero_shards() {
        let _ = PipelineConfig::builder(vec!["20.0.0.0/16".parse().unwrap()]).shards(0);
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
        let config = PipelineConfig::builder(targets).build();
        let expect: Vec<Cidr> = ["10.9.0.0/24", "20.0.0.0/16"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        assert_eq!(config.portscan.targets, expect);
    }

    /// Overlapping targets produce the very report their union would —
    /// no address is swept or verified twice.
    #[test]
    fn overlapping_targets_report_equals_their_union() {
        fn run_with(targets: Vec<Cidr>) -> String {
            let t = SimTransport::new(Arc::new(Universe::generate(UniverseConfig::tiny(42))));
            let client = Client::new(t);
            let pipeline = Pipeline::new(PipelineConfig::builder(targets).build());
            let report = pipeline.run(&client).expect("pipeline failed");
            report.to_json_string()
        }
        let union = run_with(vec!["20.0.0.0/16".parse().unwrap()]);
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
        let targets: Vec<Cidr> = vec!["20.0.0.0/16".parse().unwrap()];
        let zero = PipelineConfig::builder(targets.clone()).retries(0).build();
        let one = PipelineConfig::builder(targets).retries(1).build();
        assert_eq!(zero.retry.max_attempts, 1);
        assert!(!zero.retry.enabled());
        assert!(!one.retry.enabled());
    }

    #[test]
    fn tarpit_threshold_defaults_to_port_count() {
        // The default threshold tracks the *configured* ports, including
        // when they are overridden through the builder.
        let config = PipelineConfig::builder(vec!["20.0.0.0/16".parse().unwrap()])
            .ports(vec![80, 443, 8080])
            .build();
        assert_eq!(config.tarpit_port_threshold, 3);
    }

    /// A repeated port is probed once and counts once: `[80, 8080, 80]`
    /// used to send half as many probes again as `[80, 8080]`.
    #[test]
    fn repeated_ports_report_equals_distinct_ports() {
        fn run_with(ports: Vec<u16>) -> (PipelineConfig, ScanReport) {
            let t = SimTransport::new(Arc::new(Universe::generate(UniverseConfig::tiny(42))));
            let config = PipelineConfig::builder(vec!["20.0.0.0/16".parse().unwrap()])
                .ports(ports)
                .build();
            let report = Pipeline::new(config.clone())
                .run(&Client::new(t))
                .expect("pipeline failed");
            (config, report)
        }
        let (config, repeated) = run_with(vec![80, 8080, 80]);
        assert_eq!(config.portscan.ports, vec![80, 8080]);
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
            let config = PipelineConfig::builder(vec!["20.0.0.0/16".parse().unwrap()])
                .ports(ports)
                .build();
            assert_eq!(config.portscan.ports, vec![80]);
            assert_eq!(config.tarpit_port_threshold, 2);
            let report = Pipeline::new(config)
                .run(&Client::new(t))
                .expect("pipeline failed");
            assert_eq!(report.excluded_all_ports_open, 0);
            assert!(report.total_hosts() > 0);
            assert!(report.total_mavs() > 0);
        }
    }

    /// The defaults the removed `PipelineConfig::new` shim used to pin:
    /// a bare `builder(targets).build()` keeps the paper's settings.
    #[test]
    fn builder_defaults_are_the_papers_settings() {
        let targets: Vec<Cidr> = vec!["20.0.0.0/16".parse().unwrap()];
        let built = PipelineConfig::builder(targets).build();
        assert_eq!(built.blocks_per_batch, 64);
        assert_eq!(built.tarpit_port_threshold, built.portscan.ports.len());
        assert_eq!(built.shards, 1);
        assert_eq!(built.portscan.ports.len(), 12);
        assert_eq!(built.retry.attempts(), 3);
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
        let config = PipelineConfig::builder(vec!["10.1.1.0/24".parse().unwrap()]).build();
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
        let pipeline = Pipeline::new(
            PipelineConfig::builder(vec!["20.0.0.0/16".parse().unwrap()])
                .telemetry(telemetry.clone())
                .build(),
        );
        let report = pipeline.run(&client).expect("pipeline failed");
        let snap = pipeline.telemetry().snapshot();
        // The external registry and the pipeline's view are the same.
        assert_eq!(snap.to_json(), telemetry.snapshot().to_json());
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
