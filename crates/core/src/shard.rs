//! The scan engine: sharded orchestration with work-stealing.
//!
//! Every scan — [`Pipeline::run`](crate::pipeline::Pipeline::run),
//! [`resume`](crate::pipeline::Pipeline::resume), at any shard count —
//! runs through `run_sharded`. The deterministic batch sequence (the
//! seeded /24 shuffle chunked by
//! [`blocks_per_batch`](crate::pipeline::PipelineConfig::blocks_per_batch))
//! is split into
//! [`PipelineConfig::shards`](crate::pipeline::PipelineConfig::shards)
//! contiguous ranges; one OS thread per shard (`std::thread::scope`)
//! sweeps and verifies its batches one after another, and the
//! per-worker partial results are reduced into one [`ScanReport`] and
//! one telemetry snapshot — byte-identical at any shard count, one
//! included. Shard workers *are* the scan's parallelism: inside a
//! worker everything is a plain sequential loop.
//!
//! # Why the merge is order-independent
//!
//! Every piece of scan state is either an **order-free sum** or
//! **keyed by batch sequence**:
//!
//! * All [`ScanReport`] fields except `findings` are counters (or
//!   per-port counter maps); [`ScanReport::absorb`] adds them, and
//!   addition commutes.
//! * `findings` are ordered by stage-I batch sequence, and each batch
//!   is processed entirely by one worker — so sorting the per-worker
//!   segments by their starting batch index and appending reconstructs
//!   the single-worker findings order exactly.
//! * Telemetry snapshots are sums too (counters add, histogram buckets
//!   add, timers add events and virtual units), so absorbing the
//!   workers' private staging registries in *any* order yields the
//!   single-worker registry.
//! * Fault injection keys its draws per `(endpoint, lane, attempt
//!   ordinal)`, never on global execution order, and every endpoint's
//!   operations happen inside exactly one worker in the same relative
//!   order as a single-worker run — so fault-injected replays shard
//!   exactly, too.
//!
//! Which worker runs which batch is timing-dependent, so nothing about
//! shard scheduling may enter the telemetry registry. Work-stealing
//! observability travels out-of-band in [`ShardStats`] instead.
//!
//! # Work-stealing
//!
//! The planned ranges live on a shared `WorkQueue`. A worker drains
//! one range at a time by advancing its `next` cursor; an idle worker
//! first takes any not-yet-claimed planned range, then *steals* the
//! tail half of the largest remainder. Because a range only ever loses
//! its tail, each (worker, range) episode claims a contiguous run of
//! batch indices — one [`ShardSegment`] — and the deterministic merge
//! above applies unchanged no matter how aggressively work moves
//! between workers.
//!
//! # Checkpoints
//!
//! With a checkpoint path configured, worker *k* persists its finished
//! segments (plus the in-progress one) to `<path>.shard-k` every
//! [`checkpoint_every`](crate::pipeline::PipelineConfig::checkpoint_every)
//! batches, atomically (write-temp-then-rename) and between batches.
//! Resume gathers the file at the base path (if an earlier run
//! finished) and every `<path>.shard-*` file, dedupes, consolidates
//! the inherited segments into `<path>.shard-base` (so a worker
//! overwriting its numbered file cannot lose prior-generation work),
//! and plans new ranges over the *complement* — only unfinished work is
//! rescanned. The shard count is not part of [`ConfigFingerprint`], so
//! a checkpoint taken at `--shards 4` resumes at `--shards 8` (or 1).
//! A completed run writes one [`ShardCheckpoint`] at the base path —
//! a single segment covering `[0, total_batches)` — and removes its
//! shard files; resuming from it rescans nothing.

use crate::checkpoint::{CheckpointError, ConfigFingerprint, ShardCheckpoint, ShardSegment};
use crate::pipeline::{BatchProcessor, PipelineConfig, PipelineError};
use crate::portscan::{Cidr, PortScanner};
use crate::rate::SharedPacer;
use crate::report::ScanReport;
use crate::retry::RetryTransport;
use crate::telemetry::{Telemetry, TelemetrySnapshot};
use nokeys_http::{Client, Transport};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Out-of-band observability of one sharded run.
///
/// These numbers are timing-dependent (which worker claimed which batch
/// depends on scheduling), which is exactly why they are returned here
/// and **never** recorded into the telemetry registry: the registry
/// must stay byte-identical across runs.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Configured worker count.
    pub shards: usize,
    /// Range splits performed because an idle worker took the tail of
    /// a busy worker's remainder.
    pub steals: u64,
    /// Batches completed by each worker (indexed by worker id); sums to
    /// the batch count scanned this run.
    pub batches_by_worker: Vec<u64>,
    /// Stage-I probes sent by each worker; sums to the single-pipeline
    /// probe count on a fresh run.
    pub probes_by_worker: Vec<u64>,
}

/// `<base>.shard-<worker>` — worker `k`'s checkpoint file.
pub(crate) fn shard_worker_path(base: &Path, worker: usize) -> PathBuf {
    extend_path(base, &format!(".shard-{worker}"))
}

/// `<base>.shard-base` — segments inherited from earlier generations,
/// consolidated at resume time.
pub(crate) fn shard_base_path(base: &Path) -> PathBuf {
    extend_path(base, ".shard-base")
}

fn extend_path(base: &Path, suffix: &str) -> PathBuf {
    let mut s = base.as_os_str().to_owned();
    s.push(suffix);
    PathBuf::from(s)
}

/// Every `<base>.shard-*` checkpoint file currently on disk (sorted;
/// in-flight `.tmp` siblings excluded). Used both to load resumable
/// shard state and to decide whether [`Pipeline::resume`] must route
/// through the shard engine even at `shards = 1`.
///
/// [`Pipeline::resume`]: crate::pipeline::Pipeline::resume
pub fn existing_shard_files(base: &Path) -> Vec<PathBuf> {
    let Some(name) = base.file_name().and_then(|n| n.to_str()) else {
        return Vec::new();
    };
    let prefix = format!("{name}.shard-");
    let dir = match base.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut out: Vec<PathBuf> = entries
        .flatten()
        .filter(|e| {
            e.file_name()
                .to_str()
                .is_some_and(|n| n.starts_with(&prefix) && !n.ends_with(".tmp"))
        })
        .map(|e| e.path())
        .collect();
    out.sort();
    out
}

/// Whether [`Pipeline::resume`] would find anything at `base`: a
/// finished scan at the path itself, or worker files next to it.
///
/// [`Pipeline::resume`]: crate::pipeline::Pipeline::resume
pub fn has_checkpoint(base: &Path) -> bool {
    base.exists() || !existing_shard_files(base).is_empty()
}

/// One planned (or stolen) range of batch indices on the shared queue.
#[derive(Debug)]
struct RangeState {
    /// Next batch to claim.
    next: u64,
    /// One past the last claimable batch; only ever *reduced* (by a
    /// steal), so the batches a range hands out are always contiguous.
    end: u64,
    /// Whether a worker has taken ownership of this range.
    claimed: bool,
}

/// The shared work-stealing queue: planned ranges plus every range
/// split off by a steal.
struct WorkQueue {
    ranges: Mutex<Vec<RangeState>>,
    steals: AtomicU64,
}

impl WorkQueue {
    fn new(initial: Vec<(u64, u64)>) -> Self {
        WorkQueue {
            ranges: Mutex::new(
                initial
                    .into_iter()
                    .map(|(next, end)| RangeState {
                        next,
                        end,
                        claimed: false,
                    })
                    .collect(),
            ),
            steals: AtomicU64::new(0),
        }
    }

    /// Take ownership of a non-empty range: first any not-yet-claimed
    /// planned range, else split the tail half off the largest
    /// remainder (a steal). `None` means all work is claimed and will
    /// be finished by the workers already running.
    fn take(&self) -> Option<usize> {
        let mut ranges = self.ranges.lock().expect("work queue lock never poisoned");
        if let Some(rid) = ranges.iter().position(|r| !r.claimed && r.next < r.end) {
            ranges[rid].claimed = true;
            return Some(rid);
        }
        let (victim, remaining) = ranges
            .iter()
            .enumerate()
            .map(|(i, r)| (i, r.end.saturating_sub(r.next)))
            .max_by_key(|&(_, remaining)| remaining)?;
        if remaining == 0 {
            return None;
        }
        // The thief takes the tail half, rounded up; stealing may leave
        // the victim's range empty, but never touches the batch the
        // victim is currently running (claiming already advanced `next`
        // past it), so both segments stay contiguous.
        let mid = ranges[victim].next + remaining / 2;
        let end = ranges[victim].end;
        ranges[victim].end = mid;
        ranges.push(RangeState {
            next: mid,
            end,
            claimed: true,
        });
        self.steals.fetch_add(1, Ordering::Relaxed);
        Some(ranges.len() - 1)
    }

    /// Claim the next batch of range `rid`. Only the range's owner
    /// calls this, so each range drains as one contiguous run.
    fn claim(&self, rid: usize) -> Option<u64> {
        let mut ranges = self.ranges.lock().expect("work queue lock never poisoned");
        let r = &mut ranges[rid];
        if r.next < r.end {
            let batch = r.next;
            r.next += 1;
            Some(batch)
        } else {
            None
        }
    }
}

/// One worker's private pipeline: a staged scanner, retry transport and
/// batch processor all recording into a worker-private telemetry
/// registry, sweeping slices of the shared shuffled block list.
struct SegmentRunner<'a, T: Transport + Clone> {
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

impl<'a, T: Transport + Clone> SegmentRunner<'a, T> {
    fn new(
        config: &PipelineConfig,
        client: &Client<T>,
        blocks: &'a [Cidr],
        pacer: Option<SharedPacer>,
    ) -> Self {
        let staging = Telemetry::new();
        let scanner = PortScanner::with_telemetry(config.portscan.clone(), &staging);
        let processor = BatchProcessor::new(config, &staging);
        let client = client.with_transport(RetryTransport::new(
            client.transport().clone(),
            config.retry.clone(),
            &staging,
        ));
        SegmentRunner {
            staging,
            scanner,
            processor,
            client,
            blocks,
            blocks_per_batch: config.blocks_per_batch,
            pacer,
        }
    }

    /// Sweep and process batch `seq`, folding its results into
    /// `report`. Returns the stage-I probes sent.
    fn run_batch(&mut self, seq: u64, report: &mut ScanReport) -> u64 {
        let lo = (seq as usize) * self.blocks_per_batch;
        let hi = self.blocks.len().min(lo + self.blocks_per_batch);
        let batch =
            self.scanner
                .scan_blocks(self.client.transport(), &self.blocks[lo..hi], &self.pacer);
        let probes = batch.probes_sent;
        BatchProcessor::accumulate_sweep_counts(report, &batch);
        self.processor.process_batch(&self.client, batch, report);
        probes
    }
}

/// What one worker produced: its finished segments plus scheduling
/// counters for [`ShardStats`].
struct WorkerReport {
    segments: Vec<ShardSegment>,
    batches_done: u64,
    probes_sent: u64,
}

/// Where (and how often) one worker persists its segments.
struct WorkerCheckpoint {
    path: PathBuf,
    every: u64,
    fingerprint: ConfigFingerprint,
    total_batches: u64,
}

impl WorkerCheckpoint {
    fn write(&self, segments: Vec<ShardSegment>) -> Result<(), PipelineError> {
        ShardCheckpoint {
            fingerprint: self.fingerprint.clone(),
            total_batches: self.total_batches,
            segments,
        }
        .save(&self.path)
        .map_err(PipelineError::from)
    }
}

/// One worker: repeatedly take a range from the queue, drain it into a
/// segment, and checkpoint along the way.
fn drain_queue<T: Transport + Clone>(
    mut runner: SegmentRunner<'_, T>,
    queue: &WorkQueue,
    checkpoint: Option<WorkerCheckpoint>,
) -> Result<WorkerReport, PipelineError> {
    let mut out = WorkerReport {
        segments: Vec::new(),
        batches_done: 0,
        probes_sent: 0,
    };
    let mut since_start = 0u64;
    while let Some(rid) = queue.take() {
        let mut seg_report = ScanReport::default();
        let seg_base = runner.staging.snapshot();
        let mut seg_range: Option<(u64, u64)> = None;
        while let Some(seq) = queue.claim(rid) {
            out.probes_sent += runner.run_batch(seq, &mut seg_report);
            out.batches_done += 1;
            since_start += 1;
            seg_range = Some((seg_range.map_or(seq, |(start, _)| start), seq + 1));
            if let Some(ck) = &checkpoint {
                if since_start.is_multiple_of(ck.every) {
                    let (start_batch, end_batch) =
                        seg_range.expect("segment has at least one batch");
                    let mut segments = out.segments.clone();
                    segments.push(ShardSegment {
                        start_batch,
                        end_batch,
                        report: seg_report.clone(),
                        telemetry: runner.staging.snapshot().delta_since(&seg_base),
                    });
                    // Written between batches, atomically: a death at
                    // any point leaves a whole file of whole batches.
                    ck.write(segments)?;
                }
            }
        }
        if let Some((start_batch, end_batch)) = seg_range {
            out.segments.push(ShardSegment {
                start_batch,
                end_batch,
                report: std::mem::take(&mut seg_report),
                telemetry: runner.staging.snapshot().delta_since(&seg_base),
            });
        }
    }
    // Final write so a kill after this worker finished (but before the
    // whole run does) loses none of its tail segments.
    if let Some(ck) = &checkpoint {
        if !out.segments.is_empty() {
            ck.write(out.segments.clone())?;
        }
    }
    Ok(out)
}

/// Sort inherited segments, drop exact/contained duplicates (the same
/// deterministic work persisted in both a numbered file and the
/// consolidated base), and reject partial overlaps as corruption.
pub(crate) fn consolidate(
    mut segments: Vec<ShardSegment>,
) -> Result<Vec<ShardSegment>, PipelineError> {
    segments.retain(|s| s.len() > 0);
    segments.sort_by_key(|s| (s.start_batch, std::cmp::Reverse(s.end_batch)));
    let mut out: Vec<ShardSegment> = Vec::new();
    for s in segments {
        if let Some(last) = out.last() {
            if s.end_batch <= last.end_batch {
                // Fully contained in work we already have; identical by
                // determinism, so keep the first copy.
                continue;
            }
            if s.start_batch < last.end_batch {
                return Err(PipelineError::Checkpoint(CheckpointError::Corrupt(
                    format!(
                        "shard segments [{}, {}) and [{}, {}) partially overlap",
                        last.start_batch, last.end_batch, s.start_batch, s.end_batch
                    ),
                )));
            }
        }
        out.push(s);
    }
    Ok(out)
}

/// The batch ranges of `[0, total_batches)` not covered by `covered`
/// (which must be sorted and disjoint — [`consolidate`]'s output).
pub(crate) fn complement(covered: &[ShardSegment], total_batches: u64) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut cursor = 0u64;
    for s in covered {
        if s.start_batch > cursor {
            out.push((cursor, s.start_batch));
        }
        cursor = cursor.max(s.end_batch);
    }
    if cursor < total_batches {
        out.push((cursor, total_batches));
    }
    out
}

/// Split the remaining ranges into up to `shards` planned queue ranges
/// of near-equal batch count. A quota that straddles a gap in
/// `remaining` yields two queue entries; the queue hands spare entries
/// to whichever worker frees up first, so balance is best-effort and
/// work-stealing evens out the rest.
pub(crate) fn plan_initial_ranges(remaining: &[(u64, u64)], shards: u64) -> Vec<(u64, u64)> {
    let total: u64 = remaining.iter().map(|(s, e)| e - s).sum();
    if total == 0 {
        return Vec::new();
    }
    let shards = shards.clamp(1, total);
    let base = total / shards;
    let extra = total % shards;
    let mut out = Vec::new();
    let mut filled = 0u64;
    let mut quota = base + u64::from(extra > 0);
    for &(start, end) in remaining {
        let mut s = start;
        while s < end {
            let take = (end - s).min(quota);
            out.push((s, s + take));
            s += take;
            quota -= take;
            if quota == 0 {
                filled += 1;
                quota = if filled < shards {
                    base + u64::from(filled < extra)
                } else {
                    u64::MAX
                };
            }
        }
    }
    out
}

/// Scan one contiguous batch range with a fresh worker over a private
/// registry, exactly as a shard worker would, returning its
/// [`ShardSegment`]. Public so tests can build partials to feed
/// [`merge_segments`] in arbitrary orders.
pub fn scan_segment<T: Transport + Clone>(
    config: &PipelineConfig,
    client: &Client<T>,
    start_batch: u64,
    end_batch: u64,
) -> ShardSegment {
    let planner = PortScanner::with_telemetry(config.portscan.clone(), &Telemetry::new());
    let blocks = planner.shuffled_blocks();
    let mut runner = SegmentRunner::new(config, client, &blocks, planner.pacer());
    let mut report = ScanReport::default();
    for seq in start_batch..end_batch {
        runner.run_batch(seq, &mut report);
    }
    ShardSegment {
        start_batch,
        end_batch,
        report,
        telemetry: runner.staging.snapshot(),
    }
}

/// The reducer: sort segments by starting batch, verify they are
/// contiguous, then absorb every partial report and telemetry snapshot
/// in address order. Input order is irrelevant — that is the point.
pub fn merge_segments(
    telemetry: &Telemetry,
    mut segments: Vec<ShardSegment>,
) -> Result<ScanReport, PipelineError> {
    segments.sort_by_key(|s| s.start_batch);
    let mut expect = segments.first().map_or(0, |s| s.start_batch);
    for s in &segments {
        if s.start_batch != expect {
            return Err(PipelineError::SweepFailed(format!(
                "shard merge found a coverage gap: expected batch {expect}, got {}",
                s.start_batch
            )));
        }
        expect = s.end_batch;
    }
    let mut report = ScanReport::default();
    for s in segments {
        telemetry.absorb(&s.telemetry);
        report.absorb(s.report);
    }
    Ok(report)
}

fn batch_count(blocks: usize, blocks_per_batch: usize) -> u64 {
    blocks.div_ceil(blocks_per_batch) as u64
}

/// Load and consolidate the state earlier runs left at `path`: the
/// file at the base path (a finished scan) plus every `<path>.shard-*`
/// file, each validated against this scan's fingerprint and length.
fn load_resume_state(
    path: &Path,
    fingerprint: &ConfigFingerprint,
    total_batches: u64,
) -> Result<Vec<ShardSegment>, PipelineError> {
    let shard_files = existing_shard_files(path);
    let mut files = shard_files.clone();
    if path.exists() {
        files.push(path.to_path_buf());
    }
    if files.is_empty() {
        return Err(PipelineError::Checkpoint(CheckpointError::Io(format!(
            "{path:?}: no checkpoint or shard files to resume from"
        ))));
    }
    let mut inherited: Vec<ShardSegment> = Vec::new();
    for f in &files {
        let cp = ShardCheckpoint::load(f)?;
        cp.validate(fingerprint, total_batches)?;
        inherited.extend(cp.segments);
    }
    let inherited = consolidate(inherited)?;
    // Persist the consolidated inheritance *before* any new worker
    // overwrites its numbered file, so a second kill cannot lose
    // prior-generation segments. (The base-path file is only ever
    // replaced by the finished scan, so it needs no such copy.)
    if !shard_files.is_empty() && !inherited.is_empty() {
        ShardCheckpoint {
            fingerprint: fingerprint.clone(),
            total_batches,
            segments: inherited.clone(),
        }
        .save(&shard_base_path(path))?;
    }
    Ok(inherited)
}

/// Remove every artifact of earlier runs at `path`. A fresh
/// checkpointed run starts from scratch: stale artifacts of earlier
/// runs must not bleed into a later resume.
pub(crate) fn clear_checkpoint_files(path: &Path) {
    let _ = std::fs::remove_file(path);
    for f in existing_shard_files(path) {
        let _ = std::fs::remove_file(f);
    }
}

/// Sort `segments` in place and verify their span is exactly
/// `[0, total_batches)`; interior gaps surface in [`merge_segments`].
pub(crate) fn check_full_coverage(
    segments: &mut [ShardSegment],
    total_batches: u64,
) -> Result<(), PipelineError> {
    segments.sort_by_key(|s| s.start_batch);
    let covered_from = segments.first().map_or(0, |s| s.start_batch);
    let covered_to = segments.last().map_or(0, |s| s.end_batch);
    if covered_from != 0 || covered_to != total_batches {
        return Err(PipelineError::SweepFailed(format!(
            "shard merge covers batches [{covered_from}, {covered_to}) of [0, {total_batches})"
        )));
    }
    Ok(())
}

/// Replace the shard files by the finished scan: one checkpoint at the
/// base path whose single segment covers the whole batch sequence, so a
/// later resume finds nothing left to scan.
fn finalize_checkpoint(
    path: &Path,
    fingerprint: ConfigFingerprint,
    total_batches: u64,
    report: &ScanReport,
    telemetry: TelemetrySnapshot,
) -> Result<(), PipelineError> {
    ShardCheckpoint {
        fingerprint,
        total_batches,
        segments: vec![ShardSegment {
            start_batch: 0,
            end_batch: total_batches,
            report: report.clone(),
            telemetry,
        }],
    }
    .save(path)?;
    for f in existing_shard_files(path) {
        let _ = std::fs::remove_file(f);
    }
    Ok(())
}

/// Why a worker thread ended without returning.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("no message")
}

/// The scan engine behind [`Pipeline::run`],
/// [`Pipeline::run_with_shard_stats`] and [`Pipeline::resume`].
///
/// `path` is the *base* checkpoint path (worker files hang off it);
/// `resume` selects whether existing state at that path is loaded or
/// cleared.
///
/// [`Pipeline::run`]: crate::pipeline::Pipeline::run
/// [`Pipeline::run_with_shard_stats`]: crate::pipeline::Pipeline::run_with_shard_stats
/// [`Pipeline::resume`]: crate::pipeline::Pipeline::resume
pub(crate) fn run_sharded<T: Transport + Clone>(
    config: &PipelineConfig,
    telemetry: &Telemetry,
    client: &Client<T>,
    path: Option<&Path>,
    resume: bool,
) -> Result<(ScanReport, ShardStats), PipelineError> {
    assert!(config.blocks_per_batch > 0, "batch size must be positive");
    let shards = config.shards.max(1);
    let fingerprint = ConfigFingerprint::of(config);
    // Throwaway registry: this scanner only computes the shuffle and
    // the shared pacer. Workers sweep with their own staged scanners.
    let planner = PortScanner::with_telemetry(config.portscan.clone(), &Telemetry::new());
    let blocks = planner.shuffled_blocks();
    let pacer = planner.pacer();
    let total_batches = batch_count(blocks.len(), config.blocks_per_batch);

    let mut inherited: Vec<ShardSegment> = Vec::new();
    if resume {
        let path = path.expect("resume requires a checkpoint path");
        inherited = load_resume_state(path, &fingerprint, total_batches)?;
    } else if let Some(path) = path {
        clear_checkpoint_files(path);
    }

    let remaining = complement(&inherited, total_batches);
    let queue = WorkQueue::new(plan_initial_ranges(&remaining, shards as u64));
    // Scoped threads: the scan cannot return (or unwind) past this
    // block while a worker is still sweeping or writing checkpoint
    // files. A worker that panics is reported, not propagated: the
    // other workers finish (and checkpoint) what they hold.
    let outputs: Vec<Result<WorkerReport, PipelineError>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..shards)
            .map(|worker| {
                let runner = SegmentRunner::new(config, client, &blocks, pacer.clone());
                let checkpoint = path.map(|p| WorkerCheckpoint {
                    path: shard_worker_path(p, worker),
                    every: config.checkpoint_every.max(1),
                    fingerprint: fingerprint.clone(),
                    total_batches,
                });
                let queue = &queue;
                scope.spawn(move || drain_queue(runner, queue, checkpoint))
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

    let mut stats = ShardStats {
        shards,
        steals: queue.steals.load(Ordering::Relaxed),
        batches_by_worker: Vec::with_capacity(shards),
        probes_by_worker: Vec::with_capacity(shards),
    };
    let mut segments = inherited;
    for output in outputs {
        let output = output?;
        stats.batches_by_worker.push(output.batches_done);
        stats.probes_by_worker.push(output.probes_sent);
        segments.extend(output.segments);
    }
    check_full_coverage(&mut segments, total_batches)?;
    // Reduce into a private registry first: the finished checkpoint
    // must hold exactly this scan's telemetry, even when the caller's
    // registry is shared with other recorders.
    let merged = Telemetry::new();
    let report = merge_segments(&merged, segments)?;
    let snapshot = merged.snapshot();
    telemetry.absorb(&snapshot);

    if let Some(path) = path {
        finalize_checkpoint(path, fingerprint, total_batches, &report, snapshot)?;
    }
    Ok((report, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segment(start_batch: u64, end_batch: u64) -> ShardSegment {
        ShardSegment {
            start_batch,
            end_batch,
            report: ScanReport::default(),
            telemetry: Telemetry::new().snapshot(),
        }
    }

    #[test]
    fn consolidate_sorts_and_drops_contained_duplicates() {
        let merged = consolidate(vec![
            segment(8, 12),
            segment(0, 8),
            segment(0, 8),   // exact duplicate (numbered file + base)
            segment(2, 6),   // contained in [0, 8)
            segment(12, 12), // empty — dropped
        ])
        .expect("disjoint segments consolidate");
        let ranges: Vec<(u64, u64)> = merged
            .iter()
            .map(|s| (s.start_batch, s.end_batch))
            .collect();
        assert_eq!(ranges, vec![(0, 8), (8, 12)]);
    }

    #[test]
    fn consolidate_rejects_partial_overlap() {
        let err = consolidate(vec![segment(0, 8), segment(4, 12)]).unwrap_err();
        assert!(
            matches!(err, PipelineError::Checkpoint(CheckpointError::Corrupt(_))),
            "{err}"
        );
    }

    #[test]
    fn complement_fills_gaps_and_tail() {
        let covered = vec![segment(2, 4), segment(8, 10)];
        assert_eq!(complement(&covered, 12), vec![(0, 2), (4, 8), (10, 12)]);
        assert_eq!(complement(&[], 3), vec![(0, 3)]);
        assert_eq!(complement(&[segment(0, 3)], 3), Vec::<(u64, u64)>::new());
    }

    #[test]
    fn plan_splits_evenly_and_respects_fragments() {
        // 32 batches over 4 shards: four ranges of 8.
        assert_eq!(
            plan_initial_ranges(&[(0, 32)], 4),
            vec![(0, 8), (8, 16), (16, 24), (24, 32)]
        );
        // 10 batches over 4 shards: 3, 3, 2, 2.
        assert_eq!(
            plan_initial_ranges(&[(0, 10)], 4),
            vec![(0, 3), (3, 6), (6, 8), (8, 10)]
        );
        // Fewer batches than shards: one range each, never empty.
        assert_eq!(plan_initial_ranges(&[(0, 2)], 4), vec![(0, 1), (1, 2)]);
        // A quota straddling a fragment gap yields two queue entries.
        assert_eq!(
            plan_initial_ranges(&[(0, 2), (6, 8)], 2),
            vec![(0, 2), (6, 8)]
        );
        assert_eq!(
            plan_initial_ranges(&[(0, 3), (6, 7)], 2),
            vec![(0, 2), (2, 3), (6, 7)]
        );
        assert_eq!(plan_initial_ranges(&[], 4), Vec::<(u64, u64)>::new());
    }

    #[test]
    fn work_queue_hands_out_planned_ranges_then_steals() {
        let queue = WorkQueue::new(vec![(0, 8), (8, 16)]);
        let a = queue.take().expect("first planned range");
        let b = queue.take().expect("second planned range");
        assert_eq!(queue.claim(a), Some(0));
        assert_eq!(queue.claim(b), Some(8));
        assert_eq!(queue.claim(b), Some(9));
        assert_eq!(queue.steals.load(Ordering::Relaxed), 0);
        // Third taker must steal: range a has [1, 8) remaining (7, the
        // most), so the thief gets the tail [4, 8).
        let c = queue.take().expect("steals from the largest remainder");
        assert_eq!(queue.steals.load(Ordering::Relaxed), 1);
        assert_eq!(queue.claim(c), Some(4));
        // The victim keeps claiming its shrunken head.
        assert_eq!(queue.claim(a), Some(1));
        // Drain everything; every batch is claimed exactly once.
        let mut seen = vec![0u32; 16];
        for (rid, pre) in [(a, vec![0u64, 1]), (b, vec![8, 9]), (c, vec![4])] {
            for batch in pre {
                seen[batch as usize] += 1;
            }
            while let Some(batch) = queue.claim(rid) {
                seen[batch as usize] += 1;
            }
        }
        // Steal the dregs until nothing is left.
        while let Some(rid) = queue.take() {
            while let Some(batch) = queue.claim(rid) {
                seen[batch as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&n| n == 1), "coverage: {seen:?}");
    }

    #[test]
    fn work_queue_can_steal_a_single_remaining_batch() {
        let queue = WorkQueue::new(vec![(0, 2)]);
        let a = queue.take().expect("planned range");
        assert_eq!(queue.claim(a), Some(0));
        // Remaining = 1; the thief takes it all, leaving the victim
        // empty (but its in-flight batch 0 untouched).
        let b = queue.take().expect("steals the last batch");
        assert_eq!(queue.claim(b), Some(1));
        assert_eq!(queue.claim(a), None);
        assert_eq!(queue.claim(b), None);
        assert!(queue.take().is_none());
    }

    #[test]
    fn shard_paths_and_discovery() {
        let dir = std::env::temp_dir().join(format!("nokeys-shard-disc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("scan.json");
        assert_eq!(
            shard_worker_path(&base, 3).file_name().unwrap(),
            "scan.json.shard-3"
        );
        assert_eq!(
            shard_base_path(&base).file_name().unwrap(),
            "scan.json.shard-base"
        );
        std::fs::write(shard_worker_path(&base, 0), b"x").unwrap();
        std::fs::write(shard_worker_path(&base, 1), b"x").unwrap();
        std::fs::write(shard_base_path(&base), b"x").unwrap();
        // Excluded: the base checkpoint itself, unrelated files, and
        // in-flight temp files.
        std::fs::write(&base, b"x").unwrap();
        std::fs::write(dir.join("other.json.shard-0"), b"x").unwrap();
        std::fs::write(extend_path(&shard_worker_path(&base, 2), ".tmp"), b"x").unwrap();
        let found = existing_shard_files(&base);
        let names: Vec<_> = found
            .iter()
            .map(|p| p.file_name().unwrap().to_str().unwrap().to_owned())
            .collect();
        assert_eq!(
            names,
            vec![
                "scan.json.shard-0",
                "scan.json.shard-1",
                "scan.json.shard-base"
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_rejects_gaps() {
        let telemetry = Telemetry::new();
        let err = merge_segments(&telemetry, vec![segment(0, 4), segment(6, 8)]).unwrap_err();
        assert!(matches!(err, PipelineError::SweepFailed(_)), "{err}");
        assert!(merge_segments(&telemetry, vec![segment(4, 6), segment(0, 4)]).is_ok());
    }
}
