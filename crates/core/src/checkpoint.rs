//! Crash-safe scan checkpointing: the one on-disk format.
//!
//! An Internet-wide sweep runs for hours; losing it to a crash, a
//! deploy or an operator mistake means re-probing the whole address
//! space. The scan engine ([`shard`](crate::shard)) therefore persists
//! its progress as [`ShardCheckpoint`] files: a configuration
//! fingerprint, the scan's total batch count, and a list of
//! [`ShardSegment`]s — each a contiguous run of completed stage-I
//! batches with the [`ScanReport`] accumulated over exactly those
//! batches (stage-II/III outcomes included) and the matching
//! [`TelemetrySnapshot`] delta (retry counters, stage timings, the
//! virtual clock).
//!
//! There is one format and three places it appears. While a scan runs,
//! worker *k* rewrites `<path>.shard-k` every [`checkpoint_every`]
//! batches; a resume consolidates whatever it inherits into
//! `<path>.shard-base`; and a finished scan leaves a single file at
//! [`checkpoint_path`] itself whose one segment covers
//! `[0, total_batches)`. Because batches are the engine's unit of
//! determinism (the block shuffle is seeded, and every batch is
//! processed whole by one worker), any set of files whose segments
//! consolidate resumes to a report and telemetry snapshot
//! byte-identical to an uninterrupted run — the contract
//! `tests/checkpoint_resume.rs` enforces.
//!
//! # Atomicity
//!
//! [`ShardCheckpoint::save`] writes to a temporary sibling file and
//! renames it over the target, so a crash mid-write leaves the previous
//! checkpoint intact: a file on disk is always complete.
//!
//! # Config fingerprint
//!
//! A checkpoint is only meaningful under the configuration that
//! produced it: the block shuffle (targets, seed), the probed ports,
//! batch size, tarpit threshold, stage toggles and the retry policy all
//! shape what "batch k" means. [`ConfigFingerprint`] captures exactly
//! those knobs and [`ShardCheckpoint::validate`] rejects a resume under
//! a different configuration. The shard count is deliberately *not*
//! fingerprinted — any count yields the identical report, so a scan
//! checkpointed at `--shards 4` may resume at `--shards 8` (or 1).
//!
//! [`checkpoint_every`]: crate::pipeline::PipelineConfig::checkpoint_every
//! [`checkpoint_path`]: crate::pipeline::PipelineConfig::checkpoint_path

use crate::json::{self, object, FromJson, JsonError, ToJson, Value};
use crate::pipeline::PipelineConfig;
use crate::report::ScanReport;
use crate::telemetry::TelemetrySnapshot;
use nokeys_http::ip::Cidr;
use std::fmt;
use std::path::{Path, PathBuf};

/// On-disk format version of [`ShardCheckpoint`] files; bumped on
/// incompatible layout changes.
pub const FORMAT_VERSION: u32 = 1;

/// A checkpoint failure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// Reading or writing the checkpoint file failed.
    Io(String),
    /// The file exists but does not parse as a checkpoint.
    Corrupt(String),
    /// The checkpoint was written by an incompatible format version.
    FormatVersion { found: u32, expected: u32 },
    /// The checkpoint belongs to a different scan configuration; the
    /// string names the first mismatching knob.
    ConfigMismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
            CheckpointError::Corrupt(e) => write!(f, "checkpoint file is corrupt: {e}"),
            CheckpointError::FormatVersion { found, expected } => write!(
                f,
                "checkpoint format v{found} is not supported (expected v{expected})"
            ),
            CheckpointError::ConfigMismatch(knob) => write!(
                f,
                "checkpoint was written under a different configuration ({knob} differs)"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// The configuration knobs that define what a batch sequence number
/// means. Two runs with equal fingerprints sweep the same blocks in
/// the same order with the same per-endpoint behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigFingerprint {
    /// Normalized target list (the builder dedupes and sorts it).
    pub targets: Vec<Cidr>,
    /// Probed ports, in order.
    pub ports: Vec<u16>,
    /// Seed of the /24 block shuffle.
    pub shuffle_seed: u64,
    /// Whether IANA-reserved ranges are skipped.
    pub exclude_reserved: bool,
    /// /24 blocks per stage-I batch.
    pub blocks_per_batch: usize,
    /// All-ports-open exclusion threshold.
    pub tarpit_port_threshold: usize,
    /// Whether the fingerprinter runs.
    pub fingerprint: bool,
    /// Whether stage-III verification runs.
    pub verify: bool,
    /// Retry budget (total attempts per network operation).
    pub retry_max_attempts: u32,
    /// Retry backoff shape: (base, cap, jitter) in virtual units.
    pub retry_backoff_units: (u64, u64, u64),
    /// Seed of the retry jitter stream.
    pub retry_seed: u64,
}

impl ConfigFingerprint {
    /// The fingerprint of a pipeline configuration. `shards` and the
    /// wall-clock pacing knobs (`max_probes_per_sec`,
    /// `retry.real_unit`) are excluded: they change how fast the scan
    /// runs, never what it reports — so a run interrupted at one shard
    /// count may resume at another.
    pub fn of(config: &PipelineConfig) -> Self {
        ConfigFingerprint {
            targets: config.portscan.targets.clone(),
            ports: config.portscan.ports.clone(),
            shuffle_seed: config.portscan.seed,
            exclude_reserved: config.portscan.exclude_reserved,
            blocks_per_batch: config.blocks_per_batch,
            tarpit_port_threshold: config.tarpit_port_threshold,
            fingerprint: config.fingerprint,
            verify: config.verify,
            retry_max_attempts: config.retry.attempts(),
            retry_backoff_units: (
                config.retry.base_units,
                config.retry.cap_units,
                config.retry.jitter_units,
            ),
            retry_seed: config.retry.seed,
        }
    }

    /// The first knob on which `self` and `other` differ, if any.
    pub(crate) fn first_mismatch(&self, other: &Self) -> Option<&'static str> {
        if self.targets != other.targets {
            return Some("targets");
        }
        if self.ports != other.ports {
            return Some("ports");
        }
        if self.shuffle_seed != other.shuffle_seed {
            return Some("shuffle seed");
        }
        if self.exclude_reserved != other.exclude_reserved {
            return Some("exclude_reserved");
        }
        if self.blocks_per_batch != other.blocks_per_batch {
            return Some("blocks_per_batch");
        }
        if self.tarpit_port_threshold != other.tarpit_port_threshold {
            return Some("tarpit threshold");
        }
        if self.fingerprint != other.fingerprint {
            return Some("fingerprint toggle");
        }
        if self.verify != other.verify {
            return Some("verify toggle");
        }
        if self.retry_max_attempts != other.retry_max_attempts {
            return Some("retry attempts");
        }
        if self.retry_backoff_units != other.retry_backoff_units {
            return Some("retry backoff");
        }
        if self.retry_seed != other.retry_seed {
            return Some("retry seed");
        }
        None
    }
}

impl ToJson for ConfigFingerprint {
    fn to_json(&self) -> Value {
        let (base, cap, jitter) = self.retry_backoff_units;
        object([
            ("targets", self.targets.to_json()),
            ("ports", self.ports.to_json()),
            ("shuffle_seed", self.shuffle_seed.to_json()),
            ("exclude_reserved", self.exclude_reserved.to_json()),
            ("blocks_per_batch", self.blocks_per_batch.to_json()),
            (
                "tarpit_port_threshold",
                self.tarpit_port_threshold.to_json(),
            ),
            ("fingerprint", self.fingerprint.to_json()),
            ("verify", self.verify.to_json()),
            ("retry_max_attempts", self.retry_max_attempts.to_json()),
            ("retry_backoff_units", [base, cap, jitter].to_json()),
            ("retry_seed", self.retry_seed.to_json()),
        ])
    }
}

impl FromJson for ConfigFingerprint {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let backoff: Vec<u64> = value.field("retry_backoff_units")?;
        let &[base, cap, jitter] = backoff.as_slice() else {
            return Err(JsonError::Shape(
                "retry_backoff_units: expected [base, cap, jitter]".into(),
            ));
        };
        Ok(ConfigFingerprint {
            targets: value.field("targets")?,
            ports: value.field("ports")?,
            shuffle_seed: value.field("shuffle_seed")?,
            exclude_reserved: value.field("exclude_reserved")?,
            blocks_per_batch: value.field("blocks_per_batch")?,
            tarpit_port_threshold: value.field("tarpit_port_threshold")?,
            fingerprint: value.field("fingerprint")?,
            verify: value.field("verify")?,
            retry_max_attempts: value.field("retry_max_attempts")?,
            retry_backoff_units: (base, cap, jitter),
            retry_seed: value.field("retry_seed")?,
        })
    }
}

/// One contiguous run of completed batches: the partial report and the
/// telemetry recorded while processing exactly those batches.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSegment {
    /// First batch index covered (inclusive).
    pub start_batch: u64,
    /// One past the last batch index covered.
    pub end_batch: u64,
    /// Report accumulated over `[start_batch, end_batch)`.
    pub report: ScanReport,
    /// Telemetry delta recorded over the same batches.
    pub telemetry: TelemetrySnapshot,
}

impl ShardSegment {
    pub(crate) fn len(&self) -> u64 {
        self.end_batch.saturating_sub(self.start_batch)
    }
}

impl ToJson for ShardSegment {
    fn to_json(&self) -> Value {
        object([
            ("start_batch", self.start_batch.to_json()),
            ("end_batch", self.end_batch.to_json()),
            ("report", self.report.to_json()),
            ("telemetry", ToJson::to_json(&self.telemetry)),
        ])
    }
}

impl FromJson for ShardSegment {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        Ok(ShardSegment {
            start_batch: value.field("start_batch")?,
            end_batch: value.field("end_batch")?,
            report: value.field("report")?,
            telemetry: value.field("telemetry")?,
        })
    }
}

/// Persistent scan state: one worker's finished segments
/// (`<path>.shard-k`), the consolidated inheritance of a resume
/// (`<path>.shard-base`), or — at the base path — a finished scan.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCheckpoint {
    /// Fingerprint of the configuration that produced this checkpoint.
    pub fingerprint: ConfigFingerprint,
    /// Batch count of the whole scan under that configuration; a
    /// cross-check that segment indices mean what we think they mean.
    pub total_batches: u64,
    /// Completed segments, in the order the worker finished them.
    pub segments: Vec<ShardSegment>,
}

impl ShardCheckpoint {
    /// Load and parse a checkpoint file.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let bytes =
            std::fs::read(path).map_err(|e| CheckpointError::Io(format!("{path:?}: {e}")))?;
        let corrupt = |e: JsonError| CheckpointError::Corrupt(e.to_string());
        let value = json::parse(&bytes).map_err(corrupt)?;
        // The version gates everything else: a future layout need not
        // even have today's fields.
        let format: u32 = value.field("format").map_err(corrupt)?;
        if format != FORMAT_VERSION {
            return Err(CheckpointError::FormatVersion {
                found: format,
                expected: FORMAT_VERSION,
            });
        }
        Ok(ShardCheckpoint {
            fingerprint: value.field("fingerprint").map_err(corrupt)?,
            total_batches: value.field("total_batches").map_err(corrupt)?,
            segments: value.field("segments").map_err(corrupt)?,
        })
    }

    /// Write the checkpoint atomically: serialize to `<path>.tmp`, then
    /// rename over `path`. A crash at any point leaves either the old
    /// or the new checkpoint on disk, never a torn file.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let bytes = object([
            ("format", FORMAT_VERSION.to_json()),
            ("fingerprint", self.fingerprint.to_json()),
            ("total_batches", self.total_batches.to_json()),
            ("segments", self.segments.to_json()),
        ])
        .write();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        std::fs::write(&tmp, bytes).map_err(|e| CheckpointError::Io(format!("{tmp:?}: {e}")))?;
        std::fs::rename(&tmp, path).map_err(|e| CheckpointError::Io(format!("{path:?}: {e}")))
    }

    /// Reject the checkpoint unless it was produced under `current`
    /// over the same batch sequence.
    pub fn validate(
        &self,
        current: &ConfigFingerprint,
        total_batches: u64,
    ) -> Result<(), CheckpointError> {
        if let Some(knob) = self.fingerprint.first_mismatch(current) {
            return Err(CheckpointError::ConfigMismatch(knob.to_string()));
        }
        if self.total_batches != total_batches {
            return Err(CheckpointError::Corrupt(format!(
                "checkpoint covers a {}-batch scan, this scan has {total_batches}",
                self.total_batches
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Telemetry;

    fn config() -> PipelineConfig {
        PipelineConfig::builder(vec!["20.0.0.0/16".parse().unwrap()]).build()
    }

    fn checkpoint() -> ShardCheckpoint {
        let telemetry = Telemetry::new();
        telemetry.counter("stage1.probes_sent").add(42);
        ShardCheckpoint {
            fingerprint: ConfigFingerprint::of(&config()),
            total_batches: 32,
            segments: vec![ShardSegment {
                start_batch: 4,
                end_batch: 9,
                report: ScanReport::default(),
                telemetry: telemetry.snapshot(),
            }],
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("nokeys-checkpoint-{}-{name}", std::process::id()))
    }

    #[test]
    fn save_and_load_round_trip() {
        let path = temp_path("roundtrip.json");
        let cp = checkpoint();
        cp.save(&path).expect("saves");
        let loaded = ShardCheckpoint::load(&path).expect("loads");
        assert_eq!(loaded, cp);
        assert_eq!(
            loaded.segments[0].telemetry.counter("stage1.probes_sent"),
            42
        );
        // No temp file left behind.
        assert!(!path.with_extension("json.tmp").exists());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = ShardCheckpoint::load(&temp_path("does-not-exist.json")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)), "{err}");
    }

    #[test]
    fn garbage_and_wrong_shapes_are_reported_as_corrupt() {
        let path = temp_path("garbage.json");
        for bytes in [
            &b"not a checkpoint"[..],
            b"{\"format\": 1}",
            b"{\"format\": 1, \"fingerprint\": 7, \"total_batches\": 1, \"segments\": []}",
            b"[]",
        ] {
            std::fs::write(&path, bytes).unwrap();
            let err = ShardCheckpoint::load(&path).unwrap_err();
            assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn other_format_versions_are_rejected() {
        let path = temp_path("future.json");
        // Written by hand — `save` always writes the current format. The
        // rest of a future layout is unknown, so only the version is read.
        std::fs::write(&path, format!("{{\"format\": {}}}", FORMAT_VERSION + 1)).unwrap();
        let err = ShardCheckpoint::load(&path).unwrap_err();
        assert_eq!(
            err,
            CheckpointError::FormatVersion {
                found: FORMAT_VERSION + 1,
                expected: FORMAT_VERSION
            }
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn validate_names_the_mismatching_knob() {
        let cp = checkpoint();
        assert!(cp.validate(&ConfigFingerprint::of(&config()), 32).is_ok());
        // Wrong scan length is corruption, not a config mismatch.
        assert!(matches!(
            cp.validate(&ConfigFingerprint::of(&config()), 64)
                .unwrap_err(),
            CheckpointError::Corrupt(_)
        ));

        let other = PipelineConfig::builder(vec!["20.0.0.0/16".parse().unwrap()])
            .seed(999)
            .build();
        let err = cp.validate(&ConfigFingerprint::of(&other), 32).unwrap_err();
        assert_eq!(
            err,
            CheckpointError::ConfigMismatch("shuffle seed".to_string())
        );

        let other = PipelineConfig::builder(vec!["20.0.0.0/16".parse().unwrap()])
            .retries(9)
            .build();
        let err = cp.validate(&ConfigFingerprint::of(&other), 32).unwrap_err();
        assert_eq!(
            err,
            CheckpointError::ConfigMismatch("retry attempts".to_string())
        );
    }

    /// A checkpoint taken at `--shards 4` must resume at `--shards 8`
    /// (or 1): the shard count repartitions the same deterministic
    /// batch sequence, so it never changes what the scan reports.
    #[test]
    fn shards_are_not_fingerprinted() {
        let s4 = PipelineConfig::builder(vec!["20.0.0.0/16".parse().unwrap()])
            .shards(4)
            .build();
        let s8 = PipelineConfig::builder(vec!["20.0.0.0/16".parse().unwrap()])
            .shards(8)
            .build();
        assert_eq!(ConfigFingerprint::of(&s4), ConfigFingerprint::of(&s8));
    }
}
