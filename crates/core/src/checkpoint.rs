//! Crash-safe scan checkpointing.
//!
//! An Internet-wide sweep runs for hours; losing it to a crash, a
//! deploy or an operator mistake means re-probing the whole address
//! space. This module persists the pipeline's progress as a
//! [`ScanCheckpoint`]: the number of completed stage-I /24 batches, the
//! [`ScanReport`] accumulated over that prefix (stage-II/III outcomes
//! included) and the matching [`TelemetrySnapshot`] (retry counters,
//! stage timings, the virtual clock).
//!
//! [`Pipeline::run`](crate::pipeline::Pipeline::run) writes a
//! checkpoint every [`checkpoint_every`] batches when a
//! [`checkpoint_path`] is configured, and
//! [`Pipeline::resume`](crate::pipeline::Pipeline::resume) replays the
//! stored prefix and continues live from the first incomplete batch.
//! Because stage-I batches are the pipeline's unit of determinism (the
//! block shuffle is seeded and batches are processed in sequence
//! order), a resumed run produces a report and telemetry snapshot
//! byte-identical to an uninterrupted run at any parallelism — the
//! contract `tests/checkpoint_resume.rs` enforces.
//!
//! # Atomicity
//!
//! [`ScanCheckpoint::save`] writes to a temporary sibling file and
//! renames it over the target, so a crash mid-write leaves the previous
//! checkpoint intact: the file on disk is always a complete, valid
//! prefix.
//!
//! # Config fingerprint
//!
//! A checkpoint is only meaningful under the configuration that
//! produced it: the block shuffle (targets, seed), the probed ports,
//! batch size, tarpit threshold, stage toggles and the retry policy all
//! shape what "batch k" means. [`ConfigFingerprint`] captures exactly
//! those knobs and [`ScanCheckpoint::validate`] rejects a resume under
//! a different configuration. `parallelism` is deliberately *not*
//! fingerprinted — any parallelism yields the identical report, so a
//! scan checkpointed at `-p 1` may resume at `-p 8` and vice versa.
//!
//! [`checkpoint_every`]: crate::pipeline::PipelineConfig::checkpoint_every
//! [`checkpoint_path`]: crate::pipeline::PipelineConfig::checkpoint_path

use crate::pipeline::PipelineConfig;
use crate::report::ScanReport;
use crate::telemetry::TelemetrySnapshot;
use nokeys_http::ip::Cidr;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;

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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// The fingerprint of a pipeline configuration. `parallelism`,
    /// `shards`, the wall-clock pacing knobs (`max_probes_per_sec`,
    /// `retry.real_unit`), and the `dense_sweep` oracle switch are
    /// excluded: they change how fast the scan runs, never what it
    /// reports — so a run interrupted in one sweep mode (or at one
    /// shard count) may resume in another.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Telemetry;

    fn config() -> PipelineConfig {
        PipelineConfig::builder(vec!["20.0.0.0/16".parse().unwrap()]).build()
    }

    fn checkpoint() -> ScanCheckpoint {
        let telemetry = Telemetry::new();
        telemetry.counter("stage1.probes_sent").add(42);
        ScanCheckpoint {
            format: CHECKPOINT_FORMAT,
            fingerprint: ConfigFingerprint::of(&config()),
            batches_done: 3,
            finished: false,
            report: ScanReport::default(),
            telemetry: telemetry.snapshot(),
        }
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("nokeys-checkpoint-{}-{name}", std::process::id()))
    }

    #[test]
    fn save_and_load_round_trip() {
        let path = temp_path("roundtrip.json");
        let cp = checkpoint();
        cp.save(&path).expect("saves");
        let loaded = ScanCheckpoint::load(&path).expect("loads");
        assert_eq!(loaded.batches_done, 3);
        assert!(!loaded.finished);
        assert_eq!(loaded.fingerprint, cp.fingerprint);
        assert_eq!(loaded.telemetry.counter("stage1.probes_sent"), 42);
        // No temp file left behind.
        assert!(!path.with_extension("json.tmp").exists());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = ScanCheckpoint::load(&temp_path("does-not-exist.json")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)), "{err}");
    }

    #[test]
    fn garbage_is_reported_as_corrupt() {
        let path = temp_path("garbage.json");
        std::fs::write(&path, b"not a checkpoint").unwrap();
        let err = ScanCheckpoint::load(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn future_format_versions_are_rejected() {
        let path = temp_path("future.json");
        let mut cp = checkpoint();
        cp.format = CHECKPOINT_FORMAT + 1;
        // Serialize by hand — `save` always writes the current format.
        std::fs::write(&path, serde_json::to_vec(&cp).unwrap()).unwrap();
        let err = ScanCheckpoint::load(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::FormatVersion { .. }), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn validate_names_the_mismatching_knob() {
        let cp = checkpoint();
        assert!(cp.validate(&ConfigFingerprint::of(&config())).is_ok());

        let other = PipelineConfig::builder(vec!["20.0.0.0/16".parse().unwrap()])
            .seed(999)
            .build();
        let err = cp.validate(&ConfigFingerprint::of(&other)).unwrap_err();
        assert_eq!(
            err,
            CheckpointError::ConfigMismatch("shuffle seed".to_string())
        );

        let other = PipelineConfig::builder(vec!["20.0.0.0/16".parse().unwrap()])
            .retries(9)
            .build();
        let err = cp.validate(&ConfigFingerprint::of(&other)).unwrap_err();
        assert_eq!(
            err,
            CheckpointError::ConfigMismatch("retry attempts".to_string())
        );
    }

    #[test]
    fn parallelism_is_not_fingerprinted() {
        let p1 = PipelineConfig::builder(vec!["20.0.0.0/16".parse().unwrap()])
            .parallelism(1)
            .build();
        let p8 = PipelineConfig::builder(vec!["20.0.0.0/16".parse().unwrap()])
            .parallelism(8)
            .build();
        assert_eq!(ConfigFingerprint::of(&p1), ConfigFingerprint::of(&p8));
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
        let cp = ScanCheckpoint {
            fingerprint: ConfigFingerprint::of(&s4),
            ..checkpoint()
        };
        assert!(cp.validate(&ConfigFingerprint::of(&s8)).is_ok());
    }

    /// Like shard count, the external worker count repartitions the
    /// same deterministic batch sequence: a checkpoint taken at
    /// `--workers 2` must resume at `--workers 4`, in-process, or
    /// vice versa. `ScanSpec::workers` never reaches the pipeline
    /// config, so the fingerprint cannot depend on it.
    #[test]
    fn workers_are_not_fingerprinted() {
        use crate::jobs::ScanSpec;
        let targets: Vec<crate::portscan::Cidr> = vec!["20.0.0.0/16".parse().unwrap()];
        let mut w0 = ScanSpec::new(targets.clone());
        let mut w4 = ScanSpec::new(targets);
        w0.workers = None;
        w4.workers = Some(4);
        assert_eq!(
            ConfigFingerprint::of(&w0.to_builder().build()),
            ConfigFingerprint::of(&w4.to_builder().build())
        );
    }
}
