//! Crash-safe scan checkpointing: one append-only log.
//!
//! An Internet-wide sweep runs for hours; losing it to a crash, a
//! deploy or an operator mistake means re-probing the whole address
//! space. With a [`checkpoint_path`] configured, the scan engine
//! ([`shard`](crate::shard)) therefore logs every batch it finishes to
//! a [`CheckpointLog`] — the one file at that path, and the only file
//! checkpointing ever creates:
//!
//! ```text
//! {"format":6,"fingerprint":{…},"total_batches":N}\n     header
//! {"seq":17,"findings":[…],"telemetry":{…}}\n            one per finished batch,
//! {"seq":3,"findings":[…],"telemetry":{…}}\n             in completion order
//! ```
//!
//! A batch line holds the [`HostFinding`]s of exactly that batch and
//! the [`TelemetrySnapshot`] of the work it took (its stage, retry and
//! injected-fault counters). That is the whole batch:
//! every count of the [`ScanReport`](crate::report::ScanReport) is read
//! off the telemetry when the scan finishes. A batch records into its
//! own registry, so its line is a function of the batch alone: the same
//! bytes whichever worker, process or shard count produced it. Only the
//! order of the lines depends on the run.
//! Batches are the engine's unit of determinism — the block shuffle is
//! seeded and every batch is processed whole by one worker — so any set
//! of logged batches plus a scan of the missing ones adds up to a
//! report and telemetry snapshot byte-identical to an uninterrupted
//! run: the contract `tests/checkpoint_resume.rs` enforces. A finished
//! scan is simply a log that holds every batch.
//!
//! # Crash safety
//!
//! Nothing is ever rewritten. Each line goes out in a single
//! `write_all`, newline included, and the compact writer escapes every
//! newline inside a string, so `\n` only ever ends a record. A process
//! killed mid-append therefore leaves whole lines followed by at most
//! one torn tail with no newline: [`CheckpointLog::resume`] drops that
//! tail from what it returns *and* truncates it from the file before
//! anything is appended, and the batch it belonged to is rescanned.
//! Every *complete* line is outside input and must check out — one that
//! does not parse, or a batch index past the end of the scan or logged
//! twice, is [`CheckpointError::Corrupt`], never skipped. (Lines are handed to the operating system, not fsynced: the
//! log survives the death of the process, which is the failure a
//! day-long scan actually meets, not the loss of the machine.)
//!
//! # Config fingerprint
//!
//! A log is only meaningful under the configuration that produced it:
//! the block shuffle (targets, seed), the probed ports, batch size,
//! tarpit threshold and the retry budget all shape what "batch k"
//! means. [`PipelineConfig::fingerprint`] writes exactly those fields
//! as one JSON object, the header stores it, and
//! [`CheckpointLog::resume`] refuses a log written under a different
//! fingerprint, naming the first key whose value differs. The run-only
//! fields — shard count, probe rate, backoff unit, checkpoint path —
//! are deliberately *not* fingerprinted: they never change the report,
//! so a scan checkpointed at `--shards 4` may resume at `--shards 8`
//! (or 1).
//!
//! [`checkpoint_path`]: crate::pipeline::PipelineConfig::checkpoint_path
//! [`PipelineConfig::fingerprint`]: crate::pipeline::PipelineConfig::fingerprint

use crate::json::{self, object, JsonError, ToJson, Value};
use crate::report::HostFinding;
use crate::telemetry::TelemetrySnapshot;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

/// On-disk format version of the checkpoint log; bumped on incompatible
/// layout changes. (1 was the rewritten per-worker segment files; 2
/// logged virtual-clock timings in each batch's telemetry; 3
/// fingerprinted the retry backoff shape and jitter seed, and its
/// batches lacked their injected-fault counts; 4 logged each batch's
/// report, counts and all, beside its telemetry; 5 logged histograms
/// beside the counters.)
pub const FORMAT_VERSION: u32 = 6;

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
    /// string names the first fingerprint key whose value differs.
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

/// The finished batches a log holds, by batch sequence number: each
/// batch's findings and the telemetry of the work it took.
pub type LoggedBatches = BTreeMap<u64, (Vec<HostFinding>, TelemetrySnapshot)>;

/// The checkpoint file, open for appending.
#[derive(Debug)]
pub struct CheckpointLog {
    file: File,
}

impl CheckpointLog {
    /// Start a log at `path` — truncating whatever was there — and
    /// write its header.
    pub fn create(
        path: &Path,
        fingerprint: &Value,
        total_batches: u64,
    ) -> Result<Self, CheckpointError> {
        let file = File::create(path).map_err(|e| io_error(path, e))?;
        let mut log = CheckpointLog { file };
        log.write_line(object([
            ("format", FORMAT_VERSION.to_json()),
            ("fingerprint", fingerprint.clone()),
            ("total_batches", total_batches.to_json()),
        ]))?;
        Ok(log)
    }

    /// Reopen the log at `path` for a scan of `total_batches` batches
    /// under `fingerprint`: check the header against both, read every
    /// whole batch line back, and cut a torn last line off the file so
    /// the next append starts on a line boundary.
    pub fn resume(
        path: &Path,
        fingerprint: &Value,
        total_batches: u64,
    ) -> Result<(Self, LoggedBatches), CheckpointError> {
        let mut file = File::options()
            .read(true)
            .append(true)
            .open(path)
            .map_err(|e| io_error(path, e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| io_error(path, e))?;
        // Everything after the last newline is a torn tail.
        let whole = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        let corrupt = |e: JsonError| CheckpointError::Corrupt(e.to_string());
        let mut lines = bytes[..whole].split_inclusive(|&b| b == b'\n');
        let header = lines
            .next()
            .ok_or_else(|| CheckpointError::Corrupt("no header".into()))?;
        let header = json::parse(header).map_err(corrupt)?;
        // The version gates everything else: a future layout need not
        // even have today's fields.
        let format: u32 = header.field("format").map_err(corrupt)?;
        if format != FORMAT_VERSION {
            return Err(CheckpointError::FormatVersion {
                found: format,
                expected: FORMAT_VERSION,
            });
        }
        let logged = Value::Object(header.field("fingerprint").map_err(corrupt)?);
        if let Some(key) = first_mismatch(&logged, fingerprint) {
            return Err(CheckpointError::ConfigMismatch(key.to_string()));
        }
        let logged_total: u64 = header.field("total_batches").map_err(corrupt)?;
        if logged_total != total_batches {
            return Err(CheckpointError::Corrupt(format!(
                "checkpoint covers a {logged_total}-batch scan, this scan has {total_batches}"
            )));
        }
        let mut batches = LoggedBatches::new();
        for line in lines {
            let line = json::parse(line).map_err(corrupt)?;
            let seq: u64 = line.field("seq").map_err(corrupt)?;
            if seq >= total_batches {
                return Err(CheckpointError::Corrupt(format!(
                    "batch {seq} logged in a {total_batches}-batch scan"
                )));
            }
            let findings = line.field("findings").map_err(corrupt)?;
            let telemetry: TelemetrySnapshot = line.field("telemetry").map_err(corrupt)?;
            if batches.insert(seq, (findings, telemetry)).is_some() {
                return Err(CheckpointError::Corrupt(format!(
                    "batch {seq} logged twice"
                )));
            }
        }
        if whole < bytes.len() {
            file.set_len(whole as u64).map_err(|e| io_error(path, e))?;
        }
        Ok((CheckpointLog { file }, batches))
    }

    /// Log one finished batch.
    pub fn append(
        &mut self,
        seq: u64,
        findings: &[HostFinding],
        telemetry: &TelemetrySnapshot,
    ) -> Result<(), CheckpointError> {
        self.write_line(object([
            ("seq", seq.to_json()),
            ("findings", findings.to_json()),
            ("telemetry", ToJson::to_json(telemetry)),
        ]))
    }

    /// One record, one `write_all`: the compact form holds no raw
    /// newline, so the one pushed here is the only one written.
    fn write_line(&mut self, record: Value) -> Result<(), CheckpointError> {
        let mut line = record.write();
        line.push('\n');
        self.file
            .write_all(line.as_bytes())
            .map_err(|e| CheckpointError::Io(e.to_string()))
    }
}

/// The first key, in key order, whose value differs between two
/// fingerprint objects; a key only one of them holds differs too.
fn first_mismatch<'a>(a: &'a Value, b: &'a Value) -> Option<&'a str> {
    let (Value::Object(a), Value::Object(b)) = (a, b) else {
        return (a != b).then_some("fingerprint");
    };
    (a.keys().chain(b.keys()))
        .filter(|key| a.get(*key) != b.get(*key))
        .min()
        .map(String::as_str)
}

fn io_error(path: &Path, e: std::io::Error) -> CheckpointError {
    CheckpointError::Io(format!("{path:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use crate::telemetry::Telemetry;
    use nokeys_apps::AppId;
    use nokeys_http::{Endpoint, Scheme};
    use std::net::Ipv4Addr;
    use std::path::PathBuf;

    const TOTAL: u64 = 32;

    fn config() -> PipelineConfig {
        PipelineConfig::new(vec!["20.0.0.0/16".parse().unwrap()])
    }

    fn fingerprint() -> Value {
        config().fingerprint()
    }

    /// A batch whose findings and telemetry both depend on `seq`.
    fn batch(seq: u64) -> (Vec<HostFinding>, TelemetrySnapshot) {
        let finding = HostFinding {
            endpoint: Endpoint::new(Ipv4Addr::new(20, 0, seq as u8, 1), 8080),
            scheme: Scheme::Https,
            app: AppId::Jenkins,
            vulnerable: seq.is_multiple_of(2),
            version: None,
            fingerprint_method: None,
        };
        let telemetry = Telemetry::new();
        telemetry.counter("stage1.probes_sent").add(100 + seq);
        (vec![finding], telemetry.snapshot())
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("nokeys-checkpoint-{}-{name}", std::process::id()))
    }

    /// A log at `path` holding `seqs`, in that order.
    fn write_log(path: &Path, seqs: &[u64]) {
        let mut log = CheckpointLog::create(path, &fingerprint(), TOTAL).expect("creates");
        for &seq in seqs {
            let (findings, telemetry) = batch(seq);
            log.append(seq, &findings, &telemetry).expect("appends");
        }
    }

    fn resume(path: &Path) -> Result<(CheckpointLog, LoggedBatches), CheckpointError> {
        CheckpointLog::resume(path, &fingerprint(), TOTAL)
    }

    fn expected(seqs: &[u64]) -> LoggedBatches {
        seqs.iter().map(|&seq| (seq, batch(seq))).collect()
    }

    #[test]
    fn save_and_load_round_trip() {
        let path = temp_path("roundtrip.log");
        // Whatever was at the path is gone once a fresh log starts.
        std::fs::write(&path, b"left over from an earlier scan\n").unwrap();
        write_log(&path, &[17, 3]);
        let (mut log, batches) = resume(&path).expect("resumes");
        assert_eq!(batches, expected(&[17, 3]));
        assert_eq!(batches[&17].1.counter("stage1.probes_sent"), 117);
        // A resumed log keeps appending where the dead run stopped.
        let (findings, telemetry) = batch(9);
        log.append(9, &findings, &telemetry).expect("appends");
        drop(log);
        let (_, batches) = resume(&path).expect("resumes again");
        assert_eq!(batches, expected(&[17, 3, 9]));
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 4, "a header and three batches");
        assert!(text.starts_with("{\"fingerprint\":") && text.ends_with("}\n"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = resume(&temp_path("does-not-exist.log")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)), "{err}");
    }

    /// A write that died mid-line leaves a tail without a newline. Cut
    /// the log at every 7th byte after the header (and one byte short of
    /// whole): the whole lines before the cut come back, and the tail is
    /// gone from the file once the resumed run appends.
    #[test]
    fn torn_last_line_is_cut_off_and_whole_lines_survive() {
        let path = temp_path("torn.log");
        write_log(&path, &[20]);
        let line_20 = std::fs::read(&path).unwrap();
        let line_20 = line_20.split_inclusive(|&b| b == b'\n').nth(1).unwrap();
        let seqs = [4, 0, 31, 7, 12];
        write_log(&path, &seqs);
        let bytes = std::fs::read(&path).unwrap();
        let line_ends: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] == b'\n').collect();
        assert_eq!(line_ends.len(), 6);
        let header_len = line_ends[0] + 1;
        let cuts = (header_len..bytes.len())
            .step_by(7)
            .chain([bytes.len() - 1]);
        for cut in cuts {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            // Lines that made it out whole, the header among them.
            let whole = line_ends.iter().filter(|&&end| end < cut).count();
            let kept = &bytes[..=line_ends[whole - 1]];
            let (mut log, batches) = resume(&path).expect("a torn tail is not corruption");
            assert_eq!(batches, expected(&seqs[..whole - 1]), "cut at {cut}");
            let (findings, telemetry) = batch(20);
            log.append(20, &findings, &telemetry).expect("appends");
            let after = std::fs::read(&path).unwrap();
            assert_eq!(after, [kept, line_20].concat(), "cut at {cut}");
        }
        // Cut inside the header there is no log to speak of.
        for cut in [0, 1, header_len / 2, header_len - 1] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let err = resume(&path).unwrap_err();
            assert_eq!(err, CheckpointError::Corrupt("no header".into()));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn garbage_and_wrong_shapes_are_reported_as_corrupt() {
        let path = temp_path("garbage.log");
        write_log(&path, &[5]);
        let good = std::fs::read_to_string(&path).unwrap();
        let (header, batch_line) = good.split_once('\n').unwrap();
        let batch_line = batch_line.trim_end();
        let out_of_range = batch_line.replace("\"seq\":5", "\"seq\":32");
        assert_ne!(out_of_range, batch_line);
        for (contents, what) in [
            ("not a checkpoint\n".to_string(), "bad JSON"),
            ("[]\n".to_string(), "missing field `format`"),
            (
                format!("{{\"format\":{FORMAT_VERSION}}}\n"),
                "missing field `fingerprint`",
            ),
            (
                format!("{{\"format\":{FORMAT_VERSION},\"fingerprint\":7,\"total_batches\":32}}\n"),
                "fingerprint",
            ),
            // Complete lines after a good header are checked, not skipped.
            (format!("{header}\nnot a batch\n"), "bad JSON"),
            (format!("{header}\n\n"), "ends inside a value"),
            (format!("{header}\n{header}\n"), "missing field `seq`"),
            (
                format!("{header}\n{{\"seq\":1}}\n"),
                "missing field `findings`",
            ),
            (
                format!("{header}\n{out_of_range}\n"),
                "batch 32 logged in a 32-batch scan",
            ),
            (
                format!("{header}\n{batch_line}\n{batch_line}\n"),
                "batch 5 logged twice",
            ),
            // ... even when a torn tail follows them.
            (format!("{header}\nnot a batch\n{{\"seq\":"), "bad JSON"),
        ] {
            std::fs::write(&path, &contents).unwrap();
            let err = resume(&path).unwrap_err();
            let CheckpointError::Corrupt(why) = &err else {
                panic!("{contents:?}: expected Corrupt, got {err:?}");
            };
            assert!(why.contains(what), "{contents:?}: {why}");
            // A refused log is left exactly as it was found.
            assert_eq!(std::fs::read_to_string(&path).unwrap(), contents);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn other_format_versions_are_rejected() {
        let path = temp_path("future.log");
        // Written by hand — `create` always writes the current format.
        // The rest of another layout is unknown, so only the version is
        // read: format 1 was a single pretty-printed document per file,
        // format 2 a log whose batch snapshots carried timings, format 3
        // one whose batches lacked their injected-fault counts, format 4
        // one whose batches logged a report beside their telemetry,
        // format 5 one whose batches logged histograms.
        for found in [FORMAT_VERSION + 1, 5, 4, 3, 2, 1] {
            std::fs::write(&path, format!("{{\"format\": {found}}}\n")).unwrap();
            assert_eq!(
                resume(&path).unwrap_err(),
                CheckpointError::FormatVersion {
                    found,
                    expected: FORMAT_VERSION
                }
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn validate_names_the_mismatching_knob() {
        let path = temp_path("mismatch.log");
        write_log(&path, &[1, 2]);
        assert!(resume(&path).is_ok());
        // Wrong scan length is corruption, not a config mismatch.
        assert!(matches!(
            CheckpointLog::resume(&path, &fingerprint(), 64).unwrap_err(),
            CheckpointError::Corrupt(_)
        ));

        let base = fingerprint();
        // The same twelve ports in another order: the threshold they
        // resolve is unchanged, the sweep order is not.
        let mut reordered = config().ports;
        reordered.reverse();
        for (other, key) in [
            (
                PipelineConfig {
                    targets: vec!["20.1.0.0/16".parse().unwrap()],
                    ..config()
                },
                "targets",
            ),
            (
                PipelineConfig {
                    ports: reordered,
                    ..config()
                },
                "ports",
            ),
            (
                PipelineConfig {
                    seed: 999,
                    ..config()
                },
                "shuffle_seed",
            ),
            (
                PipelineConfig {
                    exclude_reserved: false,
                    ..config()
                },
                "exclude_reserved",
            ),
            (
                PipelineConfig {
                    blocks_per_batch: 8,
                    ..config()
                },
                "blocks_per_batch",
            ),
            (
                PipelineConfig {
                    tarpit_port_threshold: Some(5),
                    ..config()
                },
                "tarpit_port_threshold",
            ),
            (
                PipelineConfig {
                    max_attempts: 9,
                    ..config()
                },
                "retry_max_attempts",
            ),
        ] {
            let Value::Object(fields) = other.fingerprint() else {
                panic!("a fingerprint is an object");
            };
            let changed: Vec<&String> = (fields.iter())
                .filter(|(k, v)| base.get(k) != Some(*v))
                .map(|(k, _)| k)
                .collect();
            assert_eq!(changed, [key], "each case changes exactly one field");
            let err = CheckpointLog::resume(&path, &other.fingerprint(), TOTAL).unwrap_err();
            assert_eq!(err, CheckpointError::ConfigMismatch(key.to_string()));
        }
        // The threshold is logged as resolved: an explicit value equal
        // to the default is the same scan.
        let explicit = PipelineConfig {
            tarpit_port_threshold: Some(12),
            ..config()
        };
        assert_eq!(explicit.fingerprint(), fingerprint());
        let _ = std::fs::remove_file(&path);
    }

    /// The run-only fields change how fast a scan runs, never what it
    /// reports: a checkpoint taken at `--shards 4` must resume at
    /// `--shards 8` (or 1), at another rate, backoff or path.
    #[test]
    fn run_only_fields_are_not_fingerprinted() {
        for other in [
            PipelineConfig {
                shards: 8,
                ..config()
            },
            PipelineConfig {
                max_probes_per_sec: Some(100.0),
                ..config()
            },
            PipelineConfig {
                backoff_unit: std::time::Duration::from_millis(1),
                ..config()
            },
            PipelineConfig {
                checkpoint_path: Some(temp_path("elsewhere.log")),
                ..config()
            },
        ] {
            assert_ne!(other, config());
            assert_eq!(other.fingerprint(), fingerprint(), "{other:?}");
        }
    }

    /// The header's bytes are the on-disk format: this is the line a
    /// `repro table2 --quick` checkpoint starts with. A change here
    /// must bump `FORMAT_VERSION`.
    #[test]
    fn header_bytes_are_pinned() {
        let path = temp_path("header.log");
        CheckpointLog::create(&path, &fingerprint(), 4).expect("creates");
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            concat!(
                r#"{"fingerprint":{"blocks_per_batch":64,"exclude_reserved":true,"#,
                r#""ports":[80,443,2375,4646,6443,8000,8080,8088,8153,8192,8500,8888],"#,
                r#""retry_max_attempts":3,"shuffle_seed":121424822237555,"#,
                r#""targets":["20.0.0.0/16"],"tarpit_port_threshold":12},"#,
                r#""format":6,"total_batches":4}"#,
                "\n"
            )
        );
        let _ = std::fs::remove_file(&path);
    }
}
