//! Crash-safe checkpointing on the one scan engine: a scan killed
//! mid-run and resumed from the files it left behind must produce a
//! `ScanReport` and telemetry snapshot byte-identical to an
//! uninterrupted run — at a different shard count than the one that
//! died, with or without injected transport faults — and a checkpoint
//! that does not belong to the scan, or does not add up, is refused by
//! name.
//!
//! The kill is modeled with [`KillableTransport`]: after a budget of
//! network operations every further one tears its worker thread down
//! (an unwind no pipeline code runs under), so no batch in flight
//! completes and no farewell checkpoint is written. The scan reports
//! its dead workers as an error; the test then resumes a fresh pipeline
//! (fresh transport, fresh registry) from whatever is on disk.

use nokeys::http::Client;
use nokeys::netsim::{Cidr, KillSwitch, KillableTransport, SimTransport, Universe, UniverseConfig};
use nokeys::scanner::shard::{existing_shard_files, merge_segments, scan_segment};
use nokeys::scanner::{
    CheckpointError, ConfigFingerprint, Pipeline, PipelineConfig, PipelineError, ScanReport,
    ShardCheckpoint, Telemetry, TelemetrySnapshot,
};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

fn universe() -> &'static Arc<Universe> {
    static UNIVERSE: OnceLock<Arc<Universe>> = OnceLock::new();
    UNIVERSE.get_or_init(|| Arc::new(Universe::generate(UniverseConfig::tiny(42))))
}

fn space() -> Cidr {
    universe().config().space
}

/// A checkpoint base path in a directory of its own, so leftover shard
/// files of one test can never be discovered by another.
fn checkpoint_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nokeys-ckpt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join("scan.json")
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_dir_all(path.parent().expect("checkpoint dir"));
}

/// 32 batches of 8 blocks, checkpointed every second batch.
fn config(shards: usize, telemetry: &Telemetry, checkpoint: Option<&Path>) -> PipelineConfig {
    let mut builder = PipelineConfig::builder(vec![space()])
        .blocks_per_batch(8)
        .shards(shards)
        .retries(3)
        .telemetry(telemetry.clone());
    if let Some(path) = checkpoint {
        builder = builder.checkpoint_path(path).checkpoint_every(2);
    }
    builder.build()
}

fn transport(fault_rate: f64) -> SimTransport {
    SimTransport::new(Arc::clone(universe())).with_fault_injection(fault_rate)
}

/// One uninterrupted run, optionally checkpointed.
fn run_plain(
    shards: usize,
    fault_rate: f64,
    checkpoint: Option<&Path>,
) -> (ScanReport, TelemetrySnapshot) {
    let telemetry = Telemetry::new();
    let pipeline = Pipeline::new(config(shards, &telemetry, checkpoint));
    let report = pipeline
        .run(&Client::new(transport(fault_rate)))
        .expect("scan failed");
    (report, telemetry.snapshot())
}

/// Start a checkpointed run at `shards` over a transport that dies
/// after `budget` network operations. Returns whether it died.
fn run_until_killed(shards: usize, fault_rate: f64, budget: u64, path: &Path) -> bool {
    let switch = KillSwitch::after(budget);
    let doomed = KillableTransport::new(transport(fault_rate), switch.clone());
    let pipeline = Pipeline::new(config(shards, &Telemetry::new(), Some(path)));
    match pipeline.run(&Client::new(doomed)) {
        Err(PipelineError::SweepFailed(_)) if switch.is_tripped() => true,
        Ok(_) if !switch.is_tripped() => false,
        other => panic!("unexpected outcome of the doomed run: {other:?}"),
    }
}

fn resume(shards: usize, fault_rate: f64, path: &Path) -> (ScanReport, TelemetrySnapshot) {
    let telemetry = Telemetry::new();
    let pipeline = Pipeline::new(config(shards, &telemetry, Some(path)));
    let report = pipeline
        .resume(&Client::new(transport(fault_rate)), path)
        .expect("resume failed");
    (report, telemetry.snapshot())
}

#[test]
fn checkpointing_does_not_change_an_uninterrupted_run() {
    let path = checkpoint_path("plain");
    let (clean, clean_snap) = run_plain(4, 0.05, None);
    let (checked, checked_snap) = run_plain(4, 0.05, Some(&path));
    assert_eq!(clean.to_json_string(), checked.to_json_string());
    assert_eq!(clean_snap.to_json(), checked_snap.to_json());

    // The finished scan is one file at the base path, one segment over
    // the whole batch sequence; the workers' files are gone.
    assert!(existing_shard_files(&path).is_empty());
    let finished = ShardCheckpoint::load(&path).expect("finished checkpoint loads");
    assert_eq!(finished.total_batches, 32);
    assert_eq!(finished.segments.len(), 1);
    assert_eq!(
        (
            finished.segments[0].start_batch,
            finished.segments[0].end_batch
        ),
        (0, 32)
    );
    assert_eq!(finished.segments[0].report, checked);

    // Resuming a finished scan rescans nothing: with a zero-operation
    // budget any network access would kill the resume.
    let switch = KillSwitch::after(0);
    let telemetry = Telemetry::new();
    let pipeline = Pipeline::new(config(1, &telemetry, Some(&path)));
    let report = pipeline
        .resume(
            &Client::new(KillableTransport::new(transport(0.05), switch.clone())),
            &path,
        )
        .expect("warm resume failed");
    assert_eq!(switch.used(), 0, "warm resume performed network operations");
    assert_eq!(checked.to_json_string(), report.to_json_string());
    assert_eq!(checked_snap.to_json(), telemetry.snapshot().to_json());
    cleanup(&path);
}

/// Kill at 4 shards after a budget that lets each worker finish a few
/// batches, then resume at 1 shard and — from a second, identical kill —
/// at 8. The shard count is not fingerprinted, so the dead run's
/// per-worker files replay under any count.
#[test]
fn scan_killed_at_four_shards_resumes_at_one_and_at_eight() {
    for fault_rate in [0.0, 0.05] {
        let (baseline, baseline_snap) = run_plain(1, fault_rate, None);
        for resume_shards in [1, 8] {
            let path = checkpoint_path(&format!("kill-f{fault_rate}-k{resume_shards}"));
            // A batch sweeps 8 × 256 × 12 = 24,576 probe operations, so
            // this budget dies roughly a third of the way in, after
            // every worker has checkpointed at least once.
            assert!(
                run_until_killed(4, fault_rate, 270_000, &path),
                "the budget outlived the scan"
            );
            let left_behind = existing_shard_files(&path);
            assert!(!left_behind.is_empty(), "the dead run left no checkpoint");
            assert!(!path.exists(), "a dead run must not look finished");
            let inherited: u64 = left_behind
                .iter()
                .flat_map(|f| ShardCheckpoint::load(f).expect("shard file loads").segments)
                .map(|s| s.end_batch - s.start_batch)
                .sum();
            assert!(
                (1..32).contains(&inherited),
                "kill should land mid-scan, inherited {inherited} of 32 batches"
            );

            let (resumed, resumed_snap) = resume(resume_shards, fault_rate, &path);
            assert_eq!(
                baseline.to_json_string(),
                resumed.to_json_string(),
                "resumed report diverged (faults {fault_rate}, resumed at {resume_shards})"
            );
            assert_eq!(
                baseline_snap.to_json(),
                resumed_snap.to_json(),
                "resumed telemetry diverged (faults {fault_rate}, resumed at {resume_shards})"
            );
            assert!(existing_shard_files(&path).is_empty());
            cleanup(&path);
        }
    }
}

/// A scan that dies twice still resumes to the same bytes: the second
/// generation's workers overwrite the numbered files of the first, and
/// only the consolidated `.shard-base` keeps the first generation's
/// work alive.
#[test]
fn second_kill_loses_no_first_generation_work() {
    let (baseline, baseline_snap) = run_plain(1, 0.0, None);
    let path = checkpoint_path("twice");
    assert!(run_until_killed(4, 0.0, 270_000, &path));
    // Second generation: resume at 2 shards over another doomed
    // transport.
    let switch = KillSwitch::after(200_000);
    let pipeline = Pipeline::new(config(2, &Telemetry::new(), Some(&path)));
    let died = pipeline.resume(
        &Client::new(KillableTransport::new(transport(0.0), switch.clone())),
        &path,
    );
    assert!(
        matches!(died, Err(PipelineError::SweepFailed(_))),
        "{died:?}"
    );
    assert!(switch.is_tripped());
    assert!(
        existing_shard_files(&path)
            .iter()
            .any(|f| f.to_string_lossy().ends_with(".shard-base")),
        "the inheritance was not consolidated before workers started"
    );

    let (resumed, resumed_snap) = resume(4, 0.0, &path);
    assert_eq!(baseline.to_json_string(), resumed.to_json_string());
    assert_eq!(baseline_snap.to_json(), resumed_snap.to_json());
    cleanup(&path);
}

#[test]
fn checkpoint_under_a_different_configuration_is_refused_by_name() {
    let path = checkpoint_path("mismatch");
    assert!(run_until_killed(4, 0.0, 270_000, &path));
    let other = PipelineConfig::builder(vec![space()])
        .blocks_per_batch(8)
        .retries(3)
        .seed(999)
        .build();
    let err = Pipeline::new(other)
        .resume(&Client::new(transport(0.0)), &path)
        .unwrap_err();
    assert_eq!(
        err,
        PipelineError::Checkpoint(CheckpointError::ConfigMismatch("shuffle seed".into()))
    );
    // Nothing to resume from at all is an I/O error, not a fresh scan.
    let nowhere = checkpoint_path("nowhere");
    let err = Pipeline::new(config(1, &Telemetry::new(), Some(&nowhere)))
        .resume(&Client::new(transport(0.0)), &nowhere)
        .unwrap_err();
    assert!(
        matches!(err, PipelineError::Checkpoint(CheckpointError::Io(_))),
        "{err}"
    );
    cleanup(&path);
    cleanup(&nowhere);
}

#[test]
fn partially_overlapping_segments_are_refused_by_name() {
    let path = checkpoint_path("overlap");
    let config = config(1, &Telemetry::new(), Some(&path));
    let client = Client::new(transport(0.0));
    // Two workers' files claiming batches [0, 8) and [4, 12): neither
    // contains the other, so one of them is lying.
    for (worker, (start, end)) in [(0u64, 8u64), (4, 12)].into_iter().enumerate() {
        ShardCheckpoint {
            fingerprint: ConfigFingerprint::of(&config),
            total_batches: 32,
            segments: vec![scan_segment(&config, &client, start, end)],
        }
        .save(Path::new(&format!("{}.shard-{worker}", path.display())))
        .expect("saves");
    }
    let err = Pipeline::new(config).resume(&client, &path).unwrap_err();
    let PipelineError::Checkpoint(CheckpointError::Corrupt(what)) = &err else {
        panic!("expected a corrupt-checkpoint error, got {err:?}");
    };
    assert!(
        what.contains("[0, 8)") && what.contains("[4, 12)") && what.contains("partially overlap"),
        "{what}"
    );
    cleanup(&path);
}

#[test]
fn coverage_gap_is_refused_by_name() {
    let config = config(1, &Telemetry::new(), None);
    let client = Client::new(transport(0.0));
    let segments = vec![
        scan_segment(&config, &client, 0, 4),
        scan_segment(&config, &client, 6, 8),
    ];
    let err = merge_segments(&Telemetry::new(), segments).unwrap_err();
    let PipelineError::SweepFailed(what) = &err else {
        panic!("expected a coverage error, got {err:?}");
    };
    assert!(
        what.contains("coverage gap") && what.contains("expected batch 4, got 6"),
        "{what}"
    );
}
