//! Crash-safe checkpointing on the one scan engine: a scan killed
//! mid-run and resumed from the log it left behind must produce a
//! `ScanReport` and telemetry snapshot byte-identical to an
//! uninterrupted run — at a different shard count than the one that
//! died, with or without injected transport faults, killed once or
//! twice or mid-write — and a log that does not belong to the scan, or
//! does not add up, is refused by name. Throughout, the checkpoint is
//! one file: no temporaries, nothing per worker.
//!
//! The kill is modeled with [`KillableTransport`]: after a budget of
//! network operations every further one tears its worker thread down
//! (an unwind no pipeline code runs under), so no batch in flight
//! completes and nothing is logged in farewell. The scan reports its
//! dead workers as an error; the test then resumes a fresh pipeline
//! (fresh transport, fresh registry) from whatever is on disk.

use nokeys::netsim::{
    Cidr, FaultPlan, FaultyTransport, KillSwitch, KillableTransport, SimTransport, Universe,
    UniverseConfig,
};
use nokeys::scanner::json;
use nokeys::scanner::{
    CheckpointError, Pipeline, PipelineConfig, PipelineError, ScanReport, Telemetry,
    TelemetrySnapshot,
};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

fn universe() -> &'static Arc<Universe> {
    static UNIVERSE: OnceLock<Arc<Universe>> = OnceLock::new();
    UNIVERSE.get_or_init(|| Arc::new(Universe::generate(UniverseConfig::tiny(42))))
}

fn space() -> Cidr {
    universe().config().space
}

/// A checkpoint path in a directory of its own, so that "the log is the
/// only file" can be checked by listing the directory.
fn checkpoint_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nokeys-ckpt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join("scan.ckpt")
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_dir_all(path.parent().expect("checkpoint dir"));
}

/// The batch sequence numbers logged at `path`, read without touching
/// the file. Also checks the "one file, always" rule: the checkpoint's
/// directory holds the log and nothing else.
fn logged(path: &Path) -> BTreeSet<u64> {
    let dir = path.parent().expect("checkpoint dir");
    let entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("checkpoint dir lists")
        .map(|e| e.expect("dir entry").path())
        .collect();
    assert_eq!(entries, [path], "the checkpoint is exactly one file");
    let text = std::fs::read_to_string(path).expect("log reads");
    let seqs: Vec<u64> = text
        .lines()
        .skip(1)
        .map(|line| {
            let line = json::parse(line.as_bytes()).expect("whole batch line");
            line.field("seq").expect("batch line has a seq")
        })
        .collect();
    let distinct: BTreeSet<u64> = seqs.iter().copied().collect();
    assert_eq!(distinct.len(), seqs.len(), "a batch was logged twice");
    distinct
}

/// 32 batches of 8 blocks, recording into `telemetry`.
fn tiny_pipeline(shards: usize, telemetry: &Telemetry, checkpoint: Option<&Path>) -> Pipeline {
    let config = PipelineConfig {
        blocks_per_batch: 8,
        shards,
        max_attempts: 3,
        checkpoint_path: checkpoint.map(Path::to_path_buf),
        ..PipelineConfig::new(vec![space()])
    };
    Pipeline::new(config, telemetry)
}

fn transport(fault_rate: f64) -> FaultyTransport<SimTransport> {
    FaultyTransport::new(
        SimTransport::new(Arc::clone(universe())),
        FaultPlan::new(fault_rate, 0xfa17_5eed),
    )
}

/// One uninterrupted run, optionally checkpointed.
fn run_plain(
    shards: usize,
    fault_rate: f64,
    checkpoint: Option<&Path>,
) -> (ScanReport, TelemetrySnapshot) {
    let telemetry = Telemetry::new();
    let pipeline = tiny_pipeline(shards, &telemetry, checkpoint);
    let report = pipeline.run(&transport(fault_rate)).expect("scan failed");
    (report, telemetry.snapshot())
}

/// Start a checkpointed run at `shards` over a transport that dies
/// after `budget` network operations, and require that it did die
/// mid-scan. Returns the batches it logged before dying.
///
/// A batch sweeps 8 × 256 × 12 = 24,576 probe operations, so a budget
/// of 270,000 dies roughly a third of the way in.
fn run_until_killed(shards: usize, fault_rate: f64, budget: u64, path: &Path) -> BTreeSet<u64> {
    let switch = KillSwitch::after(budget);
    let doomed = KillableTransport::new(transport(fault_rate), switch.clone());
    let pipeline = tiny_pipeline(shards, &Telemetry::new(), Some(path));
    match pipeline.run(&doomed) {
        Err(PipelineError::SweepFailed(_)) if switch.is_tripped() => {}
        other => panic!("the doomed run should have died: {other:?}"),
    }
    let survived = logged(path);
    assert!(
        (1..32).contains(&survived.len()),
        "kill should land mid-scan, {} of 32 batches logged",
        survived.len()
    );
    survived
}

fn resume(shards: usize, fault_rate: f64, path: &Path) -> (ScanReport, TelemetrySnapshot) {
    let telemetry = Telemetry::new();
    let pipeline = tiny_pipeline(shards, &telemetry, Some(path));
    let report = pipeline
        .resume(&transport(fault_rate))
        .expect("resume failed");
    assert_eq!(logged(path).len(), 32, "a finished scan logs every batch");
    (report, telemetry.snapshot())
}

#[test]
fn checkpointing_does_not_change_an_uninterrupted_run() {
    let path = checkpoint_path("plain");
    // A fresh run starts over whatever was at the path.
    std::fs::write(&path, b"left over from an earlier scan").unwrap();
    let (clean, clean_snap) = run_plain(4, 0.05, None);
    let (checked, checked_snap) = run_plain(4, 0.05, Some(&path));
    assert_eq!(clean.to_json_string(), checked.to_json_string());
    assert_eq!(clean_snap.to_json(), checked_snap.to_json());

    // The finished scan is the same one file, holding every batch.
    assert_eq!(logged(&path).len(), 32);
    let finished = std::fs::read(&path).unwrap();

    // Resuming a finished scan rescans nothing: with a zero-operation
    // budget any network access would kill the resume.
    let switch = KillSwitch::after(0);
    let telemetry = Telemetry::new();
    let pipeline = tiny_pipeline(1, &telemetry, Some(&path));
    let report = pipeline
        .resume(&KillableTransport::new(transport(0.05), switch.clone()))
        .expect("warm resume failed");
    assert_eq!(switch.used(), 0, "warm resume performed network operations");
    assert_eq!(checked.to_json_string(), report.to_json_string());
    assert_eq!(checked_snap.to_json(), telemetry.snapshot().to_json());
    assert_eq!(logged(&path).len(), 32);
    assert_eq!(std::fs::read(&path).unwrap(), finished, "nothing to append");
    cleanup(&path);
}

/// Kill at 4 shards after a budget that lets each worker finish a few
/// batches, then resume at 1 shard and — from a second, identical kill —
/// at 8. The shard count is not fingerprinted, and the log does not
/// record which worker filed what, so it replays under any count.
#[test]
fn scan_killed_at_four_shards_resumes_at_one_and_at_eight() {
    for fault_rate in [0.0, 0.05] {
        let (baseline, baseline_snap) = run_plain(1, fault_rate, None);
        for resume_shards in [1, 8] {
            let path = checkpoint_path(&format!("kill-f{fault_rate}-k{resume_shards}"));
            run_until_killed(4, fault_rate, 270_000, &path);
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
            cleanup(&path);
        }
    }
}

/// A scan that dies twice still resumes to the same bytes: the second
/// generation appends to the log the first one left, so everything the
/// first generation finished is still there after the second death.
#[test]
fn second_kill_loses_no_first_generation_work() {
    let (baseline, baseline_snap) = run_plain(1, 0.0, None);
    let path = checkpoint_path("twice");
    let first = run_until_killed(4, 0.0, 270_000, &path);
    // Second generation: resume at 2 shards over another doomed
    // transport.
    let switch = KillSwitch::after(200_000);
    let pipeline = tiny_pipeline(2, &Telemetry::new(), Some(&path));
    let died = pipeline.resume(&KillableTransport::new(transport(0.0), switch.clone()));
    assert!(
        matches!(died, Err(PipelineError::SweepFailed(_))),
        "{died:?}"
    );
    assert!(switch.is_tripped());
    let second = logged(&path);
    assert!(
        second.is_superset(&first),
        "first-generation batches {:?} were lost",
        first.difference(&second).collect::<Vec<_>>()
    );
    assert!(
        (first.len() + 1..32).contains(&second.len()),
        "the second generation should add work and still die mid-scan: {} then {} of 32",
        first.len(),
        second.len()
    );

    let (resumed, resumed_snap) = resume(4, 0.0, &path);
    assert_eq!(baseline.to_json_string(), resumed.to_json_string());
    assert_eq!(baseline_snap.to_json(), resumed_snap.to_json());
    cleanup(&path);
}

/// A process killed inside a write leaves half a line. The batch it
/// belonged to is rescanned; the whole lines before it are kept.
#[test]
fn torn_last_line_is_rescanned() {
    let (baseline, baseline_snap) = run_plain(1, 0.05, None);
    let path = checkpoint_path("torn");
    let survived = run_until_killed(4, 0.05, 270_000, &path);
    let log = std::fs::read(&path).unwrap();
    std::fs::write(&path, &log[..log.len() - 40]).unwrap();

    let (resumed, resumed_snap) = resume(2, 0.05, &path);
    assert_eq!(baseline.to_json_string(), resumed.to_json_string());
    assert_eq!(baseline_snap.to_json(), resumed_snap.to_json());
    // The torn line is gone from the file, not merely skipped: every
    // line of the finished log parses (`logged` insists), and the
    // whole lines of the killed run are still its first ones.
    let finished = std::fs::read(&path).unwrap();
    let whole = log[..log.len() - 40]
        .iter()
        .rposition(|&b| b == b'\n')
        .expect("the header survives")
        + 1;
    assert_eq!(
        log[..whole].iter().filter(|&&b| b == b'\n').count(),
        survived.len(),
        "exactly one batch line was torn"
    );
    assert_eq!(finished[..whole], log[..whole]);
    cleanup(&path);
}

#[test]
fn checkpoint_under_a_different_configuration_is_refused_by_name() {
    let path = checkpoint_path("mismatch");
    run_until_killed(4, 0.0, 270_000, &path);
    let before = std::fs::read(&path).unwrap();
    let other = PipelineConfig {
        blocks_per_batch: 8,
        seed: 999,
        checkpoint_path: Some(path.clone()),
        ..PipelineConfig::new(vec![space()])
    };
    let err = Pipeline::new(other, &Telemetry::new())
        .resume(&transport(0.0))
        .unwrap_err();
    assert_eq!(
        err,
        PipelineError::Checkpoint(CheckpointError::ConfigMismatch("shuffle_seed".into()))
    );
    assert_eq!(
        std::fs::read(&path).unwrap(),
        before,
        "a refused log is left alone"
    );
    // Nothing to resume from at all is an I/O error, not a fresh scan.
    let nowhere = checkpoint_path("nowhere");
    let err = tiny_pipeline(1, &Telemetry::new(), Some(&nowhere))
        .resume(&transport(0.0))
        .unwrap_err();
    assert!(
        matches!(err, PipelineError::Checkpoint(CheckpointError::Io(_))),
        "{err}"
    );
    assert!(!nowhere.exists(), "a failed resume must not create a log");
    cleanup(&path);
    cleanup(&nowhere);
}

/// Every whole line is checked, not skipped: the same batch twice means
/// something other than this engine wrote the log.
#[test]
fn batch_logged_twice_is_refused_by_name() {
    let path = checkpoint_path("twice-logged");
    run_until_killed(4, 0.0, 270_000, &path);
    let log = std::fs::read_to_string(&path).unwrap();
    let last = log.lines().last().expect("a batch line");
    let seq: u64 = json::parse(last.as_bytes())
        .and_then(|line| line.field("seq"))
        .expect("batch line has a seq");
    std::fs::write(&path, format!("{log}{last}\n")).unwrap();
    let err = tiny_pipeline(1, &Telemetry::new(), Some(&path))
        .resume(&transport(0.0))
        .unwrap_err();
    assert_eq!(
        err,
        PipelineError::Checkpoint(CheckpointError::Corrupt(format!(
            "batch {seq} logged twice"
        )))
    );
    cleanup(&path);
}
