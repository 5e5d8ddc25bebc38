//! Order-independent fault injection + retry recovery.
//!
//! Each fault fate is a pure hash over (lane, endpoint, instant, request
//! target, try), so *which* try faults cannot depend on how worker
//! threads interleave tries, or on any try made before it.
//! These tests pin the consequences: fault-injected scans stay
//! byte-identical at any shard count, retries recover the fault-free
//! report at realistic fault rates, and the `retry.*` counters
//! reconcile against the `fault.*` counters each batch records.

use nokeys::apps::AppId;
use nokeys::netsim::{FaultPlan, FaultyTransport, SimTransport, Universe, UniverseConfig};
use nokeys::scanner::{Pipeline, PipelineConfig, ScanReport, Telemetry, TelemetrySnapshot};
use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use std::path::Path;
use std::sync::Arc;

/// One full pipeline run over a faulty tiny universe. The pipeline
/// counts injected faults as `fault.<lane>.injected`, in the batch that
/// drew them.
fn run_faulty(
    seed: u64,
    shards: usize,
    fault_rate: f64,
    retries: u32,
) -> (ScanReport, TelemetrySnapshot) {
    run_faulty_logged(seed, shards, fault_rate, retries, None)
}

/// [`run_faulty`], checkpointing to `log`'s path — resuming from it when
/// `log`'s flag says so.
fn run_faulty_logged(
    seed: u64,
    shards: usize,
    fault_rate: f64,
    retries: u32,
    log: Option<(&Path, bool)>,
) -> (ScanReport, TelemetrySnapshot) {
    let config = UniverseConfig::tiny(seed);
    let telemetry = Telemetry::new();
    let transport = FaultyTransport::new(
        SimTransport::new(Arc::new(Universe::generate(config.clone()))),
        FaultPlan::new(fault_rate, 0xfa17_5eed),
    );
    let config = PipelineConfig {
        shards,
        max_attempts: retries,
        checkpoint_path: log.map(|(path, _)| path.to_path_buf()),
        ..PipelineConfig::new(vec![config.space])
    };
    let pipeline = Pipeline::new(config, &telemetry);
    let report = match log {
        Some((_, true)) => pipeline.resume(&transport),
        _ => pipeline.run(&transport),
    }
    .expect("pipeline failed");
    (report, telemetry.snapshot())
}

/// Findings as a comparable (ip, app) key set.
fn keys(report: &ScanReport) -> BTreeSet<(Ipv4Addr, AppId)> {
    report
        .findings
        .iter()
        .map(|f| (f.endpoint.ip, f.app))
        .collect()
}

fn json(report: &ScanReport) -> String {
    report.to_json_string()
}

/// With faults *enabled* — and counted in the registry — a one-worker
/// scan and an 8-worker scan produce byte-identical reports and
/// telemetry: the `fault.*` counts are as order-free as the schedule
/// that fires them.
#[test]
fn fault_injected_reports_are_identical_at_any_shard_count() {
    let (report_seq, snap_seq) = run_faulty(42, 1, 0.1, 3);
    let (report_par, snap_par) = run_faulty(42, 8, 0.1, 3);
    assert!(
        snap_seq.counter("fault.probe.injected") > 0
            && snap_seq.counter("fault.connect.injected") > 0,
        "faults must actually fire for this test to mean anything"
    );
    assert_eq!(
        json(&report_seq),
        json(&report_par),
        "fault-injected reports diverged across shard counts"
    );
    assert_eq!(
        snap_seq.to_json(),
        snap_par.to_json(),
        "fault/retry telemetry diverged across shard counts"
    );
}

/// At low fault rates the retry budget absorbs every transient loss:
/// the faulty report is byte-identical to the fault-free one. At a
/// harsher rate losses may appear, but only as losses — never as new
/// or different findings — and coverage stays near-complete.
#[test]
fn retries_recover_the_fault_free_report() {
    let (clean, _) = run_faulty(42, 8, 0.0, 4);
    let (recovered, snap) = run_faulty(42, 8, 0.01, 4);
    assert!(
        snap.counter("fault.probe.injected") + snap.counter("fault.connect.injected") > 0,
        "the recovered run really was faulty"
    );
    assert_eq!(
        json(&clean),
        json(&recovered),
        "1% faults with a 4-attempt budget must scan clean"
    );

    let (harsher, _) = run_faulty(42, 8, 0.02, 3);
    assert!(
        keys(&harsher).is_subset(&keys(&clean)),
        "faults may only lose findings, never invent them"
    );
    assert!(
        harsher.total_hosts() * 20 >= clean.total_hosts() * 19,
        "2% faults should cost under 5% of hosts: {} of {}",
        harsher.total_hosts(),
        clean.total_hosts()
    );
}

/// The snapshot's fault and retry families agree with each other.
#[test]
fn retry_and_fault_counters_reconcile() {
    let (_, snap) = run_faulty(7, 8, 0.05, 3);
    let injected_probe = snap.counter("fault.probe.injected");
    let injected_connect = snap.counter("fault.connect.injected");
    assert!(injected_probe > 0, "probe faults fired");
    assert!(injected_connect > 0, "connect faults fired");

    // Every injected connect timeout is observed by the retry layer
    // exactly once: it either triggers a retry or exhausts the budget.
    // (The simulator produces no other transient connect error during a
    // scan — refused connections and failed handshakes are terminal.)
    assert_eq!(
        injected_connect,
        snap.counter("retry.connect.retries") + snap.counter("retry.connect.exhausted"),
        "connect lane does not reconcile"
    );

    // The probe lane only bounds from below: a genuinely filtered
    // endpoint draws retries without an injected fault.
    assert!(
        snap.counter("retry.probe.retries") + snap.counter("retry.probe.exhausted")
            >= injected_probe,
        "probe lane does not reconcile"
    );

    assert!(
        snap.counter("retry.connect.recovered") > 0,
        "at 5% faults with 3 attempts, some connects must recover"
    );
    assert!(
        snap.counter("retry.connect.backoff_units") > 0,
        "recovered retries must have recorded backoff"
    );
}

/// A resumed faulted scan keeps the `fault.*` counts of the batches it
/// reads back: each batch logs its injected faults with its other
/// counters. Resuming the finished log, or one whose last line was torn,
/// yields the uninterrupted report and snapshot, and in each snapshot
/// every injected fault met the retry layer exactly once, as a retry or
/// as an exhausted budget.
#[test]
fn a_resumed_faulted_scan_keeps_its_fault_counts() {
    let dir = std::env::temp_dir().join(format!("nokeys-fault-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("scan.ckpt");
    let reconciles = |snap: &TelemetrySnapshot| {
        for lane in ["probe", "connect"] {
            let injected = snap.counter(&format!("fault.{lane}.injected"));
            assert!(injected > 0, "{lane} faults fired");
            assert_eq!(
                injected,
                snap.counter(&format!("retry.{lane}.retries"))
                    + snap.counter(&format!("retry.{lane}.exhausted")),
                "{lane} lane does not reconcile"
            );
        }
    };

    let (report, snap) = run_faulty_logged(7, 4, 0.05, 3, Some((&path, false)));
    reconciles(&snap);
    let (resumed, resumed_snap) = run_faulty_logged(7, 2, 0.05, 3, Some((&path, true)));
    assert_eq!(json(&report), json(&resumed), "finished log");
    assert_eq!(snap.to_json(), resumed_snap.to_json(), "finished log");

    let len = std::fs::metadata(&path).expect("log").len();
    let file = std::fs::OpenOptions::new().write(true).open(&path);
    file.and_then(|f| f.set_len(len - 100)).expect("tear");
    let (resumed, resumed_snap) = run_faulty_logged(7, 1, 0.05, 3, Some((&path, true)));
    assert_eq!(json(&report), json(&resumed), "torn log");
    assert_eq!(snap.to_json(), resumed_snap.to_json(), "torn log");
    reconciles(&resumed_snap);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A plugin run that a failed GET ended is counted by its error class,
/// and is one of stage III's rejections.
#[test]
fn stage3_errors_are_counted_among_rejections() {
    let (_, snap) = run_faulty(11, 8, 0.15, 1);
    let stage3_errors = snap.prefixed_total("stage3.error.");
    let rejected: u64 = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("stage3.verify.") && k.ends_with(".rejected"))
        .map(|(_, v)| v)
        .sum();
    assert!(
        stage3_errors > 0,
        "some plugin GETs must exhaust the budget"
    );
    assert!(
        stage3_errors <= rejected,
        "{stage3_errors} errors, {rejected} rejections"
    );
}

/// Retries earn their keep: at a harsh fault rate a retry-less scan
/// visibly loses hosts, and the default budget wins most of them back
/// without ever inventing one.
#[test]
fn retries_recover_hosts_lost_without_them() {
    let (clean, _) = run_faulty(11, 8, 0.0, 3);
    let (no_retry, _) = run_faulty(11, 8, 0.15, 1);
    let (with_retry, _) = run_faulty(11, 8, 0.15, 3);
    assert!(
        no_retry.total_hosts() < clean.total_hosts(),
        "15% faults without retries must lose hosts ({} vs {})",
        no_retry.total_hosts(),
        clean.total_hosts()
    );
    assert!(
        with_retry.total_hosts() > no_retry.total_hosts(),
        "retries must recover hosts ({} vs {})",
        with_retry.total_hosts(),
        no_retry.total_hosts()
    );
    assert!(
        with_retry.total_hosts() <= clean.total_hosts(),
        "retries cannot find more than a clean scan"
    );
    assert!(keys(&with_retry).is_subset(&keys(&clean)));
}
