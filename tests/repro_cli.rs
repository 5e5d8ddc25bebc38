//! End-to-end tests of the `repro` and `nokeys-scan` binaries themselves
//! (argument parsing, artifact output, exit codes).

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn nokeys_scan() -> Command {
    Command::new(env!("CARGO_BIN_EXE_nokeys-scan"))
}

#[test]
fn list_prints_all_experiment_ids() {
    let out = repro().arg("list").output().expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for id in ["table1", "table10", "fig2", "ct", "cases", "race"] {
        assert!(stdout.lines().any(|l| l == id), "{id} missing from list");
    }
}

#[test]
fn unknown_id_exits_nonzero() {
    let out = repro()
        .args(["definitely-not-an-id", "--quick"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
}

#[test]
fn out_dir_receives_artifacts() {
    let dir = std::env::temp_dir().join(format!("nokeys-repro-test-{}", std::process::id()));
    let out = repro()
        .args(["table1", "table10", "--quick", "--out"])
        .arg(&dir)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let t1 = std::fs::read_to_string(dir.join("table1.txt")).expect("table1 artifact");
    assert!(t1.contains("GoCD"));
    let t10 = std::fs::read_to_string(dir.join("table10.txt")).expect("table10 artifact");
    assert!(t10.contains("/wp-admin/install.php"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repro_rejects_malformed_flag_values() {
    // Every malformed value must exit with a usage error (exit 2), not
    // silently fall back to a default.
    let cases: &[&[&str]] = &[
        &["table1", "--quick", "--retries", "abc"],
        &["table1", "--quick", "--seed", "x"],
        &["table1", "--quick", "--fault-rate", "7"],
        &["table1", "--quick", "--fault-rate", "-0.5"],
        &["table1", "--quick", "--fault-rate", "nan"],
        &["table1", "--quick", "--shards", "0"],
        // One OS thread per shard: the count is capped before any scan.
        &["table1", "--quick", "--shards", "1025"],
        &["table1", "--quick", "--shards", "200000"],
        // The log has no cadence: the flag is gone, not ignored.
        &["table1", "--quick", "--checkpoint-every", "3"],
        &["table1", "--quick", "--resume"], // --resume without --checkpoint
    ];
    for case in cases {
        let out = repro().args(*case).output().expect("runs");
        assert_eq!(
            out.status.code(),
            Some(2),
            "expected usage error for {case:?}"
        );
    }
}

#[test]
fn nokeys_scan_rejects_malformed_flag_values() {
    let cases: &[&[&str]] = &[
        &["--target", "not-a-cidr"],
        &["--target", "192.0.2.0/28", "--ports", "80,abc"],
        &["--target", "192.0.2.0/28", "--ports", ""],
        &["--target", "192.0.2.0/28", "--retries", "abc"],
        &["--target", "192.0.2.0/28", "--fault-rate", "7"],
        &["--target", "192.0.2.0/28", "--fault-rate", "-1"],
        &["--target", "192.0.2.0/28", "--rate", "fast"],
        &["--target", "192.0.2.0/28", "--rate", "inf"],
        &["--target", "192.0.2.0/28", "--shards", "0"],
        &["--target", "192.0.2.0/28", "--shards", "many"],
        // Reserved space: had the cap failed, there would be nothing
        // to probe and one batch to start a thread for.
        &["--target", "192.0.2.0/28", "--shards", "1025"],
        &["--target", "192.0.2.0/28", "--shards", "200000"],
        &["--target", "192.0.2.0/28", "--checkpoint-every", "3"],
        &["--target", "192.0.2.0/28", "--resume"],
        &[], // no targets at all
    ];
    for case in cases {
        let out = nokeys_scan().args(*case).output().expect("runs");
        assert_eq!(
            out.status.code(),
            Some(2),
            "expected usage error for {case:?}"
        );
    }
}

/// The shared scan flags that take a value are usage errors (exit 2)
/// without one, in both binaries.
#[test]
fn scan_flags_without_a_value_exit_2() {
    let cases = [
        (repro(), ["table1", "--quick", "--checkpoint"]),
        (repro(), ["table1", "--quick", "--metrics-out"]),
        (nokeys_scan(), ["--target", "192.0.2.0/28", "--checkpoint"]),
        (nokeys_scan(), ["--target", "192.0.2.0/28", "--metrics-out"]),
    ];
    for (mut binary, case) in cases {
        let out = binary.args(case).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{case:?}");
    }
}

/// `--checkpoint F`, a log torn mid-line, `--resume` at another shard
/// count: the same table, and `F` is the only file checkpointing made.
#[test]
fn torn_checkpoint_resumes_to_the_same_table() {
    let dir = std::env::temp_dir().join(format!("nokeys-repro-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let log = dir.join("scan.ckpt");
    let table2 = |extra: &[&str]| {
        let out = repro()
            .args(["table2", "--quick", "--checkpoint"])
            .arg(&log)
            .args(extra)
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let files: Vec<_> = std::fs::read_dir(&dir)
            .expect("dir lists")
            .map(|e| e.expect("dir entry").path())
            .collect();
        assert_eq!(files, [log.as_path()], "the checkpoint is exactly one file");
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| !l.contains("regenerated in"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let uninterrupted = table2(&[]);
    assert!(uninterrupted.contains("Table 2"), "{uninterrupted}");
    let whole = std::fs::read(&log).expect("log reads");
    std::fs::write(&log, &whole[..whole.len() - 100]).expect("log tears");
    let resumed = table2(&["--resume", "--shards", "1"]);
    assert_eq!(uninterrupted, resumed);
    let lines = |bytes: &[u8]| bytes.iter().filter(|&&b| b == b'\n').count();
    assert_eq!(
        lines(&std::fs::read(&log).expect("log reads")),
        lines(&whole),
        "the torn batch is rescanned and logged again"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A log the scan cannot use is an error, not a crash: resuming from a
/// line whose `stage2.redirects.sum` counter holds a string prints
/// `error: …` and exits 1.
#[test]
fn corrupt_checkpoint_exits_1_without_a_panic() {
    let dir = std::env::temp_dir().join(format!("nokeys-repro-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let log = dir.join("scan.ckpt");
    let table2 = |extra: &[&str]| {
        repro()
            .args(["table2", "--quick", "--checkpoint"])
            .arg(&log)
            .args(extra)
            .output()
            .expect("runs")
    };
    assert!(table2(&[]).status.success());
    let text = std::fs::read_to_string(&log).expect("log reads");
    let key = r#""stage2.redirects.sum":"#;
    let at = text
        .find(key)
        .expect("a batch line logs stage2.redirects.sum")
        + key.len();
    let end = at
        + text[at..]
            .find(|c: char| !c.is_ascii_digit())
            .expect("a value");
    let corrupt = format!("{}\"{}\"{}", &text[..at], &text[at..end], &text[end..]);
    std::fs::write(&log, corrupt).expect("log writes");
    let out = table2(&["--resume"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("error: checkpoint file is corrupt"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seed_changes_jittered_outputs_only() {
    let run = |seed: &str| {
        let out = repro()
            .args(["table3", "--quick", "--seed", seed])
            .output()
            .expect("runs");
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let a = run("1");
    let b = run("1");
    // Strip the timing line, which varies run to run.
    let strip = |s: &str| {
        s.lines()
            .filter(|l| !l.contains("regenerated in"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&a), strip(&b), "same seed must reproduce identically");
}
