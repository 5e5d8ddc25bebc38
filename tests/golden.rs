//! Golden outputs: three quick-scale `repro` runs whose text and
//! telemetry snapshot are checked in under `docs/golden/`, so a moved
//! table cell or counter fails here rather than in a hand run.
//!
//! Each `.txt` file is what `repro <ids> --quick --seed N [--fault-rate P]`
//! prints once its `[... regenerated in ...]` timing lines are dropped,
//! and each `.json` file is what `--metrics-out` writes for the same run.
//!
//! The same goldens also pin runs that must not differ from them: the
//! seed-2022 run at four shards, the faulted run resumed at four shards
//! from a checkpoint log torn mid-write, and `disclosure` run alone.
//!
//! `NOKEYS_BLESS=1 cargo test --test golden` rewrites the files; the
//! identity cases check nothing while it does, and hold the new files
//! on the next plain run.

use nokeys::repro::{Repro, Scale};
use std::path::PathBuf;

/// The faulted golden: its name, seed, fault rate and experiments.
const FAULTED: &str = "table2_fig2_disclosure_quick_seed13_fault0.05";
const FAULTED_IDS: &[&str] = &["table2", "fig2", "disclosure"];

fn faulted_harness() -> Repro {
    Repro::new(13, Scale::Quick).with_fault_rate(0.05)
}

fn blessing() -> bool {
    std::env::var_os("NOKEYS_BLESS").is_some()
}

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("docs/golden")
        .join(file)
}

/// Hold `actual` to the golden file `file`, or rewrite the file when
/// blessing. `owner` names the experiment a (0-based) line belongs to.
fn check<'a>(file: &str, actual: &str, owner: impl Fn(usize) -> &'a str) {
    let path = golden_path(file);
    if blessing() {
        std::fs::create_dir_all(path.parent().expect("docs/golden")).expect("golden dir");
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} (NOKEYS_BLESS=1 cargo test --test golden writes it)",
            path.display()
        )
    });
    if expected == actual {
        return;
    }
    let (mut want, mut got) = (expected.lines(), actual.lines());
    let mut line = 0;
    loop {
        match (want.next(), got.next()) {
            (Some(w), Some(g)) if w == g => line += 1,
            (w, g) => panic!(
                "{file} differs from this run at line {} ({}):\n  golden: {}\n  actual: {}",
                line + 1,
                owner(line),
                w.unwrap_or("<end of file>"),
                g.unwrap_or("<end of output>"),
            ),
        }
    }
}

/// Run `ids` on `harness`, and hold the printed text (the `repro`
/// binary's stdout without its timing lines) and the telemetry
/// snapshot to the goldens named `name`.
fn check_run(name: &str, mut harness: Repro, ids: &[&'static str]) {
    let mut text = format!(
        "# nokeys repro — seed {}, scale {:?}, universe {}\n",
        harness.seed,
        harness.scale,
        harness.universe_config().space
    );
    // The experiment each line of `text` belongs to.
    let mut owners = vec!["header"];
    for &id in ids {
        let rendered = harness.run(id).unwrap_or_else(|e| panic!("{id}: {e}"));
        text.push('\n');
        text.push_str(&rendered);
        text.push('\n');
        owners.resize(text.lines().count(), id);
    }
    check(&format!("{name}.txt"), &text, |line| {
        owners
            .get(line)
            .copied()
            .unwrap_or("past the last experiment")
    });
    let snapshot = harness.telemetry().snapshot().to_json_pretty();
    check(&format!("{name}.json"), &snapshot, |_| {
        "the snapshot after every experiment"
    });
}

#[test]
fn all_quick_seed2022() {
    check_run(
        "all_quick_seed2022",
        Repro::new(2022, Scale::Quick),
        Repro::all_ids(),
    );
}

#[test]
fn all_quick_seed7() {
    check_run(
        "all_quick_seed7",
        Repro::new(7, Scale::Quick),
        Repro::all_ids(),
    );
}

#[test]
fn table2_fig2_disclosure_quick_seed13_faulted() {
    check_run(FAULTED, faulted_harness(), FAULTED_IDS);
}

/// Four shards sweep and file the batches of one; nothing moves.
#[test]
fn all_quick_seed2022_at_four_shards() {
    if blessing() {
        return;
    }
    let mut harness = Repro::new(2022, Scale::Quick);
    harness.config.shards = 4;
    check_run("all_quick_seed2022", harness, Repro::all_ids());
}

/// The faulted scan, logged by one shard, its log torn by 100 bytes
/// as a crash mid-write leaves it, and resumed at four shards: the
/// torn batch is scanned again and every output is the uninterrupted
/// run's.
#[test]
fn faulted_run_resumed_from_a_torn_log_at_four_shards() {
    if blessing() {
        return;
    }
    let dir = std::env::temp_dir().join(format!("nokeys-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let log = dir.join("scan.ckpt");
    let _ = std::fs::remove_file(&log);

    let mut first = faulted_harness();
    first.config.checkpoint_path = Some(log.clone());
    first.scan();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&log)
        .expect("the scan wrote its log");
    let lines = || {
        std::fs::read_to_string(&log)
            .expect("the log")
            .lines()
            .count()
    };
    let logged = lines();
    let len = file.metadata().expect("log metadata").len();
    file.set_len(len - 100).expect("tear the log");

    let mut resumed = faulted_harness();
    resumed.config.checkpoint_path = Some(log.clone());
    resumed.config.shards = 4;
    resumed.resume = true;
    check_run(FAULTED, resumed, FAULTED_IDS);
    assert_eq!(lines(), logged, "the resume logged the torn batch again");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `disclosure` alone prints the block it prints after `table2` and
/// `fig2`: no experiment moves the scan's transport or its fault draws.
#[test]
fn faulted_disclosure_alone_prints_its_golden_block() {
    if blessing() {
        return;
    }
    let alone = faulted_harness()
        .run("disclosure")
        .unwrap_or_else(|e| panic!("disclosure: {e}"));
    let golden = std::fs::read_to_string(golden_path(&format!("{FAULTED}.txt")))
        .expect("the faulted golden");
    assert!(
        golden.ends_with(&format!("\n\n{alone}\n")),
        "disclosure alone differs from its block in {FAULTED}.txt:\n{alone}"
    );
}
