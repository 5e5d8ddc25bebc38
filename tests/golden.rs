//! Golden outputs: three quick-scale `repro` runs whose text and
//! telemetry snapshot are checked in under `docs/golden/`, so a moved
//! table cell or counter fails here rather than in a hand run.
//!
//! Each `.txt` file is what `repro <ids> --quick --seed N [--fault-rate P]`
//! prints once its `[... regenerated in ...]` timing lines are dropped,
//! and each `.json` file is what `--metrics-out` writes for the same run.
//!
//! `NOKEYS_BLESS=1 cargo test --test golden` rewrites the files.

use nokeys::repro::{Repro, Scale};
use std::path::PathBuf;

/// Hold `actual` to the golden file `file`, or rewrite the file when
/// blessing. `owner` names the experiment a (0-based) line belongs to.
fn check<'a>(file: &str, actual: &str, owner: impl Fn(usize) -> &'a str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("docs/golden")
        .join(file);
    if std::env::var_os("NOKEYS_BLESS").is_some() {
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

/// Run `ids` at quick scale with this seed and fault rate, and hold
/// the printed text (the `repro` binary's stdout without its timing
/// lines) and the telemetry snapshot to the goldens named `name`.
fn check_run(name: &str, seed: u64, fault_rate: f64, ids: &[&'static str]) {
    let mut harness = Repro::new(seed, Scale::Quick).with_fault_rate(fault_rate);
    let mut text = format!(
        "# nokeys repro — seed {seed}, scale {:?}, universe {}\n",
        Scale::Quick,
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
    check_run("all_quick_seed2022", 2022, 0.0, Repro::all_ids());
}

#[test]
fn all_quick_seed7() {
    check_run("all_quick_seed7", 7, 0.0, Repro::all_ids());
}

#[test]
fn table2_fig2_disclosure_quick_seed13_faulted() {
    check_run(
        "table2_fig2_disclosure_quick_seed13_fault0.05",
        13,
        0.05,
        &["table2", "fig2", "disclosure"],
    );
}
