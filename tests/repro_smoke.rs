//! Smoke test for the `repro` harness: every experiment id regenerates at
//! quick scale and produces non-trivial output.

use nokeys::repro::{Repro, Scale};

#[test]
fn every_experiment_regenerates_at_quick_scale() {
    let mut harness = Repro::new(11, Scale::Quick);
    for id in Repro::all_ids() {
        let out = harness.run(id).unwrap_or_else(|e| panic!("{id}: {e}"));
        assert!(out.len() > 100, "{id}: suspiciously short output:\n{out}");
        assert!(out.contains("=="), "{id}: missing table header");
    }
}

/// Figure 2 rescans for four weeks of virtual time, but every experiment
/// run after it in the same harness still sees the scan as it stood:
/// each one equals the same id run alone. With injected faults too: no
/// fault draw depends on the draws made before it.
#[test]
fn output_does_not_depend_on_experiment_order() {
    for (seed, fault_rate) in [(11, 0.0), (13, 0.05)] {
        let harness = || Repro::new(seed, Scale::Quick).with_fault_rate(fault_rate);
        let mut after = harness();
        after.run("fig2").expect("fig2");
        for id in ["ct", "table4", "disclosure"] {
            let after_fig2 = after.run(id).unwrap_or_else(|e| panic!("{id}: {e}"));
            let alone = harness().run(id).unwrap_or_else(|e| panic!("{id}: {e}"));
            assert_eq!(
                after_fig2, alone,
                "{id} changed after fig2, faults {fault_rate}"
            );
        }
    }
}

/// A faulted scan resumed from the finished log it wrote leaves every
/// later experiment as the writing run had it: the fault draws of
/// Figure 2's rescans do not depend on the scan's having run in this
/// process.
#[test]
fn resuming_a_faulted_scan_changes_no_later_output() {
    let dir = std::env::temp_dir().join(format!("nokeys-repro-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("scan.ckpt");
    let harness = |resume| {
        let mut harness = Repro::new(13, Scale::Quick).with_fault_rate(0.05);
        harness.config.checkpoint_path = Some(path.clone());
        harness.resume = resume;
        harness
    };
    let mut written = harness(false);
    let first = written.run("fig2").expect("fig2");
    let mut resumed = harness(true);
    assert_eq!(first, resumed.run("fig2").expect("resumed fig2"));
    assert_eq!(
        written.run("longevity").expect("longevity"),
        resumed.run("longevity").expect("resumed longevity")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_ids_are_rejected() {
    let mut harness = Repro::new(1, Scale::Quick);
    assert!(harness.run("table99").is_err());
}

#[test]
fn caches_are_reused_across_experiments() {
    let mut harness = Repro::new(2, Scale::Quick);
    let _ = harness.run("table3").expect("first run");
    let started = std::time::Instant::now();
    let _ = harness.run("table4").expect("reuses the scan");
    assert!(
        started.elapsed() < std::time::Duration::from_secs(2),
        "table4 should reuse the cached scan"
    );
}
