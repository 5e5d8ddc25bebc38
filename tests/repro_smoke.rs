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
/// each one equals the same id run alone.
#[test]
fn output_does_not_depend_on_experiment_order() {
    let mut harness = Repro::new(11, Scale::Quick);
    harness.run("fig2").expect("fig2");
    for id in ["ct", "table4", "disclosure"] {
        let after_fig2 = harness.run(id).unwrap_or_else(|e| panic!("{id}: {e}"));
        let alone = Repro::new(11, Scale::Quick)
            .run(id)
            .unwrap_or_else(|e| panic!("{id}: {e}"));
        assert_eq!(after_fig2, alone, "{id} changed after fig2");
    }
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
