//! Two runs on one seed must agree on everything but time. Its own test
//! binary with a single test, so nothing else allocates while it counts.

use nokeys_benchmark::alloc;
use nokeys_benchmark::corpus::Sizes;
use nokeys_benchmark::runner::{self, Config, Outcome};
use nokeys_benchmark::workloads;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Small corpora: the counts are per item, so they do not depend on size.
const SMALL: Sizes = Sizes {
    wild: 60,
    tiny: 2_000,
    awe: 360,
    space_parents: 128,
};

fn run(seed: u64) -> Vec<Outcome> {
    let cfg = Config {
        seed,
        seconds: 0.05,
        trace: false,
        sizes: SMALL,
    };
    runner::run(&workloads::NAMES, &cfg).expect("the four workloads exist")
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    let metric = outcome.per_layer.iter().find(|m| m.name == name);
    metric.unwrap_or_else(|| panic!("{name} is reported")).value
}

#[test]
fn same_seed_runs_agree_on_every_count() {
    let (first, second, other) = (run(7), run(7), run(8));
    for (a, b) in first.iter().zip(&second) {
        assert!(a.correct, "{}: {:?}", a.workload, a.first_failure);
        assert_eq!(a.failed, 0);
        assert_eq!(a.digest, b.digest, "{}: corpus digest", a.workload);
        assert_eq!(a.attempted, b.attempted);
        for name in [
            "bench.allocs_per_item",
            "bench.alloc_bytes_per_item",
            "oracle.failed_share",
            "oracle.twin_mismatch",
            "core.multipattern.hit_share",
        ] {
            assert_eq!(value(a, name), value(b, name), "{}: {name}", a.workload);
        }
        assert_eq!(value(a, "oracle.twin_mismatch"), 0.0);
    }
    for (a, c) in first.iter().zip(&other) {
        assert_ne!(
            a.digest, c.digest,
            "{}: another seed, another corpus",
            a.workload
        );
    }
    // The body workloads allocate per hit; the planner never does.
    assert!(value(&first[0], "bench.allocs_per_item") > 0.0);
    assert!(value(&first[2], "bench.allocs_per_item") > 1.0);
    assert_eq!(value(&first[3], "bench.allocs_per_item"), 0.0);
}
