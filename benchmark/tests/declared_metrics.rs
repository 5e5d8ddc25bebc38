//! `BENCHMARK.json` and the code must name the same workloads and metrics,
//! with the same units: the driver refuses a run that prints anything else.

use nokeys_benchmark::corpus::Sizes;
use nokeys_benchmark::json::{self, Value};
use nokeys_benchmark::metrics::Metric;
use nokeys_benchmark::runner::{self, Config};
use nokeys_benchmark::workloads;

fn declared(benchmark: &Value, list: &str) -> Vec<(String, String)> {
    let entries = benchmark.get(list).and_then(Value::as_array).unwrap();
    let field = |e: &Value, key: &str| e.get(key).and_then(Value::as_str).unwrap().to_string();
    entries
        .iter()
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect()
}

fn printed(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn benchmark_json_declares_what_a_traced_run_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let benchmark = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names: Vec<String> = benchmark
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect();
    assert_eq!(names, workloads::NAMES);

    let cfg = Config {
        seed: 1,
        seconds: 0.02,
        trace: true,
        sizes: Sizes {
            wild: 40,
            tiny: 500,
            awe: 90,
            space_parents: 64,
        },
    };
    for outcome in runner::run(&workloads::NAMES, &cfg).unwrap() {
        assert!(outcome.correct, "{:?}", outcome.first_failure);
        assert_eq!(
            printed(&outcome.end_to_end),
            declared(&benchmark, "end_to_end"),
            "{}",
            outcome.workload
        );
        assert_eq!(
            printed(&outcome.per_layer),
            declared(&benchmark, "per_layer"),
            "{}",
            outcome.workload
        );
        for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
            assert!(m.value.is_finite(), "{} {}", outcome.workload, m.name);
        }
        assert!(
            outcome.end_to_end.iter().all(|m| m.value > 0.0),
            "{}: an end-to-end metric is never 0",
            outcome.workload
        );
    }
}
