//! What the benchmark prints and writes: the driver's result line, the
//! operator's table, result files for `--compare` and trace files.

use crate::json::quote;
use crate::metrics::Metric;
use crate::runner::{Config, Outcome};
use crate::trace::{Layer, NO_PARENT};
use std::fmt::Write;

/// `"name": {"value": v, "unit": "u"}` members for `metrics`.
fn metric_members(metrics: &[&Metric]) -> String {
    metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                m.value,
                quote(m.unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// The one JSON object the driver reads from the last line of standard
/// output: the end-to-end metrics of an untraced run, the per-layer
/// metrics of a traced one.
pub fn driver_line(outcome: &Outcome, trace: bool) -> String {
    let metrics = if trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metric_members(&metrics.iter().collect::<Vec<_>>())
    )
}

/// A value for a table: six decimals, or six significant digits for the
/// small ones (set-up times go down to half a microsecond).
pub fn human(value: f64) -> String {
    if value != 0.0 && value.abs() < 1e-3 {
        format!("{value:.6e}")
    } else {
        format!("{value:.6}")
    }
}

/// Every metric of every workload by name, with its unit and the number
/// of timed passes behind it.
pub fn table(outcomes: &[Outcome]) -> String {
    let mut out = String::new();
    for o in outcomes {
        writeln!(
            out,
            "{}: {} items checked, {} failed, {} timed passes, corpus digest {:#018x}",
            o.workload, o.attempted, o.failed, o.passes, o.digest
        )
        .expect("write to string");
        for m in o.end_to_end.iter().chain(&o.per_layer) {
            writeln!(
                out,
                "  {:<44} {:>18} {:<8} n={}",
                m.name,
                human(m.value),
                m.unit,
                o.passes
            )
            .expect("write to string");
        }
        if let Some(failure) = &o.first_failure {
            writeln!(out, "  FIRST FAILURE: {failure}").expect("write to string");
        }
    }
    out
}

/// The machine facts every result file carries.
pub fn machine(cfg: &Config) -> String {
    format!(
        "{{\"rustc\": {}, \"nproc\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        quote(env!("NOKEYS_BENCH_RUSTC")),
        std::thread::available_parallelism().map_or(0, usize::from),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    )
}

/// A result file: machine facts, then per workload the verdict, the
/// number of passes and every metric measured.
pub fn result_file(outcomes: &[Outcome], cfg: &Config) -> String {
    let workloads = outcomes
        .iter()
        .map(|o| {
            let metrics: Vec<&Metric> = o.end_to_end.iter().chain(&o.per_layer).collect();
            format!(
                "    {}: {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"passes\": {}, \
                 \"digest\": \"{:#018x}\", \"metrics\": {{{}}}}}",
                quote(o.workload),
                o.correct,
                o.attempted,
                o.failed,
                o.passes,
                o.digest,
                metric_members(&metrics)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"machine\": {},\n  \"workloads\": {{\n{workloads}\n  }}\n}}\n",
        machine(cfg)
    )
}

/// A trace file: the span names and the head of the last traced pass as
/// `[layer, item, parent, start_ns, end_ns]` rows (parent −1 for a root).
pub fn trace_file(outcome: &Outcome, cfg: &Config) -> String {
    let names = Layer::NAMES.map(quote).join(", ");
    let spans = outcome
        .trace_sample
        .iter()
        .map(|s| {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            format!(
                "[{}, {}, {parent}, {}, {}]",
                s.layer as u8, s.item, s.start_ns, s.end_ns
            )
        })
        .collect::<Vec<_>>()
        .join(",\n    ");
    format!(
        "{{\n  \"workload\": {},\n  \"machine\": {},\n  \"layers\": [{names}],\n  \
         \"columns\": [\"layer\", \"item\", \"parent\", \"start_ns\", \"end_ns\"],\n  \
         \"spans\": [\n    {spans}\n  ]\n}}\n",
        quote(outcome.workload),
        machine(cfg)
    )
}
