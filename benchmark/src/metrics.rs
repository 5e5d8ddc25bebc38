//! Every reported number, by name, from what the runner measured.
//! `BENCHMARK.json` declares the same names; a test holds the two together.

use crate::runner::{Measured, Traced};
use crate::stats::{iqr_share, median, percentile};
use crate::trace::Layer;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// `part / whole`, or 0 where the workload never touches the layer.
fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Bytes per nanosecond as MB/s.
fn mb_per_s(bytes: u64, ns: f64) -> f64 {
    ratio(bytes as f64, ns) * 1e3
}

/// What a user of the system sees; measured with tracing off, in
/// reference seconds (README.md says why).
pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    vec![
        metric(
            "items_per_s",
            ratio(m.facts.items as f64, median(&m.pass_ref_s)),
            "items/s",
        ),
        metric("setup_s", median(&m.setup_ref_s), "s"),
    ]
}

/// The per-layer numbers that need no spans: the oracle's verdict, the
/// allocation counts and the benchmark's account of itself.
pub fn untraced(m: &Measured) -> Vec<Metric> {
    let items = m.facts.items as f64;
    let timed_items = items * m.pass_s.len() as f64;
    let batch_means: Vec<f64> = m
        .batch_ns
        .iter()
        .map(|&ns| ns as f64 / m.batch_items as f64)
        .collect();
    vec![
        metric("oracle.failed_share", m.oracle.failed_share(), "ratio"),
        metric("oracle.recall", m.oracle.recall(), "ratio"),
        metric(
            "oracle.false_positive_share",
            m.oracle.false_positive_share(),
            "ratio",
        ),
        metric(
            "oracle.twin_mismatch",
            m.oracle.twin_mismatches as f64,
            "count",
        ),
        metric(
            "bench.allocs_per_item",
            ratio(m.allocated.calls as f64, timed_items),
            "count",
        ),
        metric(
            "bench.alloc_bytes_per_item",
            ratio(m.allocated.bytes as f64, timed_items),
            "B",
        ),
        metric("bench.passes", m.pass_s.len() as f64, "count"),
        metric("bench.pass_iqr_share", iqr_share(&m.pass_ref_s), "ratio"),
        metric(
            "bench.wall_items_per_s",
            ratio(items, median(&m.pass_s)),
            "items/s",
        ),
        metric("bench.wall_setup_s", median(&m.setup_s), "s"),
        metric(
            "bench.slowdown_latency",
            median_by(&m.pass_slowdown, |s| s.latency),
            "ratio",
        ),
        metric(
            "bench.slowdown_throughput",
            median_by(&m.pass_slowdown, |s| s.throughput),
            "ratio",
        ),
        metric("bench.item_p99_ns", percentile(&batch_means, 99.0), "ns"),
        metric("bench.corpus_gen_s", m.facts.gen_s, "s"),
        metric(
            "core.multipattern.hit_share",
            ratio(m.tally.hits as f64, items),
            "ratio",
        ),
        metric(
            "core.scratch.lower_share",
            ratio(m.tally.lowered as f64, items),
            "ratio",
        ),
        metric(
            "core.scratch.squash_share",
            ratio(m.tally.squashed as f64, items),
            "ratio",
        ),
        metric(
            "core.scratch.over_reserve_share",
            ratio(m.facts.over_reserve as f64, items),
            "ratio",
        ),
        metric(
            "core.knowledge_base.entries",
            m.facts.knowledge_base_entries as f64,
            "count",
        ),
        metric(
            "core.knowledge_base.identified_share",
            m.oracle.identified_share(),
            "ratio",
        ),
        metric(
            "apps.assets.content_ns_per_call",
            m.facts.content_ns_per_call,
            "ns",
        ),
        metric(
            "apps.version.history_ns_per_call",
            m.facts.history_ns_per_call,
            "ns",
        ),
        metric("http.ip.scannable_addrs", m.tally.scannable as f64, "addr"),
        metric(
            "http.ip.excluded_addrs",
            m.facts.excluded_addrs as f64,
            "addr",
        ),
    ]
}

/// The per-layer numbers that come from spans. A layer a workload never
/// calls reads 0.
pub fn traced(m: &Measured, t: &Traced) -> Vec<Metric> {
    let items = m.facts.items as f64;
    // Median over the traced passes of one layer's self time in a pass.
    let pass_ns = |layer: Layer| median_by(&t.passes, |totals| totals.ns(layer));
    let per_item = |layer: Layer| ratio(pass_ns(layer), items);
    let setup_ns = |layer: Layer| median_by(&t.setups, |totals| totals.ns(layer));
    let twin_per_item = |layer: Layer| ratio(t.check.ns(layer), items);
    vec![
        metric(
            "core.multipattern.build_us",
            setup_ns(Layer::MultipatternBuild) / 1e3,
            "us",
        ),
        metric(
            "core.multipattern.match_ns_per_item",
            per_item(Layer::Match),
            "ns",
        ),
        metric(
            "core.multipattern.match_mb_per_s",
            mb_per_s(m.facts.bytes, pass_ns(Layer::Match)),
            "MB/s",
        ),
        metric(
            "core.multipattern.counts_ns_per_item",
            per_item(Layer::Counts),
            "ns",
        ),
        metric(
            "core.multipattern.scratch_path_ns_per_item",
            twin_per_item(Layer::ScratchPath),
            "ns",
        ),
        metric(
            "core.multipattern.alloc_path_ns_per_item",
            twin_per_item(Layer::Prepare) + twin_per_item(Layer::AllocMatch),
            "ns",
        ),
        metric(
            "core.signatures.load_us",
            setup_ns(Layer::SignaturesLoad) / 1e3,
            "us",
        ),
        metric(
            "core.signatures.rank_ns_per_item",
            per_item(Layer::Rank),
            "ns",
        ),
        metric(
            "core.signatures.linear_ns_per_item",
            twin_per_item(Layer::Linear),
            "ns",
        ),
        metric(
            "core.scratch.lower_mb_per_s",
            mb_per_s(m.facts.lower_read, t.check.ns(Layer::Lower)),
            "MB/s",
        ),
        metric(
            "core.scratch.squash_mb_per_s",
            mb_per_s(m.facts.squash_read, t.check.ns(Layer::Squash)),
            "MB/s",
        ),
        metric(
            "core.pattern.prepare_ns_per_item",
            twin_per_item(Layer::Prepare),
            "ns",
        ),
        metric(
            "core.htmlcheck.valid_ns_per_item",
            per_item(Layer::HtmlValid),
            "ns",
        ),
        metric(
            "core.htmlcheck.element_ns_per_item",
            per_item(Layer::HtmlElement),
            "ns",
        ),
        metric(
            "core.knowledge_base.build_ms",
            setup_ns(Layer::KnowledgeBaseBuild) / 1e6,
            "ms",
        ),
        metric(
            "core.knowledge_base.identify_ns_per_item",
            per_item(Layer::Identify),
            "ns",
        ),
        metric(
            "apps.assets.fnv1a_mb_per_s",
            mb_per_s(m.facts.asset_bytes, pass_ns(Layer::Fnv1a)),
            "MB/s",
        ),
        metric(
            "http.ip.iana_build_us",
            setup_ns(Layer::IanaBuild) / 1e3,
            "us",
        ),
        metric("http.ip.blocks_ns_per_item", per_item(Layer::Blocks), "ns"),
        metric(
            "http.ip.coverage_ns_per_item",
            per_item(Layer::Coverage),
            "ns",
        ),
        metric(
            "bench.trace_overhead_share",
            ratio(median(&t.pass_ref_s), median(&m.pass_ref_s)) - 1.0,
            "ratio",
        ),
        metric("bench.self_time_coverage", median(&t.coverage), "ratio"),
    ]
}

fn median_by<T>(samples: &[T], value: impl Fn(&T) -> f64) -> f64 {
    median(&samples.iter().map(value).collect::<Vec<_>>())
}
