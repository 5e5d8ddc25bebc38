//! Pipeline-wide telemetry: counters and histograms.
//!
//! The paper's measurement claims (Tables 2–4, Figures 1–2) are only as
//! trustworthy as the pipeline's internal accounting, so every stage
//! records what it did into a shared [`Telemetry`] registry: stage I the
//! blocks it swept and ports it found open, stage II the probes it sent
//! and which signatures fired, stage III the per-application verify
//! outcomes, the fingerprinter its method mix, the longevity observer
//! its per-round status transitions, and the honeypot monitor its
//! attack-rate counters. The retry layer accounts per-lane under
//! `retry.{probe,connect}.{retries,recovered,exhausted}` plus the
//! `retry.<lane>.backoff_units` it paused for, and each scan worker
//! counts the faults its transport injects as
//! `fault.{probe,connect}.injected` — which is what lets a snapshot
//! reconcile "faults injected" against "retries spent".
//!
//! # Design
//!
//! * **Lock-cheap.** The registry hands out [`Counter`] and
//!   [`Histogram`] handles backed by `Arc<AtomicU64>` cells. Registration
//!   takes a short registry lock once; every increment afterwards is a
//!   relaxed atomic add, so instrumented hot loops pay nanoseconds, not
//!   mutexes. All handles are `Send + Sync` and clone-cheap.
//! * **Deterministic.** Snapshots contain only order-independent sums —
//!   monotonic counters and fixed-bound histogram buckets, never
//!   wall-clock time. A fixed seed therefore yields a byte-identical
//!   [`TelemetrySnapshot`] at any
//!   [`shards`](crate::pipeline::PipelineConfig::shards) count;
//!   `tests/scan_identity.rs` enforces this.
//! * **Sorted serialization.** [`TelemetrySnapshot`] keeps every
//!   instrument in a `BTreeMap`, so the JSON emitted by
//!   [`TelemetrySnapshot::to_json`] has sorted keys and is stable across
//!   runs and platforms.

use crate::json::{object, FromJson, JsonError, ToJson, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A monotonic counter handle. Cloning shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Increment by one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// How a snapshot reads a cell: [`load`] leaves it alone
/// ([`Telemetry::snapshot`]), [`drain`] swaps in zero
/// ([`Telemetry::take`]).
type ReadCell = fn(&AtomicU64) -> u64;

fn load(cell: &AtomicU64) -> u64 {
    cell.load(Ordering::Relaxed)
}

fn drain(cell: &AtomicU64) -> u64 {
    cell.swap(0, Ordering::Relaxed)
}

/// A histogram with fixed, inclusive upper bucket bounds plus an
/// overflow bucket. Bounds are fixed at registration so two runs always
/// aggregate into identical buckets.
#[derive(Clone, Debug)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

#[derive(Debug)]
struct HistogramCore {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    overflow: AtomicU64,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            core: Arc::new(HistogramCore {
                bounds: bounds.to_vec(),
                buckets: bounds.iter().map(|_| AtomicU64::new(0)).collect(),
                overflow: AtomicU64::new(0),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        }
    }

    /// Record one observation.
    pub fn observe(&self, value: u64) {
        let c = &self.core;
        match c.bounds.iter().position(|&b| value <= b) {
            Some(i) => c.buckets[i].fetch_add(1, Ordering::Relaxed),
            None => c.overflow.fetch_add(1, Ordering::Relaxed),
        };
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Add a (delta) snapshot's buckets into this histogram. Used when
    /// replaying checkpointed telemetry; bounds must match.
    fn absorb(&self, s: &HistogramSnapshot) {
        let c = &self.core;
        assert_eq!(
            c.bounds, s.bounds,
            "cannot absorb a histogram snapshot with different bounds"
        );
        for (bucket, n) in c.buckets.iter().zip(&s.buckets) {
            bucket.fetch_add(*n, Ordering::Relaxed);
        }
        c.overflow.fetch_add(s.overflow, Ordering::Relaxed);
        c.count.fetch_add(s.count, Ordering::Relaxed);
        c.sum.fetch_add(s.sum, Ordering::Relaxed);
    }

    fn snapshot(&self, read: ReadCell) -> HistogramSnapshot {
        let c = &self.core;
        HistogramSnapshot {
            bounds: c.bounds.clone(),
            buckets: c.buckets.iter().map(read).collect(),
            overflow: read(&c.overflow),
            count: read(&c.count),
            sum: read(&c.sum),
        }
    }
}

#[derive(Default)]
struct Registry {
    counters: RwLock<BTreeMap<String, Counter>>,
    histograms: RwLock<BTreeMap<String, Histogram>>,
}

/// The shared metrics registry. Cloning is cheap (an `Arc` bump) and all
/// clones record into the same instruments; the registry is `Send +
/// Sync` so one instance can be threaded through every pipeline stage
/// and every spawned task.
#[derive(Clone, Default)]
pub struct Telemetry {
    registry: Arc<Registry>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field(
                "counters",
                &self.registry.counters.read().expect("not poisoned").len(),
            )
            .field(
                "histograms",
                &self.registry.histograms.read().expect("not poisoned").len(),
            )
            .finish()
    }
}

impl Telemetry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// The counter named `name`, registering it at zero on first use.
    /// Callers should hold on to the returned handle: the lookup takes a
    /// registry lock, increments on the handle do not.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self
            .registry
            .counters
            .read()
            .expect("not poisoned")
            .get(name)
        {
            return c.clone();
        }
        self.registry
            .counters
            .write()
            .expect("not poisoned")
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The histogram named `name` with the given inclusive upper bucket
    /// `bounds` (plus an implicit overflow bucket). Re-registering with
    /// different bounds is a bug and panics.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        if let Some(h) = self
            .registry
            .histograms
            .read()
            .expect("not poisoned")
            .get(name)
        {
            assert_eq!(
                h.core.bounds, bounds,
                "histogram '{name}' re-registered with different bounds"
            );
            return h.clone();
        }
        self.registry
            .histograms
            .write()
            .expect("not poisoned")
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .clone()
    }

    /// Merge a snapshot's values into this registry, registering any
    /// instrument the registry does not know yet.
    ///
    /// This is the replay half of checkpointing: a checkpointed run
    /// logs one [`TelemetrySnapshot`] per batch (what [`take`](Self::take)
    /// emptied out of the worker's registry), and a resuming run absorbs
    /// them so its registry ends up exactly where an uninterrupted
    /// run's would be. Counter values add, and histogram buckets add
    /// bucket-wise (bounds must match).
    pub fn absorb(&self, snapshot: &TelemetrySnapshot) {
        for (name, value) in &snapshot.counters {
            self.counter(name).add(*value);
        }
        for (name, h) in &snapshot.histograms {
            self.histogram(name, &h.bounds).absorb(h);
        }
    }

    /// A consistent point-in-time view of every instrument. Meant to be
    /// taken after a run completes; taking it while writers are active
    /// yields a valid but possibly mid-update view.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.snapshot_with(load)
    }

    /// Snapshot-and-reset: the work recorded since the last `take` (or
    /// since creation), with every instrument left registered at zero.
    ///
    /// A shard worker empties its private registry with this after each
    /// batch, so the returned snapshot is that batch's work alone.
    /// Zero-valued instruments stay in the snapshot — absorbing it
    /// registers whatever a live run would have registered. Meant for a
    /// registry with one writer, called between its units of work: an
    /// increment racing the reset lands in this snapshot or the next,
    /// never in both and never in neither.
    pub fn take(&self) -> TelemetrySnapshot {
        self.snapshot_with(drain)
    }

    fn snapshot_with(&self, read: ReadCell) -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: self
                .registry
                .counters
                .read()
                .expect("not poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), read(&v.cell)))
                .collect(),
            histograms: self
                .registry
                .histograms
                .read()
                .expect("not poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot(read)))
                .collect(),
        }
    }
}

/// Point-in-time state of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bucket bounds.
    pub bounds: Vec<u64>,
    /// Observation counts per bound.
    pub buckets: Vec<u64>,
    /// Observations above the last bound.
    pub overflow: u64,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

/// A deterministic, serializable view of the whole registry.
///
/// Keys are sorted (`BTreeMap`) and all values are order-independent
/// sums, so the same seed produces byte-identical
/// JSON at any concurrency level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl ToJson for HistogramSnapshot {
    fn to_json(&self) -> Value {
        object([
            ("bounds", self.bounds.to_json()),
            ("buckets", self.buckets.to_json()),
            ("overflow", self.overflow.to_json()),
            ("count", self.count.to_json()),
            ("sum", self.sum.to_json()),
        ])
    }
}

impl FromJson for HistogramSnapshot {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let snapshot = HistogramSnapshot {
            bounds: value.field("bounds")?,
            buckets: value.field("buckets")?,
            overflow: value.field("overflow")?,
            count: value.field("count")?,
            sum: value.field("sum")?,
        };
        // Absorbing zips buckets with bounds; a file that disagrees
        // with itself must not get that far.
        if snapshot.buckets.len() != snapshot.bounds.len() {
            return Err(JsonError::Shape(format!(
                "histogram has {} buckets for {} bounds",
                snapshot.buckets.len(),
                snapshot.bounds.len()
            )));
        }
        Ok(snapshot)
    }
}

impl ToJson for TelemetrySnapshot {
    fn to_json(&self) -> Value {
        object([
            ("counters", self.counters.to_json()),
            ("histograms", self.histograms.to_json()),
        ])
    }
}

impl FromJson for TelemetrySnapshot {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        Ok(TelemetrySnapshot {
            counters: value.field("counters")?,
            histograms: value.field("histograms")?,
        })
    }
}

impl TelemetrySnapshot {
    /// Compact deterministic JSON (sorted keys, no whitespace).
    pub fn to_json(&self) -> String {
        ToJson::to_json(self).write()
    }

    /// Pretty-printed deterministic JSON.
    pub fn to_json_pretty(&self) -> String {
        ToJson::to_json(self).write_pretty()
    }

    /// A counter's value, zero if it was never registered.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sum of every counter whose name starts with `prefix` — e.g.
    /// `prefixed_total("stage3.verify.")` for all per-application verify
    /// outcomes.
    pub fn prefixed_total(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Human-readable multi-line summary (for terminals and logs).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("telemetry snapshot\n");
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, value) in &self.counters {
                out.push_str(&format!("  {name:<48} {value}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (name, h) in &self.histograms {
                let buckets: Vec<String> = h
                    .bounds
                    .iter()
                    .zip(&h.buckets)
                    .map(|(b, n)| format!("≤{b}:{n}"))
                    .collect();
                out.push_str(&format!(
                    "  {name:<48} n={} sum={} [{} >:{}]\n",
                    h.count,
                    h.sum,
                    buckets.join(" "),
                    h.overflow
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Telemetry>();
        assert_send_sync::<Counter>();
        assert_send_sync::<Histogram>();
    }

    #[test]
    fn counters_accumulate_and_share_state() {
        let t = Telemetry::new();
        let a = t.counter("x");
        let b = t.counter("x");
        a.incr();
        b.add(2);
        assert_eq!(t.counter("x").get(), 3);
        assert_eq!(t.snapshot().counter("x"), 3);
        assert_eq!(t.snapshot().counter("never-registered"), 0);
    }

    #[test]
    fn histogram_buckets_are_inclusive_with_overflow() {
        let t = Telemetry::new();
        let h = t.histogram("h", &[1, 4, 16]);
        for v in [0, 1, 2, 4, 5, 100] {
            h.observe(v);
        }
        let s = &t.snapshot().histograms["h"];
        assert_eq!(s.buckets, vec![2, 2, 1]);
        assert_eq!(s.overflow, 1);
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 112);
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn histogram_bounds_are_fixed() {
        let t = Telemetry::new();
        t.histogram("h", &[1, 2]);
        t.histogram("h", &[1, 3]);
    }

    #[test]
    fn snapshot_json_is_sorted_and_deterministic() {
        let t = Telemetry::new();
        t.counter("zebra").incr();
        t.counter("aardvark").add(7);
        let a = t.snapshot().to_json();
        let b = t.snapshot().to_json();
        assert_eq!(a, b);
        let za = a.find("zebra").unwrap();
        let aa = a.find("aardvark").unwrap();
        assert!(aa < za, "keys must serialize in sorted order");
    }

    #[test]
    fn concurrent_increments_from_many_threads_sum_exactly() {
        let t = Telemetry::new();
        let c = t.counter("n");
        let h = t.histogram("sizes", &[10]);
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        c.incr();
                        h.observe(i % 20);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(c.get(), 8000);
        let sizes = &t.snapshot().histograms["sizes"];
        assert_eq!(
            (sizes.count, sizes.buckets[0], sizes.overflow),
            (8000, 4400, 3600)
        );
    }

    #[test]
    fn prefixed_total_sums_matching_counters() {
        let t = Telemetry::new();
        t.counter("stage3.verify.Docker.confirmed").add(2);
        t.counter("stage3.verify.Hadoop.confirmed").add(3);
        t.counter("stage2.hits").add(100);
        assert_eq!(t.snapshot().prefixed_total("stage3.verify."), 5);
    }

    /// Recording work directly and replaying it batch by batch through
    /// snapshot-and-reset must be indistinguishable — the invariant the
    /// batch ledger relies on. Handles are cached across batches, as
    /// the stage components cache theirs: a reset must not orphan them.
    #[test]
    fn absorbing_deltas_reconstructs_the_registry() {
        let source = Telemetry::new();
        let staging = Telemetry::new();
        let replica = Telemetry::new();
        let instruments = |t: &Telemetry| {
            (
                t.counter("ops"),
                t.counter("never-incremented"),
                t.histogram("sizes", &[10, 100]),
            )
        };
        let direct = instruments(&source);
        let staged = instruments(&staging);
        for round in 0..3u64 {
            for (ops, _, sizes) in [&direct, &staged] {
                ops.add(round + 1);
                sizes.observe(round * 60);
            }
            let batch = staging.take();
            assert_eq!(batch.counter("ops"), round + 1, "one batch's work only");
            assert_eq!(batch.histograms["sizes"].sum, round * 60);
            assert!(batch.counters.contains_key("never-incremented"));
            replica.absorb(&batch);
        }
        assert_eq!(source.snapshot().to_json(), replica.snapshot().to_json());
        // Everything was handed over; nothing was unregistered.
        let emptied = staging.snapshot();
        assert_eq!(emptied.counters.keys().len(), 2);
        assert!(emptied.counters.values().all(|&v| v == 0));
        assert_eq!(emptied.histograms["sizes"].count, 0);
    }

    /// A full snapshot absorbed into a fresh registry reproduces it,
    /// and zero-valued instruments still get registered.
    #[test]
    fn absorbing_a_full_snapshot_reproduces_it() {
        let source = Telemetry::new();
        source.counter("hits").add(7);
        source.counter("never-incremented");
        source.histogram("h", &[1, 2]).observe(2);
        let snap = source.snapshot();

        let replica = Telemetry::new();
        replica.absorb(&snap);
        assert_eq!(replica.snapshot().to_json(), snap.to_json());
        assert!(replica
            .snapshot()
            .counters
            .contains_key("never-incremented"));
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let t = Telemetry::new();
        t.counter("c").add(3);
        t.histogram("h", &[1, 4]).observe(2);
        let snap = t.snapshot();
        let value = crate::json::parse(snap.to_json().as_bytes()).expect("parses");
        assert_eq!(TelemetrySnapshot::from_json(&value), Ok(snap));
    }

    #[test]
    fn text_rendering_lists_every_instrument() {
        let t = Telemetry::new();
        t.counter("stage1.probes_sent").add(12);
        t.histogram("stage2.redirects", &[0, 1, 2]).observe(1);
        let text = t.snapshot().render_text();
        assert!(text.contains("stage1.probes_sent"));
        assert!(text.contains(" 12\n"));
        assert!(text.contains("stage2.redirects"));
        assert!(text.contains("≤1:1"));
    }
}
