//! Pipeline-wide telemetry: counters, histograms and per-stage
//! virtual-clock timings.
//!
//! The paper's measurement claims (Tables 2–4, Figures 1–2) are only as
//! trustworthy as the pipeline's internal accounting, so every stage
//! records what it did into a shared [`Telemetry`] registry: stage I the
//! blocks it swept and ports it found open, stage II the probes it sent
//! and which signatures fired, stage III the per-application verify
//! outcomes, the fingerprinter its method mix, the longevity observer
//! its per-round status transitions, and the honeypot monitor its
//! attack-rate counters. The retry layer accounts per-lane under
//! `retry.{probe,connect,fetch}.{retries,recovered,exhausted}` plus a
//! `retry.<lane>.backoff` timer of virtual backoff units, and the repro
//! harness bridges the simulator's injected faults in as
//! `fault.{probe,connect}.injected` — which is what lets a snapshot
//! reconcile "faults injected" against "retries spent".
//!
//! # Design
//!
//! * **Lock-cheap.** The registry hands out [`Counter`] / [`Histogram`]
//!   / [`Timer`] handles backed by `Arc<AtomicU64>` cells. Registration
//!   takes a short registry lock once; every increment afterwards is a
//!   relaxed atomic add, so instrumented hot loops pay nanoseconds, not
//!   mutexes. All handles are `Send + Sync` and clone-cheap.
//! * **Deterministic.** Snapshots contain only order-independent sums —
//!   monotonic counters, fixed-bound histogram buckets, and *virtual*
//!   clock units (one unit ≈ one probe / request / automaton pass),
//!   never wall-clock time. A fixed seed therefore yields a
//!   byte-identical [`TelemetrySnapshot`] at any
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

/// A per-stage virtual-clock timer.
///
/// There is no wall clock anywhere in the registry: a timer accumulates
/// *virtual work units* declared by the stage itself (one unit ≈ one
/// probe, HTTP exchange, plugin run, …). Sums of units are independent
/// of task interleaving, which is what keeps snapshots deterministic
/// under concurrency. Every recorded unit also advances the registry's
/// global [virtual clock](Telemetry::virtual_clock).
#[derive(Clone, Debug)]
pub struct Timer {
    core: Arc<TimerCore>,
    clock: Arc<AtomicU64>,
}

#[derive(Debug, Default)]
struct TimerCore {
    events: AtomicU64,
    units: AtomicU64,
}

impl Timer {
    /// Record one timed section that took `units` of virtual work.
    pub fn record(&self, units: u64) {
        self.core.events.fetch_add(1, Ordering::Relaxed);
        self.core.units.fetch_add(units, Ordering::Relaxed);
        self.clock.fetch_add(units, Ordering::Relaxed);
    }

    /// Total recorded virtual units.
    pub fn units(&self) -> u64 {
        self.core.units.load(Ordering::Relaxed)
    }

    /// Add a (delta) snapshot's events and units into this timer,
    /// advancing the registry's virtual clock by the absorbed units —
    /// exactly as if the work had been [`record`](Self::record)ed here.
    fn absorb(&self, s: &TimingSnapshot) {
        self.core.events.fetch_add(s.events, Ordering::Relaxed);
        self.core.units.fetch_add(s.units, Ordering::Relaxed);
        self.clock.fetch_add(s.units, Ordering::Relaxed);
    }

    fn snapshot(&self, read: ReadCell) -> TimingSnapshot {
        TimingSnapshot {
            events: read(&self.core.events),
            units: read(&self.core.units),
        }
    }
}

#[derive(Default)]
struct Registry {
    counters: RwLock<BTreeMap<String, Counter>>,
    histograms: RwLock<BTreeMap<String, Histogram>>,
    timers: RwLock<BTreeMap<String, Timer>>,
    clock: Arc<AtomicU64>,
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
            .field(
                "timers",
                &self.registry.timers.read().expect("not poisoned").len(),
            )
            .field("virtual_clock", &self.virtual_clock())
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

    /// The virtual-clock timer named `name`.
    pub fn timer(&self, name: &str) -> Timer {
        if let Some(t) = self.registry.timers.read().expect("not poisoned").get(name) {
            return t.clone();
        }
        self.registry
            .timers
            .write()
            .expect("not poisoned")
            .entry(name.to_string())
            .or_insert_with(|| Timer {
                core: Arc::new(TimerCore::default()),
                clock: Arc::clone(&self.registry.clock),
            })
            .clone()
    }

    /// The global virtual clock: total work units recorded by all timers.
    pub fn virtual_clock(&self) -> u64 {
        self.registry.clock.load(Ordering::Relaxed)
    }

    /// Merge a snapshot's values into this registry, registering any
    /// instrument the registry does not know yet.
    ///
    /// This is the replay half of checkpointing: a checkpointed run
    /// logs one [`TelemetrySnapshot`] per batch (what [`take`](Self::take)
    /// emptied out of the worker's registry), and a resuming run absorbs
    /// them so its registry ends up exactly where an uninterrupted
    /// run's would be. Counter values
    /// add, histogram buckets add bucket-wise (bounds must match), and
    /// timers add events/units — advancing the virtual clock by the
    /// absorbed units, which keeps
    /// [`virtual_clock`](Self::virtual_clock) equal to the sum of all
    /// timer units.
    pub fn absorb(&self, snapshot: &TelemetrySnapshot) {
        for (name, value) in &snapshot.counters {
            self.counter(name).add(*value);
        }
        for (name, h) in &snapshot.histograms {
            self.histogram(name, &h.bounds).absorb(h);
        }
        for (name, t) in &snapshot.timings {
            self.timer(name).absorb(t);
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
            virtual_clock_units: read(&self.registry.clock),
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
            timings: self
                .registry
                .timers
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

/// Point-in-time state of one virtual-clock timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingSnapshot {
    /// Number of timed sections.
    pub events: u64,
    /// Total virtual work units.
    pub units: u64,
}

/// A deterministic, serializable view of the whole registry.
///
/// Keys are sorted (`BTreeMap`) and all values are order-independent
/// sums over virtual time, so the same seed produces byte-identical
/// JSON at any concurrency level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Total virtual work units across all timers at snapshot time.
    pub virtual_clock_units: u64,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Timer states by name.
    pub timings: BTreeMap<String, TimingSnapshot>,
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

impl ToJson for TimingSnapshot {
    fn to_json(&self) -> Value {
        object([
            ("events", self.events.to_json()),
            ("units", self.units.to_json()),
        ])
    }
}

impl FromJson for TimingSnapshot {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        Ok(TimingSnapshot {
            events: value.field("events")?,
            units: value.field("units")?,
        })
    }
}

impl ToJson for TelemetrySnapshot {
    fn to_json(&self) -> Value {
        object([
            ("virtual_clock_units", self.virtual_clock_units.to_json()),
            ("counters", self.counters.to_json()),
            ("histograms", self.histograms.to_json()),
            ("timings", self.timings.to_json()),
        ])
    }
}

impl FromJson for TelemetrySnapshot {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        Ok(TelemetrySnapshot {
            virtual_clock_units: value.field("virtual_clock_units")?,
            counters: value.field("counters")?,
            histograms: value.field("histograms")?,
            timings: value.field("timings")?,
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
        out.push_str(&format!(
            "telemetry snapshot @ {} virtual units\n",
            self.virtual_clock_units
        ));
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, value) in &self.counters {
                out.push_str(&format!("  {name:<48} {value}\n"));
            }
        }
        if !self.timings.is_empty() {
            out.push_str("timings (virtual units / events):\n");
            for (name, t) in &self.timings {
                out.push_str(&format!("  {name:<48} {} / {}\n", t.units, t.events));
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
        assert_send_sync::<Timer>();
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
    fn timers_advance_the_virtual_clock() {
        let t = Telemetry::new();
        let stage1 = t.timer("stage1");
        let stage2 = t.timer("stage2");
        stage1.record(10);
        stage2.record(5);
        stage2.record(5);
        assert_eq!(t.virtual_clock(), 20);
        let snap = t.snapshot();
        assert_eq!(
            snap.timings["stage1"],
            TimingSnapshot {
                events: 1,
                units: 10
            }
        );
        assert_eq!(
            snap.timings["stage2"],
            TimingSnapshot {
                events: 2,
                units: 10
            }
        );
        assert_eq!(snap.virtual_clock_units, 20);
    }

    #[test]
    fn snapshot_json_is_sorted_and_deterministic() {
        let t = Telemetry::new();
        t.counter("zebra").incr();
        t.counter("aardvark").add(7);
        t.timer("sweep").record(3);
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
        let timer = t.timer("work");
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                let timer = timer.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.incr();
                        timer.record(1);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(c.get(), 8000);
        assert_eq!(t.virtual_clock(), 8000);
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
                t.timer("work"),
            )
        };
        let direct = instruments(&source);
        let staged = instruments(&staging);
        for round in 0..3u64 {
            for (ops, _, sizes, work) in [&direct, &staged] {
                ops.add(round + 1);
                sizes.observe(round * 60);
                work.record(5 * (round + 1));
            }
            let batch = staging.take();
            assert_eq!(batch.counter("ops"), round + 1, "one batch's work only");
            assert_eq!(batch.virtual_clock_units, 5 * (round + 1));
            assert!(batch.counters.contains_key("never-incremented"));
            replica.absorb(&batch);
        }
        assert_eq!(source.snapshot().to_json(), replica.snapshot().to_json());
        assert_eq!(replica.virtual_clock(), source.virtual_clock());
        // Everything was handed over; nothing was unregistered.
        let emptied = staging.snapshot();
        assert_eq!(emptied.virtual_clock_units, 0);
        assert_eq!(emptied.counters.keys().len(), 2);
        assert!(emptied.counters.values().all(|&v| v == 0));
        assert_eq!(emptied.histograms["sizes"].count, 0);
        assert_eq!(emptied.timings["work"].units, 0);
    }

    /// A full snapshot absorbed into a fresh registry reproduces it,
    /// and zero-valued instruments still get registered.
    #[test]
    fn absorbing_a_full_snapshot_reproduces_it() {
        let source = Telemetry::new();
        source.counter("hits").add(7);
        source.counter("never-incremented");
        source.histogram("h", &[1, 2]).observe(2);
        source.timer("t").record(9);
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
        t.timer("w").record(6);
        let snap = t.snapshot();
        let value = crate::json::parse(snap.to_json().as_bytes()).expect("parses");
        assert_eq!(TelemetrySnapshot::from_json(&value), Ok(snap));
    }

    #[test]
    fn text_rendering_lists_every_instrument() {
        let t = Telemetry::new();
        t.counter("stage1.probes_sent").add(12);
        t.histogram("stage2.redirects", &[0, 1, 2]).observe(1);
        t.timer("stage1.sweep").record(12);
        let text = t.snapshot().render_text();
        assert!(text.contains("stage1.probes_sent"));
        assert!(text.contains("stage2.redirects"));
        assert!(text.contains("stage1.sweep"));
        assert!(text.contains("12 virtual units"));
    }
}
