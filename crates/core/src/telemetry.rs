//! Pipeline-wide telemetry: counters.
//!
//! The paper's measurement claims (Tables 2–4, Figures 1–2) are only as
//! trustworthy as the pipeline's internal accounting, so every stage
//! records what it did into a shared [`Telemetry`] registry: stage I the
//! blocks it swept and ports it found open, stage II the probes it sent
//! and which signatures fired, stage III the per-application verify
//! outcomes, the fingerprinter its method mix, and the longevity
//! observer its per-round status transitions. The retry layer accounts
//! per-lane under `retry.{probe,connect}.{retries,recovered,exhausted}`
//! plus the `retry.<lane>.backoff_units` it paused for, and each scan
//! batch counts the faults its transport injects as
//! `fault.{probe,connect}.injected` — which is what lets a snapshot
//! reconcile "faults injected" against "retries spent".
//!
//! A scan batch records into a registry of its own, made for it and
//! dropped after it; the scan's registry absorbs each batch's
//! [`TelemetrySnapshot`]. So a batch's snapshot — its line in a
//! checkpoint log — is a function of the batch alone: it lists the
//! counters registered at construction, zero or not, and those
//! registered on first use (per-port responses, error classes, verify
//! outcomes, faults) only where the batch used them.
//!
//! # Design
//!
//! * **One kind.** Every instrument is a [`Counter`]; a distribution is
//!   a [`Buckets`] family of them, so the registry, a batch's snapshot
//!   and a checkpoint line carry counters alone.
//! * **Lock-cheap.** A [`Counter`] is an `Arc<AtomicU64>` cell.
//!   Registration takes a short registry lock once; every increment
//!   afterwards is a relaxed atomic add, so instrumented hot loops pay
//!   nanoseconds, not mutexes. All handles are `Send + Sync` and
//!   clone-cheap.
//! * **Deterministic.** Snapshots contain only order-independent sums —
//!   monotonic counters, never wall-clock time. A fixed seed therefore yields a byte-identical
//!   [`TelemetrySnapshot`] at any
//!   [`shards`](crate::pipeline::PipelineConfig::shards) count;
//!   `tests/scan_identity.rs` enforces this.
//! * **Sorted serialization.** [`TelemetrySnapshot`] keeps every
//!   counter in a `BTreeMap`, so the JSON emitted by
//!   [`TelemetrySnapshot::to_json`] has sorted keys and is stable across
//!   runs and platforms.

use crate::json::{object, FromJson, JsonError, ToJson, Value};
use nokeys_http::{FaultLane, Transport};
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

/// One stage's `<stage>.error.<class>` counters, one per
/// [`nokeys_http::Error::class`]. Each registers at its class's first
/// failure, so a snapshot lists only the classes that occurred. A count
/// looks its counter up by name, as the other first-use families do: a
/// scan batch's registry is its own, so the lookup waits on no other
/// worker.
#[derive(Clone, Debug)]
pub(crate) struct ErrorCounters {
    telemetry: Telemetry,
    stage: &'static str,
}

impl ErrorCounters {
    pub(crate) fn new(telemetry: &Telemetry, stage: &'static str) -> Self {
        let telemetry = telemetry.clone();
        ErrorCounters { telemetry, stage }
    }

    /// Count one operation that failed as `error` did.
    pub(crate) fn count(&self, error: &nokeys_http::Error) {
        let name = format!("{}.error.{}", self.stage, error.class());
        self.telemetry.counter(&name).incr();
    }
}

/// A value's distribution as counters: one per inclusive upper bound,
/// `<name>.le_<b>`, one for values above the last bound,
/// `<name>.gt_<last>`, and `<name>.sum` of every value observed. The
/// bounds are fixed in code, so two runs count into the same buckets.
#[derive(Clone, Debug)]
pub struct Buckets {
    bounds: &'static [u64],
    /// One counter per bound, then the one above the last.
    counts: Vec<Counter>,
    sum: Counter,
}

impl Buckets {
    /// Count one observation of `value`.
    pub fn observe(&self, value: u64) {
        self.counts[self.bounds.partition_point(|&b| b < value)].incr();
        self.sum.add(value);
    }
}

/// The shared metrics registry. Cloning is cheap (an `Arc` bump) and all
/// clones record into the same counters; the registry is `Send + Sync`
/// so one instance can be threaded through every pipeline stage and
/// every spawned task.
#[derive(Clone, Default)]
pub struct Telemetry {
    counters: Arc<RwLock<BTreeMap<String, Counter>>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field(
                "counters",
                &self.counters.read().expect("not poisoned").len(),
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
        if let Some(c) = self.counters.read().expect("not poisoned").get(name) {
            return c.clone();
        }
        self.counters
            .write()
            .expect("not poisoned")
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The [`Buckets`] named `name` with the given inclusive upper
    /// `bounds`, registering every one of its counters at zero.
    ///
    /// # Panics
    ///
    /// If `bounds` is empty or does not strictly increase.
    pub fn buckets(&self, name: &str, bounds: &'static [u64]) -> Buckets {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bucket bounds {bounds:?} of {name} must strictly increase"
        );
        let last = bounds.last().expect("at least one bucket bound");
        let counts = (bounds.iter())
            .map(|b| self.counter(&format!("{name}.le_{b}")))
            .chain([self.counter(&format!("{name}.gt_{last}"))])
            .collect();
        let sum = self.counter(&format!("{name}.sum"));
        Buckets {
            bounds,
            counts,
            sum,
        }
    }

    /// The counter of faults injected on `lane`,
    /// `fault.{probe,connect}.injected`.
    pub fn fault_counter(&self, lane: FaultLane) -> Counter {
        self.counter(match lane {
            FaultLane::Probe => "fault.probe.injected",
            FaultLane::Connect => "fault.connect.injected",
        })
    }

    /// From now on, count every fault `transport` injects on its lane's
    /// [`fault_counter`](Self::fault_counter), which registers at the
    /// lane's first fault.
    pub fn count_faults(&self, transport: &mut impl Transport) {
        let telemetry = self.clone();
        transport.report_faults_to(Arc::new(move |lane| telemetry.fault_counter(lane).incr()));
    }

    /// Add a snapshot's counters into this registry, registering any
    /// counter the registry does not know yet.
    ///
    /// This is how a scan reduces its batches: each batch records into
    /// a registry of its own, its [`TelemetrySnapshot`] is filed (and
    /// logged, when checkpointing), and the scan's registry absorbs
    /// every filed batch — from this run or from a log it resumes — so
    /// it ends up exactly where an uninterrupted run's would be.
    pub fn absorb(&self, snapshot: &TelemetrySnapshot) {
        for (name, value) in &snapshot.counters {
            self.counter(name).add(*value);
        }
    }

    /// A consistent point-in-time view of every counter. Meant to be
    /// taken after a run completes; taking it while writers are active
    /// yields a valid but possibly mid-update view.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let counters = self.counters.read().expect("not poisoned");
        TelemetrySnapshot {
            counters: (counters.iter())
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
        }
    }
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
}

impl ToJson for TelemetrySnapshot {
    fn to_json(&self) -> Value {
        object([("counters", self.counters.to_json())])
    }
}

impl FromJson for TelemetrySnapshot {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        Ok(TelemetrySnapshot {
            counters: value.field("counters")?,
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
        assert_send_sync::<Buckets>();
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

    /// A bound is inclusive, a value above the last one counts in
    /// `gt_<last>`, and every counter is registered before any value.
    #[test]
    fn buckets_are_inclusive_with_overflow_and_sum() {
        let t = Telemetry::new();
        let h = t.buckets("h", &[1, 4, 16]);
        let names = ["h.gt_16", "h.le_1", "h.le_16", "h.le_4", "h.sum"];
        assert!(t.snapshot().counters.keys().eq(names), "sorted as strings");
        assert!(t.snapshot().counters.values().all(|&n| n == 0));
        for v in [0, 1, 2, 4, 5, 100] {
            h.observe(v);
        }
        let s = t.snapshot();
        let counts = names.map(|name| s.counter(name));
        assert_eq!(counts, [1, 2, 1, 2, 112]);
    }

    #[test]
    #[should_panic(expected = "must strictly increase")]
    fn bucket_bounds_must_increase() {
        Telemetry::new().buckets("h", &[1, 1, 2]);
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
        let h = t.buckets("sizes", &[10]);
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
        let s = t.snapshot();
        let counts = ["sizes.le_10", "sizes.gt_10", "sizes.sum"].map(|name| s.counter(name));
        assert_eq!(counts, [4400, 3600, 8 * 50 * 190]);
    }

    #[test]
    fn prefixed_total_sums_matching_counters() {
        let t = Telemetry::new();
        t.counter("stage3.verify.Docker.confirmed").add(2);
        t.counter("stage3.verify.Hadoop.confirmed").add(3);
        t.counter("stage2.hits").add(100);
        assert_eq!(t.snapshot().prefixed_total("stage3.verify."), 5);
    }

    /// Recording work directly and recording each batch into a registry
    /// of its own, then absorbing the batches, must be indistinguishable
    /// — the invariant the batch ledger relies on. A counter a batch
    /// registers lazily is in that batch's snapshot alone.
    #[test]
    fn absorbing_deltas_reconstructs_the_registry() {
        let source = Telemetry::new();
        let replica = Telemetry::new();
        for round in 0..3u64 {
            let staging = Telemetry::new();
            for t in [&source, &staging] {
                t.counter("ops").add(round + 1);
                t.counter("never-incremented");
                t.buckets("sizes", &[10, 100]).observe(round * 60);
                if round == 1 {
                    t.counter("lazy").incr();
                }
            }
            let batch = staging.snapshot();
            assert_eq!(batch.counter("ops"), round + 1, "one batch's work only");
            assert_eq!(batch.counter("sizes.sum"), round * 60);
            assert_eq!(batch.prefixed_total("sizes.") - round * 60, 1);
            assert!(batch.counters.contains_key("never-incremented"));
            assert_eq!(batch.counters.contains_key("lazy"), round == 1);
            replica.absorb(&batch);
        }
        assert_eq!(source.snapshot().to_json(), replica.snapshot().to_json());
    }

    /// A full snapshot absorbed into a fresh registry reproduces it,
    /// and zero-valued counters still get registered.
    #[test]
    fn absorbing_a_full_snapshot_reproduces_it() {
        let source = Telemetry::new();
        source.counter("hits").add(7);
        source.counter("never-incremented");
        source.buckets("h", &[1, 2]).observe(2);
        let snap = source.snapshot();

        let replica = Telemetry::new();
        replica.absorb(&snap);
        assert_eq!(replica.snapshot().to_json(), snap.to_json());
        assert!(replica.snapshot().counters.contains_key("h.gt_2"));
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let t = Telemetry::new();
        t.counter("c").add(3);
        t.buckets("h", &[1, 4]).observe(2);
        let snap = t.snapshot();
        let json = snap.to_json();
        assert_eq!(
            json,
            r#"{"counters":{"c":3,"h.gt_4":0,"h.le_1":0,"h.le_4":1,"h.sum":2}}"#
        );
        let value = crate::json::parse(json.as_bytes()).expect("parses");
        assert_eq!(TelemetrySnapshot::from_json(&value), Ok(snap));
    }

    #[test]
    fn text_rendering_lists_every_instrument() {
        let t = Telemetry::new();
        t.counter("stage1.probes_sent").add(12);
        t.buckets("stage2.redirects", &[0, 1, 2]).observe(1);
        let text = t.snapshot().render_text();
        assert!(text.contains("stage1.probes_sent"));
        assert!(text.contains(" 12\n"));
        assert!(text.contains("stage2.redirects.le_1"));
        assert!(text.contains("stage2.redirects.gt_2"));
    }
}
