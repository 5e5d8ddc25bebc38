//! Order-independent, seeded fault injection.
//!
//! A [`FaultPlan`] decides whether the *n*-th probe or connect attempt
//! against a given endpoint suffers a transient fault. The decision is
//! a pure splitmix64 hash over `(seed, ip, port, lane, n)`; the only
//! mutable state is a sharded per-endpoint attempt counter, so *which*
//! attempt faults for an endpoint is independent of how attempts
//! against different endpoints interleave. That property is what keeps
//! fault-injected pipeline runs byte-identical at any shard count: a
//! concurrent sweep may reorder endpoints freely, but every endpoint
//! still sees the same fault schedule it would have seen alone.
//!
//! [`FaultyTransport`] applies a plan to any [`Transport`], and it is the
//! one place faults are drawn: the `repro` harness and the tests wrap
//! `SimTransport` with it, and the real-socket CLI wraps `TcpTransport`
//! with it to rehearse flaky-network behaviour on live scans.

use crate::ip::Cidr;
use crate::rng::{mix64, unit_interval};
use nokeys_http::{BlockSweepResult, Endpoint, Error, ProbeOutcome, Result, Scheme, Transport};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Which operation a fault decision applies to. Probe and connect
/// attempts against the same endpoint draw from independent streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultLane {
    /// Stage-I SYN probe: an injected fault drops the answer, so the
    /// endpoint reads as [`ProbeOutcome::Filtered`].
    Probe,
    /// Connection establishment: an injected fault times the attempt
    /// out ([`Error::Timeout`]).
    Connect,
}

/// Counts of injected faults, shared across clones of a plan.
#[derive(Debug, Default)]
pub struct FaultStats {
    probe: AtomicU64,
    connect: AtomicU64,
}

impl FaultStats {
    /// Probe attempts answered with an injected drop.
    pub fn probe_injected(&self) -> u64 {
        self.probe.load(Ordering::Relaxed)
    }

    /// Connect attempts answered with an injected timeout.
    pub fn connect_injected(&self) -> u64 {
        self.connect.load(Ordering::Relaxed)
    }

    /// Total injected faults across both lanes.
    pub fn total(&self) -> u64 {
        self.probe_injected() + self.connect_injected()
    }
}

type Observer = Arc<dyn Fn(FaultLane) + Send + Sync>;
/// Per-(endpoint, lane) attempt ordinals, sharded to keep worker
/// threads off one lock.
type AttemptCounters = [Mutex<HashMap<(Endpoint, FaultLane), u64>>; SHARDS];

const SHARDS: usize = 16;

/// Deterministic fault schedule over `(endpoint, lane, attempt ordinal)`.
///
/// Clones share the attempt counters and stats, so a transport cloned
/// into many concurrent tasks draws from one coherent schedule.
#[derive(Clone)]
pub struct FaultPlan {
    rate: f64,
    seed: u64,
    counters: Arc<AttemptCounters>,
    stats: Arc<FaultStats>,
    observer: Option<Observer>,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("rate", &self.rate)
            .field("seed", &self.seed)
            .field("observer", &self.observer.is_some())
            .finish_non_exhaustive()
    }
}

impl FaultPlan {
    /// A plan firing each attempt with probability `rate`, keyed by
    /// `seed`. Panics unless `rate` is a probability in `0.0..=1.0`.
    pub fn new(rate: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "fault rate must be a probability in 0.0..=1.0"
        );
        FaultPlan {
            rate,
            seed,
            counters: Arc::new(std::array::from_fn(|_| Mutex::new(HashMap::new()))),
            stats: Arc::new(FaultStats::default()),
            observer: None,
        }
    }

    /// Attach a callback invoked on every injected fault — the repro
    /// harness bridges this into its telemetry registry (`fault.*`
    /// counters) without netsim depending on the scanner crate.
    pub fn with_observer(mut self, observer: impl Fn(FaultLane) + Send + Sync + 'static) -> Self {
        self.observer = Some(Arc::new(observer));
        self
    }

    /// Shared injected-fault counts.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Decide the fate of the next attempt in `lane` against `ep`,
    /// advancing that endpoint's attempt ordinal.
    ///
    /// Deterministic per `(endpoint, lane, ordinal)`: the global order
    /// in which different endpoints call this cannot change any one
    /// endpoint's schedule.
    pub fn fires(&self, lane: FaultLane, ep: Endpoint) -> bool {
        if self.rate <= 0.0 {
            return false;
        }
        let ordinal = {
            let mut shard = self.counters[Self::shard_of(ep)]
                .lock()
                .expect("fault counters are only ever incremented under the lock");
            let n = shard.entry((ep, lane)).or_insert(0);
            let ordinal = *n;
            *n += 1;
            ordinal
        };
        let fired = unit_interval(mix(self.seed, ep, lane, ordinal)) < self.rate;
        if fired {
            match lane {
                FaultLane::Probe => self.stats.probe.fetch_add(1, Ordering::Relaxed),
                FaultLane::Connect => self.stats.connect.fetch_add(1, Ordering::Relaxed),
            };
            if let Some(observer) = &self.observer {
                observer(lane);
            }
        }
        fired
    }

    fn shard_of(ep: Endpoint) -> usize {
        (u32::from(ep.ip) as usize ^ ep.port as usize) % SHARDS
    }
}

/// splitmix64 finalizer over the combined fault key.
fn mix(seed: u64, ep: Endpoint, lane: FaultLane, ordinal: u64) -> u64 {
    let lane_tag: u64 = match lane {
        FaultLane::Probe => 0x50,
        FaultLane::Connect => 0x43,
    };
    mix64(
        seed ^ (u64::from(u32::from(ep.ip)) << 16)
            ^ u64::from(ep.port)
            ^ (lane_tag << 56)
            ^ ordinal.wrapping_mul(0x9e37_79b9_7f4a_7c15),
    )
}

/// Wrap any [`Transport`] with an injected-fault schedule.
///
/// Injected probe faults surface as [`ProbeOutcome::Filtered`] (the SYN
/// went unanswered); injected connect faults surface as
/// [`Error::Timeout`]. Everything else delegates to the inner
/// transport. Clones share the plan's attempt counters.
///
/// Probe-lane draws are decided *after* the inner probe answers: a
/// `Closed` outcome (an RST is a definite answer) skips the draw, which
/// keeps the per-endpoint fault schedule identical between dense and
/// sparse sweeps (empty addresses never consume an ordinal). The cost
/// of that invariant is that the inner probe is always issued — when
/// wrapping a live network transport, a fired fault still sends the
/// real SYN and discards its answer, and inner-layer probe counters
/// include faulted probes.
#[derive(Debug, Clone)]
pub struct FaultyTransport<T> {
    inner: T,
    plan: FaultPlan,
}

impl<T> FaultyTransport<T> {
    pub fn new(inner: T, plan: FaultPlan) -> Self {
        FaultyTransport { inner, plan }
    }

    /// The fault schedule applied to this transport.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    type Conn = T::Conn;

    fn probe(&self, ep: Endpoint) -> ProbeOutcome {
        let outcome = self.inner.probe(ep);
        if outcome == ProbeOutcome::Closed {
            // An RST is a definite answer — fault lanes only lose
            // answers that were in flight. Skipping the draw keeps the
            // per-endpoint schedule identical whether a block is swept
            // densely or sparsely (empty addresses never draw).
            return outcome;
        }
        if self.plan.fires(FaultLane::Probe, ep) {
            return ProbeOutcome::Filtered;
        }
        outcome
    }

    fn connect(&self, ep: Endpoint, scheme: Scheme) -> Result<T::Conn> {
        if self.plan.fires(FaultLane::Connect, ep) {
            return Err(Error::Timeout);
        }
        self.inner.connect(ep, scheme)
    }

    fn sweep_block(&self, block: Cidr, ports: &[u16]) -> BlockSweepResult {
        let mut result = self.inner.sweep_block(block, ports);
        // Apply this layer's probe-lane draws to every individually
        // evaluated probe, in sweep order — exactly the draws the dense
        // loop would have made through `probe`. Bulk-closed probes are
        // `Closed`, which draws nothing (see `probe`).
        for (ep, outcome) in &mut result.probed {
            if *outcome != ProbeOutcome::Closed && self.plan.fires(FaultLane::Probe, *ep) {
                *outcome = ProbeOutcome::Filtered;
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn ep(last: u8, port: u16) -> Endpoint {
        Endpoint {
            ip: Ipv4Addr::new(10, 0, 0, last),
            port,
        }
    }

    #[test]
    fn rate_zero_never_fires_and_rate_one_always_fires() {
        let never = FaultPlan::new(0.0, 1);
        let always = FaultPlan::new(1.0, 1);
        for n in 0..64 {
            assert!(!never.fires(FaultLane::Connect, ep(1, 80)), "attempt {n}");
            assert!(always.fires(FaultLane::Connect, ep(1, 80)), "attempt {n}");
        }
        assert_eq!(never.stats().total(), 0);
        assert_eq!(always.stats().connect_injected(), 64);
    }

    #[test]
    fn per_endpoint_schedule_is_independent_of_interleaving() {
        let a = ep(1, 80);
        let b = ep(2, 443);
        let plan1 = FaultPlan::new(0.5, 2022);
        let plan2 = FaultPlan::new(0.5, 2022);

        // Plan 1: all of a's attempts, then all of b's.
        let a1: Vec<bool> = (0..32)
            .map(|_| plan1.fires(FaultLane::Connect, a))
            .collect();
        let b1: Vec<bool> = (0..32)
            .map(|_| plan1.fires(FaultLane::Connect, b))
            .collect();

        // Plan 2: strictly interleaved. The per-endpoint sequences must
        // not change — this is exactly what the old global attempt
        // counter violated.
        let mut a2 = Vec::new();
        let mut b2 = Vec::new();
        for _ in 0..32 {
            b2.push(plan2.fires(FaultLane::Connect, b));
            a2.push(plan2.fires(FaultLane::Connect, a));
        }
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
    }

    #[test]
    fn lanes_draw_from_independent_streams() {
        let plan = FaultPlan::new(0.5, 7);
        let probe: Vec<bool> = (0..64)
            .map(|_| plan.fires(FaultLane::Probe, ep(9, 8080)))
            .collect();
        let connect: Vec<bool> = (0..64)
            .map(|_| plan.fires(FaultLane::Connect, ep(9, 8080)))
            .collect();
        assert_ne!(probe, connect, "lane tag must decorrelate the streams");
    }

    #[test]
    fn firing_rate_tracks_the_configured_probability() {
        let plan = FaultPlan::new(0.25, 99);
        let mut fired = 0u32;
        for host in 0..64u8 {
            for _ in 0..16 {
                if plan.fires(FaultLane::Connect, ep(host, 80)) {
                    fired += 1;
                }
            }
        }
        // 1024 draws at p=0.25: expect 256 (σ ≈ 14); this seed measures
        // 249. The band is the expectation ± 4σ.
        assert!((200..312).contains(&fired), "fired {fired}/1024");
        assert_eq!(u64::from(fired), plan.stats().connect_injected());
    }

    #[test]
    fn clones_share_one_schedule() {
        let plan = FaultPlan::new(1.0, 3);
        let clone = plan.clone();
        assert!(clone.fires(FaultLane::Probe, ep(1, 80)));
        assert_eq!(plan.stats().probe_injected(), 1);
    }

    #[test]
    fn observer_sees_every_injected_fault() {
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        let plan = FaultPlan::new(1.0, 5).with_observer(move |_| {
            seen2.fetch_add(1, Ordering::Relaxed);
        });
        for _ in 0..10 {
            plan.fires(FaultLane::Connect, ep(4, 22));
        }
        assert_eq!(seen.load(Ordering::Relaxed), 10);
    }
}
