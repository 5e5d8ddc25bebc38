//! Stateless, seeded fault injection.
//!
//! A [`FaultPlan`] decides whether one probe or connect try suffers a
//! transient fault, as a pure function of `(seed, lane, endpoint,
//! instant, request target, try number)`: a splitmix64 chain over that
//! key, compared with the rate. Nothing is counted, so no call order,
//! clone, thread, shard count or resumed process can move a fate, and a
//! repeat with the same key repeats its fate. Target and try arrive as
//! the [`Attempt`] of every [`Transport`] call; the instant is the
//! transport's own ([`FaultyTransport::at`]).
//!
//! [`FaultyTransport`] is the one place faults are drawn: the `repro`
//! harness and the tests wrap `SimTransport` with it, and the
//! real-socket CLI wraps `TcpTransport` to rehearse flaky networks.

use crate::clock::SimTime;
use crate::ip::Cidr;
use crate::rng::{mix64, unit_interval};
use crate::transport::SimTransport;
use nokeys_http::{
    Attempt, Endpoint, Error, FaultLane, FaultObserver, ProbeOutcome, Result, Scheme, Transport,
};

/// Deterministic fault schedule over `(lane, endpoint, instant, target,
/// try number)`. Injected faults are counted only by whoever the
/// transport reports them to ([`Transport::report_faults_to`]).
#[derive(Clone)]
pub struct FaultPlan {
    rate: f64,
    seed: u64,
    observer: Option<FaultObserver>,
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
            observer: None,
        }
    }

    /// The fate of try `attempt` in `lane` against `ep` at `at`: a pure
    /// function of the key, so any order of calls draws the same fates.
    /// Writes nothing; a fault that fires is reported to the observer,
    /// if one is set.
    pub fn fires(&self, lane: FaultLane, ep: Endpoint, at: SimTime, attempt: Attempt<'_>) -> bool {
        if self.rate <= 0.0 {
            return false;
        }
        let ep_bits = (u64::from(u32::from(ep.ip)) << 16) | u64::from(ep.port);
        let words = [ep_bits, at.as_secs() as u64, u64::from(attempt.n)];
        let target = attempt.target.bytes().map(u64::from);
        let mut key = self.seed ^ ((lane as u64) << 56);
        for word in words.into_iter().chain(target) {
            key = mix64(key ^ word);
        }
        let fired = unit_interval(key) < self.rate;
        if fired {
            if let Some(observer) = &self.observer {
                observer(lane);
            }
        }
        fired
    }
}

/// Wrap any [`Transport`] with injected faults, drawn at the instant
/// this transport stands at (the scan start unless moved with
/// [`at`](FaultyTransport::at)). Injected probe faults surface as
/// [`ProbeOutcome::Filtered`] (the SYN went unanswered), injected
/// connect faults as [`Error::Timeout`]; everything else delegates to
/// the inner transport.
///
/// The inner probe is always issued, since only an answer that is not
/// `Closed` can be faulted: over a live network transport, a fired
/// fault still sends the real SYN and discards its answer, and
/// inner-layer probe counters include faulted probes.
#[derive(Debug, Clone)]
pub struct FaultyTransport<T> {
    inner: T,
    plan: FaultPlan,
    now: SimTime,
}

impl<T> FaultyTransport<T> {
    pub fn new(inner: T, plan: FaultPlan) -> Self {
        FaultyTransport {
            inner,
            plan,
            now: SimTime::SCAN_START,
        }
    }

    /// The fault schedule applied to this transport.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// A probe's `outcome`, unless its fate drops the answer. `Closed` (an
    /// RST is a definite answer) is never faulted.
    fn answer(&self, ep: Endpoint, attempt: Attempt<'_>, outcome: ProbeOutcome) -> ProbeOutcome {
        match outcome {
            ProbeOutcome::Closed => outcome,
            _ if self.plan.fires(FaultLane::Probe, ep, self.now, attempt) => ProbeOutcome::Filtered,
            _ => outcome,
        }
    }
}

impl FaultyTransport<SimTransport> {
    /// This transport as it answers at `t`: the simulator and the fault
    /// draws move together, and no other clone moves.
    pub fn at(&self, t: SimTime) -> Self {
        FaultyTransport {
            inner: self.inner.at(t),
            plan: self.plan.clone(),
            now: t,
        }
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    type Conn = T::Conn;

    fn probe(&self, ep: Endpoint, attempt: Attempt<'_>) -> ProbeOutcome {
        self.answer(ep, attempt, self.inner.probe(ep, attempt))
    }

    fn connect(&self, ep: Endpoint, scheme: Scheme, attempt: Attempt<'_>) -> Result<T::Conn> {
        if self.plan.fires(FaultLane::Connect, ep, self.now, attempt) {
            return Err(Error::Timeout);
        }
        self.inner.connect(ep, scheme, attempt)
    }

    /// `Closed` is never faulted, so the inner transport's silent
    /// addresses stay silent.
    fn live_addresses(&self, block: Cidr) -> Option<&[u32]> {
        self.inner.live_addresses(block)
    }

    /// Report this transport's faults to `observer` — how the scanner
    /// and the repro harness count them as `fault.*` without netsim
    /// depending on the scanner crate.
    fn report_faults_to(&mut self, observer: FaultObserver) {
        self.plan.observer = Some(observer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// An observer adding each fault it hears of to `seen`.
    fn counting(seen: &Arc<AtomicU64>) -> FaultObserver {
        let seen = Arc::clone(seen);
        Arc::new(move |_| {
            seen.fetch_add(1, Ordering::Relaxed);
        })
    }

    /// `plan` reporting its faults to a count of their own.
    fn counted(mut plan: FaultPlan) -> (FaultPlan, Arc<AtomicU64>) {
        let seen = Arc::new(AtomicU64::new(0));
        plan.observer = Some(counting(&seen));
        (plan, seen)
    }

    fn ep(last: u8, port: u16) -> Endpoint {
        Endpoint {
            ip: Ipv4Addr::new(10, 0, 0, last),
            port,
        }
    }

    fn nth(n: u32) -> Attempt<'static> {
        Attempt { target: "/", n }
    }

    #[test]
    fn rate_zero_never_fires_and_rate_one_always_fires() {
        let (never, never_seen) = counted(FaultPlan::new(0.0, 1));
        let (always, always_seen) = counted(FaultPlan::new(1.0, 1));
        for n in 0..64 {
            let t = SimTime::SCAN_START;
            assert!(!never.fires(FaultLane::Connect, ep(1, 80), t, nth(n)));
            assert!(always.fires(FaultLane::Connect, ep(1, 80), t, nth(n)));
        }
        assert_eq!(never_seen.load(Ordering::Relaxed), 0);
        assert_eq!(always_seen.load(Ordering::Relaxed), 64);
    }

    /// Every key of a small grid: 8 endpoints × 4 instants × 3 targets ×
    /// 4 tries, in both lanes.
    fn keys() -> Vec<(FaultLane, Endpoint, SimTime, Attempt<'static>)> {
        let mut keys = Vec::new();
        for lane in [FaultLane::Probe, FaultLane::Connect] {
            for host in 0..8 {
                for secs in [0, 1, 3600, 86_400] {
                    for target in ["", "/", "/api/v1/pods"] {
                        for n in 0..4 {
                            let attempt = Attempt { target, n };
                            keys.push((lane, ep(host, 80), SimTime(secs), attempt));
                        }
                    }
                }
            }
        }
        keys
    }

    fn draw(plan: &FaultPlan, key: &(FaultLane, Endpoint, SimTime, Attempt)) -> bool {
        plan.fires(key.0, key.1, key.2, key.3)
    }

    /// The contract: the same key meets the same fate whatever came
    /// before it — forwards, backwards, interleaved across endpoints, and
    /// on another thread.
    #[test]
    fn per_endpoint_schedule_is_independent_of_interleaving() {
        let plan = FaultPlan::new(0.5, 2022);
        let keys = keys();
        let forwards: Vec<bool> = keys.iter().map(|k| draw(&plan, k)).collect();
        let mut backwards: Vec<bool> = keys.iter().rev().map(|k| draw(&plan, k)).collect();
        backwards.reverse();
        // Strictly interleave the first and second half of the grid, so
        // consecutive draws alternate between endpoints.
        let half = keys.len() / 2;
        let mut interleaved = vec![false; keys.len()];
        for i in 0..half {
            interleaved[half + i] = draw(&plan, &keys[half + i]);
            interleaved[i] = draw(&plan, &keys[i]);
        }
        let threaded = std::thread::scope(|s| {
            s.spawn(|| keys.iter().map(|k| draw(&plan, k)).collect::<Vec<_>>())
                .join()
                .expect("draw thread")
        });
        assert_eq!(forwards, backwards);
        assert_eq!(forwards, interleaved);
        assert_eq!(forwards, threaded);
        assert!(forwards.contains(&true) && forwards.contains(&false));
    }

    /// A clone holds no schedule of its own: it draws the original's
    /// fates for every key, and reports its injected faults to the
    /// original's observer.
    #[test]
    fn clones_share_one_schedule() {
        let (plan, seen) = counted(FaultPlan::new(0.5, 2022));
        let clone = plan.clone();
        let keys = keys();
        let original: Vec<bool> = keys.iter().map(|k| draw(&plan, k)).collect();
        let cloned: Vec<bool> = keys.iter().map(|k| draw(&clone, k)).collect();
        assert_eq!(original, cloned);
        let fired = original.iter().filter(|&&f| f).count() as u64;
        assert!(fired > 0);
        assert_eq!(
            seen.load(Ordering::Relaxed),
            2 * fired,
            "clones share the observer"
        );
    }

    /// Lane, target, try number and instant each take part in the key:
    /// changing any one of them alone draws a fresh fate, so two GETs of
    /// different targets at one endpoint and instant do not share one.
    #[test]
    fn lane_target_attempt_and_instant_each_decorrelate_the_draw() {
        let plan = FaultPlan::new(0.5, 7);
        let t0 = SimTime::SCAN_START;
        let fates = |f: &dyn Fn(Endpoint) -> bool| -> Vec<bool> {
            (0..64).map(|host| f(ep(host, 8080))).collect()
        };
        let base = fates(&|e| plan.fires(FaultLane::Connect, e, t0, nth(0)));
        let variants = [
            (
                "lane",
                fates(&|e| plan.fires(FaultLane::Probe, e, t0, nth(0))),
            ),
            (
                "target",
                fates(&|e| {
                    let other = Attempt {
                        target: "/api",
                        n: 0,
                    };
                    plan.fires(FaultLane::Connect, e, t0, other)
                }),
            ),
            (
                "attempt",
                fates(&|e| plan.fires(FaultLane::Connect, e, t0, nth(1))),
            ),
            (
                "instant",
                fates(&|e| plan.fires(FaultLane::Connect, e, SimTime(1), nth(0))),
            ),
        ];
        for (what, fates) in variants {
            let shared = base.iter().zip(&fates).filter(|(a, b)| a == b).count();
            // 64 fair coins agree 32 times on average (σ = 4); a key
            // component that did not enter the hash would agree 64 times.
            assert!(
                (16..=48).contains(&shared),
                "{what}: {shared}/64 fates shared"
            );
        }
    }

    #[test]
    fn firing_rate_tracks_the_configured_probability() {
        let (plan, seen) = counted(FaultPlan::new(0.25, 99));
        let mut fired = 0u32;
        for host in 0..64u8 {
            for n in 0..16 {
                if plan.fires(FaultLane::Connect, ep(host, 80), SimTime(0), nth(n)) {
                    fired += 1;
                }
            }
        }
        // 1024 draws at p=0.25: expect 256 (σ ≈ 14). The band is the
        // expectation ± 4σ.
        assert!((200..312).contains(&fired), "fired {fired}/1024");
        assert_eq!(u64::from(fired), seen.load(Ordering::Relaxed));
    }

    /// Every injected fault reaches the observer a transport was told
    /// to report to. A clone told to report elsewhere reports its own
    /// faults there alone; the original keeps its observer.
    #[test]
    fn observer_sees_every_injected_fault() {
        let (old, new) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let inner = nokeys_http::memory::HandlerTransport::new();
        let mut original = FaultyTransport::new(inner, FaultPlan::new(1.0, 5));
        original.report_faults_to(counting(&old));
        let mut rerouted = original.clone();
        rerouted.report_faults_to(counting(&new));
        for n in 0..10 {
            assert!(original.connect(ep(4, 22), Scheme::Http, nth(n)).is_err());
        }
        for n in 0..3 {
            assert!(rerouted.connect(ep(4, 22), Scheme::Http, nth(n)).is_err());
        }
        assert_eq!(old.load(Ordering::Relaxed), 10);
        assert_eq!(new.load(Ordering::Relaxed), 3);
    }
}
