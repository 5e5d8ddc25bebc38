//! Seeded retry/backoff for transient network faults.
//!
//! The paper's methodology tolerates transient loss — masscan SYN
//! retransmits in stage I, rescans in §3.5 — and this module is the
//! pipeline's equivalent: a [`RetryPolicy`] describing how many
//! attempts an operation gets and how it backs off, and a
//! [`RetryTransport`] wrapper that applies the policy at the transport
//! layer. Stage-I probes retry on [`ProbeOutcome::Filtered`] (an
//! unanswered SYN may be loss; an RST is a definite answer), connects
//! retry on transient errors ([`nokeys_http::Error::is_transient`]), so
//! stage II prefilter fetches, stage III plugin verification and the
//! fingerprinter all inherit retries from one choke point. The
//! prefilter additionally retries whole fetches through
//! [`RetryPolicy::run`], which recovers connections that die
//! mid-response. Each retry is a later try ([`Attempt::retry`]) of the
//! one it repeats, so it draws a fault fate of its own.
//!
//! Backoff is deterministic: delays are *virtual* units summed on a
//! telemetry counter (`retry.<lane>.backoff_units`), with jitter drawn
//! from a splitmix64 hash over `(seed, endpoint, attempt)`. No
//! wall-clock sleep happens unless [`RetryPolicy::real_unit`] is
//! non-zero, so simulated scans stay fast and byte-identical at any
//! shard count; the real-socket CLI maps units to milliseconds.

use crate::telemetry::{Counter, Telemetry};
use nokeys_http::ip::Cidr;
use nokeys_http::{Attempt, BlockSweepResult, Endpoint, ProbeOutcome, Result, Scheme, Transport};
use std::time::Duration;

/// Retry/backoff configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per operation (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry, in virtual units.
    pub base_units: u64,
    /// Ceiling for the exponential backoff, in virtual units.
    pub cap_units: u64,
    /// Maximum deterministic jitter added to each backoff, in virtual
    /// units.
    pub jitter_units: u64,
    /// Seed of the jitter stream.
    pub seed: u64,
    /// Wall-clock duration of one virtual unit. `Duration::ZERO` (the
    /// default) records backoff without sleeping — correct for the
    /// simulator, where pacing real time would only slow tests down.
    pub real_unit: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_units: 100,
            cap_units: 1_600,
            jitter_units: 50,
            seed: 0x0072_6574_7279, // "retry"
            real_unit: Duration::ZERO,
        }
    }
}

impl RetryPolicy {
    /// Single-attempt policy: no retries, no backoff.
    pub fn disabled() -> Self {
        Self::with_attempts(1)
    }

    /// Default policy with a different total attempt budget. `attempts`
    /// is clamped to at least 1 — one attempt always runs.
    pub fn with_attempts(attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: attempts.max(1),
            ..Default::default()
        }
    }

    /// Whether the policy ever retries.
    pub fn enabled(&self) -> bool {
        self.attempts() > 1
    }

    /// Total attempts, never below 1 (guards direct field mutation).
    pub fn attempts(&self) -> u32 {
        self.max_attempts.max(1)
    }

    /// Backoff after failed attempt number `attempt` (0-based): capped
    /// exponential growth plus deterministic per-endpoint jitter.
    pub fn backoff_units(&self, ep: Endpoint, attempt: u32) -> u64 {
        let exp = self
            .base_units
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.cap_units.max(self.base_units));
        exp + self.jitter(ep, attempt)
    }

    /// Deterministic jitter in `0..=jitter_units`: a splitmix64
    /// finalizer over `(seed, endpoint, attempt)`, so concurrent lanes
    /// desynchronize without a shared random source.
    fn jitter(&self, ep: Endpoint, attempt: u32) -> u64 {
        if self.jitter_units == 0 {
            return 0;
        }
        let mut x = self.seed
            ^ (u64::from(u32::from(ep.ip)) << 16)
            ^ u64::from(ep.port)
            ^ (u64::from(attempt) << 48);
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        x % (self.jitter_units + 1)
    }

    /// Record `units` of backoff on `metrics` and, when `real_unit` is
    /// non-zero, sleep the corresponding wall-clock time.
    fn pause(&self, metrics: &RetryMetrics, units: u64) {
        metrics.backoff_units.add(units);
        if self.real_unit > Duration::ZERO {
            let factor = units.min(u64::from(u32::MAX)) as u32;
            std::thread::sleep(self.real_unit.saturating_mul(factor));
        }
    }

    /// Run `op` under this policy, retrying transient errors with
    /// backoff and accounting on `metrics`. `op` is handed its attempt
    /// index (0-based), so each try can draw a fate of its own. Terminal
    /// errors return immediately; a transient error on the final attempt
    /// counts as exhausted.
    pub fn run<T>(
        &self,
        ep: Endpoint,
        metrics: &RetryMetrics,
        mut op: impl FnMut(u32) -> Result<T>,
    ) -> Result<T> {
        let max = self.attempts();
        for attempt in 0..max {
            match op(attempt) {
                Ok(value) => {
                    if attempt > 0 {
                        metrics.recovered.incr();
                    }
                    return Ok(value);
                }
                Err(e) if e.is_transient() && attempt + 1 < max => {
                    metrics.retries.incr();
                    self.pause(metrics, self.backoff_units(ep, attempt));
                }
                Err(e) => {
                    if e.is_transient() {
                        metrics.exhausted.incr();
                    }
                    return Err(e);
                }
            }
        }
        unreachable!("retry loop returns within its attempt budget")
    }
}

/// Cached telemetry handles for one retry lane (`probe`, `connect`,
/// `fetch`).
#[derive(Debug, Clone)]
pub struct RetryMetrics {
    /// `retry.<lane>.retries` — retries performed (a second or later
    /// attempt was started).
    pub retries: Counter,
    /// `retry.<lane>.recovered` — operations that failed at least once
    /// and then succeeded within the budget.
    pub recovered: Counter,
    /// `retry.<lane>.exhausted` — transient failures with no attempt
    /// budget left.
    pub exhausted: Counter,
    /// `retry.<lane>.backoff_units` — virtual backoff units paused.
    pub backoff_units: Counter,
}

impl RetryMetrics {
    pub fn new(telemetry: &Telemetry, lane: &str) -> Self {
        RetryMetrics {
            retries: telemetry.counter(&format!("retry.{lane}.retries")),
            recovered: telemetry.counter(&format!("retry.{lane}.recovered")),
            exhausted: telemetry.counter(&format!("retry.{lane}.exhausted")),
            backoff_units: telemetry.counter(&format!("retry.{lane}.backoff_units")),
        }
    }
}

/// Transport wrapper applying a [`RetryPolicy`] to every probe and
/// connect. [`Pipeline::run`](crate::pipeline::Pipeline::run) wraps the
/// caller's transport in one of these, which is how all three stages
/// (and the fingerprinter) retry without stage-specific plumbing.
#[derive(Debug, Clone)]
pub struct RetryTransport<T> {
    inner: T,
    policy: RetryPolicy,
    probe: RetryMetrics,
    connect: RetryMetrics,
}

impl<T> RetryTransport<T> {
    pub fn new(inner: T, policy: RetryPolicy, telemetry: &Telemetry) -> Self {
        RetryTransport {
            inner,
            policy,
            probe: RetryMetrics::new(telemetry, "probe"),
            connect: RetryMetrics::new(telemetry, "connect"),
        }
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The policy in force.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }
}

impl<T: Transport> RetryTransport<T> {
    /// Continue a probe's retry schedule after its first try, `first`,
    /// read `Filtered`. An unanswered SYN may be transient loss:
    /// retransmit, masscan-style, each retransmit a later try of
    /// `first`. `Closed` is terminal — an RST is a definite answer.
    /// Shared by `probe` and `sweep_block` so a probe first answered
    /// inside a block sweep retries (and meters) exactly like a
    /// standalone one.
    fn finish_probe_retries(&self, ep: Endpoint, first: Attempt<'_>) -> ProbeOutcome {
        let max = self.policy.attempts();
        let (mut attempt, mut outcome) = (0, ProbeOutcome::Filtered);
        while outcome == ProbeOutcome::Filtered && attempt + 1 < max {
            self.probe.retries.incr();
            self.policy
                .pause(&self.probe, self.policy.backoff_units(ep, attempt));
            attempt += 1;
            outcome = self.inner.probe(ep, first.retry(attempt));
        }
        if attempt > 0 {
            if outcome == ProbeOutcome::Filtered {
                self.probe.exhausted.incr();
            } else {
                self.probe.recovered.incr();
            }
        }
        outcome
    }
}

impl<T: Transport> Transport for RetryTransport<T> {
    type Conn = T::Conn;

    fn probe(&self, ep: Endpoint, attempt: Attempt<'_>) -> ProbeOutcome {
        match self.inner.probe(ep, attempt) {
            ProbeOutcome::Filtered => self.finish_probe_retries(ep, attempt),
            answered => answered,
        }
    }

    fn sweep_block(&self, block: Cidr, ports: &[u16]) -> BlockSweepResult {
        let mut result = self.inner.sweep_block(block, ports);
        // Only probes whose first attempt read `Filtered` owe retries:
        // `Open` succeeded and `Closed` is terminal, so the probes a
        // sparse sweep answered in bulk (all `Closed`) have no retry
        // draws to skip, and the sweep stays sparse.
        for (ep, outcome) in &mut result.probed {
            if *outcome == ProbeOutcome::Filtered {
                *outcome = self.finish_probe_retries(*ep, Attempt::FIRST);
            }
        }
        result
    }

    fn connect(&self, ep: Endpoint, scheme: Scheme, attempt: Attempt<'_>) -> Result<T::Conn> {
        self.policy.run(ep, &self.connect, |k| {
            self.inner.connect(ep, scheme, attempt.retry(k))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nokeys_http::memory::HandlerTransport;
    use nokeys_http::Error;
    use std::net::Ipv4Addr;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    fn ep() -> Endpoint {
        Endpoint::new(Ipv4Addr::new(192, 0, 2, 1), 80)
    }

    /// Fails the first `failures` operations with a scripted error, then
    /// delegates to an inner transport.
    #[derive(Clone)]
    struct Flaky<T> {
        inner: T,
        failures: Arc<AtomicU32>,
        err: Error,
    }

    impl<T> Flaky<T> {
        fn new(inner: T, failures: u32, err: Error) -> Self {
            Flaky {
                inner,
                failures: Arc::new(AtomicU32::new(failures)),
                err,
            }
        }

        fn take_failure(&self) -> bool {
            self.failures
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok()
        }
    }

    impl<T: Transport> Transport for Flaky<T> {
        type Conn = T::Conn;

        fn probe(&self, ep: Endpoint, attempt: Attempt<'_>) -> ProbeOutcome {
            if self.take_failure() {
                return ProbeOutcome::Filtered;
            }
            self.inner.probe(ep, attempt)
        }

        fn connect(&self, ep: Endpoint, scheme: Scheme, attempt: Attempt<'_>) -> Result<T::Conn> {
            if self.take_failure() {
                return Err(self.err.clone());
            }
            self.inner.connect(ep, scheme, attempt)
        }
    }

    /// Records the try number of every operation it forwards.
    struct Tries<T>(T, std::sync::Mutex<Vec<u32>>);

    impl<T: Transport> Transport for Tries<T> {
        type Conn = T::Conn;

        fn probe(&self, ep: Endpoint, attempt: Attempt<'_>) -> ProbeOutcome {
            self.1.lock().unwrap().push(attempt.n);
            self.0.probe(ep, attempt)
        }

        fn connect(&self, ep: Endpoint, scheme: Scheme, attempt: Attempt<'_>) -> Result<T::Conn> {
            self.1.lock().unwrap().push(attempt.n);
            self.0.connect(ep, scheme, attempt)
        }
    }

    /// Each retry is a later try of the caller's attempt, so a fault
    /// layer below draws a fresh fate for it.
    #[test]
    fn retries_advance_the_callers_try_number() {
        let telemetry = Telemetry::new();
        // Three filtered probes, then two connect timeouts before the
        // unmounted endpoint refuses.
        let flaky = Flaky::new(HandlerTransport::new(), 5, Error::Timeout);
        let t = RetryTransport::new(
            Tries(flaky, Default::default()),
            RetryPolicy::with_attempts(3),
            &telemetry,
        );
        let base = 7 << 16;
        let fetch = Attempt {
            target: "/",
            n: base,
        };
        assert_eq!(t.probe(ep(), fetch), ProbeOutcome::Filtered);
        assert!(t.connect(ep(), Scheme::Http, fetch).is_err());
        let seen = t.inner().1.lock().unwrap().clone();
        assert_eq!(seen, [base, base + 1, base + 2, base, base + 1, base + 2]);
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let policy = RetryPolicy {
            jitter_units: 0,
            ..RetryPolicy::default()
        };
        assert_eq!(policy.backoff_units(ep(), 0), 100);
        assert_eq!(policy.backoff_units(ep(), 1), 200);
        assert_eq!(policy.backoff_units(ep(), 2), 400);
        assert_eq!(policy.backoff_units(ep(), 10), 1_600, "capped");
        assert_eq!(policy.backoff_units(ep(), 63), 1_600, "shift stays sane");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let policy = RetryPolicy::default();
        let a = policy.backoff_units(ep(), 0);
        assert_eq!(a, policy.backoff_units(ep(), 0), "same key, same jitter");
        assert!((100..=150).contains(&a), "{a}");
        let other = Endpoint::new(Ipv4Addr::new(192, 0, 2, 2), 80);
        assert!((100..=150).contains(&policy.backoff_units(other, 0)));
    }

    #[test]
    fn attempts_never_drop_below_one() {
        assert_eq!(RetryPolicy::with_attempts(0).attempts(), 1);
        assert!(!RetryPolicy::disabled().enabled());
        assert!(RetryPolicy::default().enabled());
    }

    #[test]
    fn probe_retries_through_transient_filtering() {
        let telemetry = Telemetry::new();
        let flaky = Flaky::new(HandlerTransport::new(), 2, Error::Timeout);
        let t = RetryTransport::new(flaky, RetryPolicy::with_attempts(3), &telemetry);
        // HandlerTransport reports unmounted endpoints as Closed; the
        // two scripted Filtered results are retried away first.
        assert_eq!(t.probe(ep(), Attempt::FIRST), ProbeOutcome::Closed);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("retry.probe.retries"), 2);
        assert_eq!(snap.counter("retry.probe.recovered"), 1);
        assert_eq!(snap.counter("retry.probe.exhausted"), 0);
        assert!(snap.counter("retry.probe.backoff_units") > 0);
    }

    #[test]
    fn probe_budget_exhausts_on_persistent_filtering() {
        let telemetry = Telemetry::new();
        let flaky = Flaky::new(HandlerTransport::new(), u32::MAX, Error::Timeout);
        let t = RetryTransport::new(flaky, RetryPolicy::with_attempts(3), &telemetry);
        assert_eq!(t.probe(ep(), Attempt::FIRST), ProbeOutcome::Filtered);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("retry.probe.retries"), 2);
        assert_eq!(snap.counter("retry.probe.exhausted"), 1);
    }

    #[test]
    fn connect_does_not_retry_terminal_errors() {
        let telemetry = Telemetry::new();
        let flaky = Flaky::new(HandlerTransport::new(), 5, Error::Connect("refused".into()));
        let t = RetryTransport::new(flaky, RetryPolicy::with_attempts(3), &telemetry);
        assert!(t.connect(ep(), Scheme::Http, Attempt::FIRST).is_err());
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("retry.connect.retries"), 0);
        assert_eq!(snap.counter("retry.connect.exhausted"), 0);
    }

    #[test]
    fn connect_exhausts_after_persistent_timeouts() {
        let telemetry = Telemetry::new();
        let flaky = Flaky::new(HandlerTransport::new(), 5, Error::Timeout);
        let t = RetryTransport::new(flaky, RetryPolicy::with_attempts(3), &telemetry);
        assert!(matches!(
            t.connect(ep(), Scheme::Http, Attempt::FIRST),
            Err(Error::Timeout)
        ));
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("retry.connect.retries"), 2);
        assert_eq!(snap.counter("retry.connect.exhausted"), 1);
        assert_eq!(snap.counter("retry.connect.recovered"), 0);
    }

    #[test]
    fn run_recovers_transient_failures() {
        let telemetry = Telemetry::new();
        let metrics = RetryMetrics::new(&telemetry, "fetch");
        let policy = RetryPolicy::with_attempts(3);
        let result = policy.run(ep(), &metrics, |attempt| {
            if attempt < 2 {
                Err(Error::UnexpectedEof)
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(result, Ok(2));
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("retry.fetch.retries"), 2);
        assert_eq!(snap.counter("retry.fetch.recovered"), 1);
    }

    #[test]
    fn run_with_single_attempt_counts_exhaustion() {
        let telemetry = Telemetry::new();
        let metrics = RetryMetrics::new(&telemetry, "fetch");
        let result: Result<()> =
            RetryPolicy::disabled().run(ep(), &metrics, |_| Err(Error::Timeout));
        assert_eq!(result, Err(Error::Timeout));
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("retry.fetch.retries"), 0);
        assert_eq!(snap.counter("retry.fetch.exhausted"), 1);
    }
}
