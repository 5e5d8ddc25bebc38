//! Seeded retry/backoff for transient network faults.
//!
//! The paper's methodology tolerates transient loss — masscan SYN
//! retransmits in stage I, rescans in §3.5 — and this module is the
//! pipeline's equivalent: a [`RetryTransport`] wrapper that gives every
//! operation at the transport layer a budget of
//! [`max_attempts`](crate::pipeline::PipelineConfig::max_attempts)
//! tries. Stage-I probes retry on
//! [`ProbeOutcome::Filtered`] (an unanswered SYN may be loss; an RST is
//! a definite answer), connects retry on transient errors
//! ([`nokeys_http::Error::is_transient`]), so stage II prefilter
//! fetches, stage III plugin verification and the fingerprinter all
//! inherit retries from one choke point. That choke point is the only
//! retry loop: every dial of every stage makes at most that many
//! tries. Each retry is a later try
//! ([`Attempt::retry`]) of the one it repeats, so it draws a fault fate
//! of its own.
//!
//! Backoff is deterministic: delays are *virtual* units summed on a
//! telemetry counter (`retry.<lane>.backoff_units`), capped-exponential
//! plus a jitter drawn from a splitmix64 hash over `(endpoint, try)`.
//! No wall-clock sleep happens unless the
//! [`backoff_unit`](crate::pipeline::PipelineConfig::backoff_unit) is
//! non-zero, so simulated scans stay fast and byte-identical at any
//! shard count; the real-socket CLI maps units to milliseconds.

use crate::telemetry::{Counter, Telemetry};
use nokeys_http::ip::Cidr;
use nokeys_http::rng::mix64;
use nokeys_http::{Attempt, Endpoint, FaultObserver, ProbeOutcome, Result, Scheme, Transport};
use std::time::Duration;

/// Backoff before the first retry, in virtual units.
const BASE_UNITS: u64 = 100;
/// Ceiling of the exponential backoff, in virtual units.
const CAP_UNITS: u64 = 1_600;
/// Largest jitter added to a backoff, in virtual units.
const JITTER_MAX: u64 = 50;
/// Seed of the jitter stream ("retry").
const JITTER_SEED: u64 = 0x0072_6574_7279;

/// Backoff after failed try `attempt` (0-based) at `ep`: capped
/// exponential growth plus deterministic per-endpoint jitter.
fn backoff_units(ep: Endpoint, attempt: u32) -> u64 {
    exponential(attempt) + jitter(ep, attempt)
}

/// The capped-exponential part of [`backoff_units`].
fn exponential(attempt: u32) -> u64 {
    BASE_UNITS
        .saturating_mul(1u64 << attempt.min(16))
        .min(CAP_UNITS)
}

/// Deterministic jitter in `0..=JITTER_MAX`: the splitmix64 finalizer
/// over `(seed, endpoint, attempt)`, so concurrent lanes desynchronize
/// without a shared random source.
fn jitter(ep: Endpoint, attempt: u32) -> u64 {
    let key = JITTER_SEED
        ^ (u64::from(u32::from(ep.ip)) << 16)
        ^ u64::from(ep.port)
        ^ (u64::from(attempt) << 48);
    mix64(key) % (JITTER_MAX + 1)
}

/// Cached telemetry handles for one retry lane (`probe`, `connect`).
#[derive(Debug, Clone)]
struct RetryMetrics {
    /// `retry.<lane>.retries` — retries performed (a second or later
    /// attempt was started).
    retries: Counter,
    /// `retry.<lane>.recovered` — operations that failed at least once
    /// and then succeeded within the budget.
    recovered: Counter,
    /// `retry.<lane>.exhausted` — transient failures with no attempt
    /// budget left.
    exhausted: Counter,
    /// `retry.<lane>.backoff_units` — virtual backoff units paused.
    backoff_units: Counter,
}

impl RetryMetrics {
    fn new(telemetry: &Telemetry, lane: &str) -> Self {
        RetryMetrics {
            retries: telemetry.counter(&format!("retry.{lane}.retries")),
            recovered: telemetry.counter(&format!("retry.{lane}.recovered")),
            exhausted: telemetry.counter(&format!("retry.{lane}.exhausted")),
            backoff_units: telemetry.counter(&format!("retry.{lane}.backoff_units")),
        }
    }
}

/// Transport wrapper retrying every probe and connect.
/// [`Pipeline::run`](crate::pipeline::Pipeline::run) wraps the caller's
/// transport in one of these, which is how all three stages (and the
/// fingerprinter) retry without stage-specific plumbing.
#[derive(Debug, Clone)]
pub struct RetryTransport<T> {
    inner: T,
    /// Total tries per operation, never below 1 (1 = no retries).
    max_attempts: u32,
    /// Wall-clock duration of one virtual backoff unit; `ZERO` records
    /// backoff without sleeping.
    backoff_unit: Duration,
    probe: RetryMetrics,
    connect: RetryMetrics,
}

impl<T> RetryTransport<T> {
    /// Wrap `inner`, giving each operation `max_attempts` tries (0 reads
    /// as 1) and sleeping `backoff_unit` per virtual backoff unit.
    pub fn new(inner: T, max_attempts: u32, backoff_unit: Duration, telemetry: &Telemetry) -> Self {
        RetryTransport {
            inner,
            max_attempts: max_attempts.max(1),
            backoff_unit,
            probe: RetryMetrics::new(telemetry, "probe"),
            connect: RetryMetrics::new(telemetry, "connect"),
        }
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Meter a retry on `lane` after failed try `attempt` at `ep`, and
    /// back off before it: record the units and, when the backoff unit
    /// is non-zero, sleep them.
    fn back_off(&self, lane: &RetryMetrics, ep: Endpoint, attempt: u32) {
        let units = backoff_units(ep, attempt);
        lane.retries.incr();
        lane.backoff_units.add(units);
        if self.backoff_unit > Duration::ZERO {
            let factor = units.min(u64::from(u32::MAX)) as u32;
            std::thread::sleep(self.backoff_unit.saturating_mul(factor));
        }
    }
}

impl<T: Transport> Transport for RetryTransport<T> {
    type Conn = T::Conn;

    /// Probe, retransmitting while the answer is `Filtered`: an
    /// unanswered SYN may be transient loss, each retransmit a later
    /// try of `attempt`. `Closed` is terminal — an RST is a definite
    /// answer.
    fn probe(&self, ep: Endpoint, attempt: Attempt<'_>) -> ProbeOutcome {
        let mut outcome = self.inner.probe(ep, attempt);
        let mut k = 0;
        while outcome == ProbeOutcome::Filtered && k + 1 < self.max_attempts {
            self.back_off(&self.probe, ep, k);
            k += 1;
            outcome = self.inner.probe(ep, attempt.retry(k));
        }
        if k > 0 {
            if outcome == ProbeOutcome::Filtered {
                self.probe.exhausted.incr();
            } else {
                self.probe.recovered.incr();
            }
        }
        outcome
    }

    /// `Closed` is never retried, so the inner transport's silent
    /// addresses stay silent.
    fn live_addresses(&self, block: Cidr) -> Option<&[u32]> {
        self.inner.live_addresses(block)
    }

    /// Dial, retrying transient errors with backoff, each retry a later
    /// try of `attempt`. A terminal error returns at once; a transient
    /// one on the last try counts as exhausted.
    fn connect(&self, ep: Endpoint, scheme: Scheme, attempt: Attempt<'_>) -> Result<T::Conn> {
        let max = self.max_attempts;
        let mut k = 0;
        loop {
            match self.inner.connect(ep, scheme, attempt.retry(k)) {
                Ok(conn) => {
                    if k > 0 {
                        self.connect.recovered.incr();
                    }
                    return Ok(conn);
                }
                Err(e) if e.is_transient() && k + 1 < max => {
                    self.back_off(&self.connect, ep, k);
                    k += 1;
                }
                Err(e) => {
                    if e.is_transient() {
                        self.connect.exhausted.incr();
                    }
                    return Err(e);
                }
            }
        }
    }

    fn report_faults_to(&mut self, observer: FaultObserver) {
        self.inner.report_faults_to(observer);
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
            3,
            Duration::ZERO,
            &telemetry,
        );
        let base = 7;
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
        assert_eq!(exponential(0), 100);
        assert_eq!(exponential(1), 200);
        assert_eq!(exponential(2), 400);
        assert_eq!(exponential(10), 1_600, "capped");
        assert_eq!(exponential(63), 1_600, "shift stays sane");
        for attempt in [0, 1, 2, 10, 63] {
            assert_eq!(
                backoff_units(ep(), attempt),
                exponential(attempt) + jitter(ep(), attempt)
            );
        }
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let a = backoff_units(ep(), 0);
        assert_eq!(a, backoff_units(ep(), 0), "same key, same jitter");
        assert!((100..=150).contains(&a), "{a}");
        let other = Endpoint::new(Ipv4Addr::new(192, 0, 2, 2), 80);
        assert!((100..=150).contains(&backoff_units(other, 0)));
    }

    /// A budget of 0 still makes the one try: it reads as 1.
    #[test]
    fn attempts_never_drop_below_one() {
        let telemetry = Telemetry::new();
        let flaky = Flaky::new(HandlerTransport::new(), u32::MAX, Error::Timeout);
        let t = RetryTransport::new(flaky, 0, Duration::ZERO, &telemetry);
        assert_eq!(t.probe(ep(), Attempt::FIRST), ProbeOutcome::Filtered);
        assert!(t.connect(ep(), Scheme::Http, Attempt::FIRST).is_err());
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("retry.probe.retries"), 0);
        assert_eq!(snap.counter("retry.connect.retries"), 0);
        assert_eq!(snap.counter("retry.connect.exhausted"), 1);
    }

    #[test]
    fn probe_retries_through_transient_filtering() {
        let telemetry = Telemetry::new();
        let flaky = Flaky::new(HandlerTransport::new(), 2, Error::Timeout);
        let t = RetryTransport::new(flaky, 3, Duration::ZERO, &telemetry);
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
        let t = RetryTransport::new(flaky, 3, Duration::ZERO, &telemetry);
        assert_eq!(t.probe(ep(), Attempt::FIRST), ProbeOutcome::Filtered);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("retry.probe.retries"), 2);
        assert_eq!(snap.counter("retry.probe.exhausted"), 1);
    }

    #[test]
    fn connect_does_not_retry_terminal_errors() {
        let telemetry = Telemetry::new();
        let flaky = Flaky::new(HandlerTransport::new(), 5, Error::Connect("refused".into()));
        let t = RetryTransport::new(flaky, 3, Duration::ZERO, &telemetry);
        assert!(t.connect(ep(), Scheme::Http, Attempt::FIRST).is_err());
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("retry.connect.retries"), 0);
        assert_eq!(snap.counter("retry.connect.exhausted"), 0);
    }

    #[test]
    fn connect_exhausts_after_persistent_timeouts() {
        let telemetry = Telemetry::new();
        let flaky = Flaky::new(HandlerTransport::new(), 5, Error::Timeout);
        let t = RetryTransport::new(flaky, 3, Duration::ZERO, &telemetry);
        assert!(matches!(
            t.connect(ep(), Scheme::Http, Attempt::FIRST),
            Err(Error::Timeout)
        ));
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("retry.connect.retries"), 2);
        assert_eq!(snap.counter("retry.connect.exhausted"), 1);
        assert_eq!(snap.counter("retry.connect.recovered"), 0);
    }

    /// A connection that dies before the response is transient: the
    /// next dial may get through, and the lane meters the recovery.
    #[test]
    fn connect_recovers_transient_failures() {
        let telemetry = Telemetry::new();
        let handler = Arc::new(|_: &nokeys_http::Request, _| nokeys_http::Response::html("up"));
        let mounted = HandlerTransport::new().with(ep(), handler);
        let flaky = Flaky::new(mounted, 2, Error::UnexpectedEof);
        let t = RetryTransport::new(flaky, 3, Duration::ZERO, &telemetry);
        assert!(t.connect(ep(), Scheme::Http, Attempt::FIRST).is_ok());
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("retry.connect.retries"), 2);
        assert_eq!(snap.counter("retry.connect.recovered"), 1);
        assert_eq!(snap.counter("retry.connect.exhausted"), 0);
    }

    #[test]
    fn connect_with_single_attempt_counts_exhaustion() {
        let telemetry = Telemetry::new();
        let flaky = Flaky::new(HandlerTransport::new(), 1, Error::Timeout);
        let t = RetryTransport::new(flaky, 1, Duration::ZERO, &telemetry);
        assert!(matches!(
            t.connect(ep(), Scheme::Http, Attempt::FIRST),
            Err(Error::Timeout)
        ));
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("retry.connect.retries"), 0);
        assert_eq!(snap.counter("retry.connect.exhausted"), 1);
        assert_eq!(snap.counter("retry.connect.backoff_units"), 0);
    }
}
