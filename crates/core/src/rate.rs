//! Token-bucket probe pacing.
//!
//! The paper's scan was paced to finish the whole IPv4 space within a day
//! across 64 machines; the live (real-socket) scanner uses this limiter
//! to stay polite. One [`Pacer`] serves one `--rate`: it produces `rate`
//! tokens per second, stores up to `rate.max(1.0)` of them, and waits on
//! its [`Clock`], so the live path waits on the wall clock and tests on
//! a virtual one.

use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The time source a [`Pacer`] reads and waits on. The live scanner
/// paces on the [`WallClock`]; tests substitute a virtual clock whose
/// `sleep` merely advances `now`, so pacing arithmetic is checked
/// exactly and instantly.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Time since an arbitrary fixed origin.
    fn now(&self) -> Duration;
    /// Block the calling thread for `d`.
    fn sleep(&self, d: Duration);
}

/// Real time: `Instant` and `thread::sleep`.
#[derive(Debug)]
pub struct WallClock {
    origin: std::time::Instant,
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock {
            origin: std::time::Instant::now(),
        }
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// The bucket behind a [`Pacer`]: `rate` tokens per second, up to
/// `burst` stored, `tokens` of them as of `last` on `clock`.
#[derive(Debug)]
struct Bucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    clock: Arc<dyn Clock>,
    last: Duration,
}

/// A clone-cheap handle to one token bucket, so the shard workers of
/// one scan draw from a single budget: `--rate` stays a whole-scan
/// bound no matter how many workers are sweeping.
///
/// The bucket starts full. It is guarded by a mutex that is held
/// **across the deficit sleep**. That makes concurrent draws serialize
/// exactly like sequential ones: each draw refills for the interval
/// since the previous draw finished, then sleeps for its own deficit,
/// so the total wait of K workers drawing N tokens telescopes to the
/// same `(N·K − burst) / rate` a single worker would pay (the
/// `shared_pacer_*` test pins this). Handing out the lock during the
/// sleep instead would let every waiter observe the same refill
/// interval and overfeed the bucket.
#[derive(Debug, Clone)]
pub struct Pacer {
    bucket: Arc<Mutex<Bucket>>,
}

impl Pacer {
    /// A pacer producing `rate` tokens/second, storing up to
    /// `rate.max(1.0)`, on the wall clock.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is positive.
    pub fn new(rate: f64) -> Self {
        Self::with_clock(rate, Arc::new(WallClock::default()))
    }

    /// Like [`new`](Self::new), reading and waiting on `clock`.
    pub fn with_clock(rate: f64, clock: Arc<dyn Clock>) -> Self {
        assert!(rate > 0.0, "rate must be positive");
        let burst = rate.max(1.0);
        let last = clock.now();
        let bucket = Bucket {
            rate,
            burst,
            tokens: burst,
            clock,
            last,
        };
        Pacer {
            bucket: Arc::new(Mutex::new(bucket)),
        }
    }

    /// Wait for and consume `n` tokens in one arithmetic step (a whole
    /// block's probes drawn at once by the sweep).
    ///
    /// Drawing `n` tokens one at a time from `t` stored tokens
    /// telescopes to a single deficit wait of `(n - t) / rate` and
    /// leaves the bucket empty, so `n` may exceed the burst capacity:
    /// the excess is paid for in waiting time.
    ///
    /// Elapsed-time accounting invariant: each call credits the interval
    /// since the last draw exactly once, then moves past the instant
    /// that was credited (or past the deficit sleep it just paid). No
    /// interval is ever counted twice (which would overfeed the bucket
    /// and break the rate ceiling) and none is skipped; the tests below
    /// pin both directions.
    pub fn acquire_many(&self, n: u64) {
        if n == 0 {
            return;
        }
        // The bucket is a few numbers, valid after every statement; a
        // worker that died mid-draw must not wedge the others.
        let mut guard = self.bucket.lock().unwrap_or_else(|e| e.into_inner());
        let b = &mut *guard;
        let now = b.clock.now();
        b.tokens = (b.tokens + now.saturating_sub(b.last).as_secs_f64() * b.rate).min(b.burst);
        b.last = now;
        let n = n as f64;
        if b.tokens >= n {
            b.tokens -= n;
            return;
        }
        // A tiny positive rate can owe a wait longer than any
        // `Duration`: wait the longest one there is.
        let wait = Duration::try_from_secs_f64((n - b.tokens) / b.rate).unwrap_or(Duration::MAX);
        // The deficit interval is spent in advance on these n tokens:
        // empty the bucket now and move `last` past the sleep so the
        // interval is never credited again.
        b.tokens = 0.0;
        b.clock.sleep(wait);
        b.last = b.clock.now();
    }
}

/// A virtual [`Clock`] for pacing tests: `sleep` advances `now` and
/// returns at once, saturating at the largest instant it can hold.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct VirtualClock {
    nanos: std::sync::atomic::AtomicU64,
}

#[cfg(test)]
impl Clock for VirtualClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(std::sync::atomic::Ordering::SeqCst))
    }

    fn sleep(&self, d: Duration) {
        use std::sync::atomic::Ordering::SeqCst;
        let d = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let _ = self
            .nanos
            .fetch_update(SeqCst, SeqCst, |t| Some(t.saturating_add(d)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pacer of `rate` on a virtual clock of its own.
    fn paced(rate: f64) -> (Pacer, Arc<VirtualClock>) {
        let clock = Arc::new(VirtualClock::default());
        (Pacer::with_clock(rate, clock.clone()), clock)
    }

    #[test]
    fn bucket_starts_full_refills_at_rate_and_caps_at_burst() {
        let (p, clock) = paced(2.0);
        p.acquire_many(2);
        assert_eq!(clock.now(), Duration::ZERO, "starts full");
        clock.sleep(Duration::from_millis(500));
        // 500 ms at 2/s refill exactly one token; the second is waited
        // for. A faster refill would end at 500 ms, a slower one later
        // than 1000 ms.
        p.acquire_many(2);
        assert_eq!(clock.now(), Duration::from_secs(1), "refilled at rate");
        clock.sleep(Duration::from_secs(100));
        let rested = clock.now();
        p.acquire_many(3);
        // Two stored tokens, not 200: the third is waited for.
        assert_eq!(clock.now() - rested, Duration::from_millis(500), "capped");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_is_rejected() {
        let _ = Pacer::new(0.0);
    }

    /// Pins the refill arithmetic under repeated draws: if an elapsed
    /// interval were ever credited twice (e.g. `last` not advancing
    /// with the refill), extra tokens would appear and the loop would
    /// finish early; if an interval were dropped, it would finish late.
    #[test]
    fn pacer_never_double_credits_elapsed_time() {
        let (p, clock) = paced(10.0);
        for _ in 0..30 {
            p.acquire_many(1);
        }
        let elapsed = clock.now();
        // 10 burst tokens + 20 refilled at 10/s = 2s of virtual time.
        assert!(elapsed >= Duration::from_millis(1_990), "{elapsed:?}");
        assert!(elapsed <= Duration::from_millis(2_200), "{elapsed:?}");
    }

    /// A draw within the stored burst is free; the excess is paid for
    /// in waiting time, and a drained bucket charges the next token a
    /// full period.
    #[test]
    fn pacer_spends_burst_before_pacing() {
        let (p, clock) = paced(4.0);
        p.acquire_many(4);
        assert_eq!(clock.now(), Duration::ZERO, "burst is free");
        p.acquire_many(8);
        assert!(
            clock.now() >= Duration::from_millis(1_990),
            "{:?}",
            clock.now()
        );
    }

    /// At 1e-20 tokens/s a block's deficit wait is ~1.9e22 s, past
    /// `Duration::MAX`: the draw waits the longest `Duration` instead of
    /// panicking, and returns.
    #[test]
    fn a_wait_longer_than_any_duration_saturates() {
        let (p, clock) = paced(1e-20);
        p.acquire_many(192);
        assert!(clock.now() > Duration::ZERO, "the clock moved forward");
    }

    /// One bulk draw pays the same virtual time as the token-at-a-time
    /// loop it stands for, and leaves the bucket in the same (empty)
    /// state.
    #[test]
    fn bulk_draw_matches_token_at_a_time() {
        // 64 tokens at 32/s with burst 32: half free, half paced.
        let (seq, seq_clock) = paced(32.0);
        for _ in 0..64 {
            seq.acquire_many(1);
        }
        let sequential = seq_clock.now();
        assert!(sequential >= Duration::from_millis(990), "{sequential:?}");

        let (bulk, bulk_clock) = paced(32.0);
        bulk.acquire_many(64);
        let bulked = bulk_clock.now();
        assert!(bulked >= Duration::from_millis(990), "{bulked:?}");
        // The single deficit sleep avoids 32 per-token roundups, so it
        // can only be at or below the loop's total.
        assert!(bulked <= sequential, "{bulked:?} > {sequential:?}");

        // Both pacers drained to zero: the next token costs a full
        // period either way.
        seq.acquire_many(1);
        bulk.acquire_many(1);
        assert!(seq_clock.now() - sequential >= Duration::from_millis(30));
        assert!(bulk_clock.now() - bulked >= Duration::from_millis(30));
    }

    /// The shard/pacer pinning test: K worker threads drawing
    /// concurrently from one [`Pacer`] consume the same total wait as
    /// one worker drawing the same tokens sequentially — the whole-scan
    /// rate bound does not multiply with the shard count.
    #[test]
    fn shared_pacer_concurrent_draws_equal_one_worker() {
        // One worker: 8 blocks of 64 tokens at 64/s, burst 64.
        // Telescoped: (512 - 64) / 64 = 7s of virtual wait.
        let (single, clock) = paced(64.0);
        for _ in 0..8 {
            single.acquire_many(64);
        }
        let sequential = clock.now();
        assert!(sequential >= Duration::from_millis(6_990), "{sequential:?}");

        // K = 4 shard workers, 2 blocks each, drawing concurrently.
        let (shared, clock) = paced(64.0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..2 {
                        shared.acquire_many(64);
                    }
                });
            }
        });
        assert_eq!(
            clock.now(),
            sequential,
            "K concurrent drawers must pay exactly the single-worker wait"
        );

        // Drained: the next token costs a full period.
        shared.acquire_many(1);
        let next = clock.now() - sequential;
        assert!(next >= Duration::from_millis(10), "{next:?}");
    }
}
