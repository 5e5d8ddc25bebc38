//! Token-bucket rate limiter for probe pacing.
//!
//! The paper's scan was paced to finish the whole IPv4 space within a day
//! across 64 machines; the live (real-socket) scanner uses this limiter
//! to stay polite. The limiter is clock-agnostic: callers feed it elapsed
//! time, so it works with both real and virtual time.

use std::time::Duration;

/// A token bucket: `rate` tokens per second, up to `burst` stored.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
}

impl TokenBucket {
    /// A bucket producing `rate` tokens/second with capacity `burst`.
    /// Starts full.
    pub fn new(rate: f64, burst: f64) -> Self {
        assert!(rate > 0.0 && burst > 0.0, "rate and burst must be positive");
        TokenBucket {
            rate,
            burst,
            tokens: burst,
        }
    }

    /// Credit `elapsed` time worth of tokens.
    pub fn refill(&mut self, elapsed: Duration) {
        self.tokens = (self.tokens + elapsed.as_secs_f64() * self.rate).min(self.burst);
    }

    /// Try to take one token.
    pub fn try_take(&mut self) -> bool {
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Time to wait until one token is available.
    pub fn time_until_available(&self) -> Duration {
        if self.tokens >= 1.0 {
            Duration::ZERO
        } else {
            Duration::from_secs_f64((1.0 - self.tokens) / self.rate)
        }
    }

    /// Current token count (for tests and monitoring).
    pub fn tokens(&self) -> f64 {
        self.tokens
    }
}

/// Async pacing wrapper using tokio's clock: awaits until a token is
/// available, then takes it.
#[derive(Debug)]
pub struct Pacer {
    bucket: TokenBucket,
    last: tokio::time::Instant,
}

impl Pacer {
    pub fn new(rate: f64, burst: f64) -> Self {
        Pacer {
            bucket: TokenBucket::new(rate, burst),
            last: tokio::time::Instant::now(),
        }
    }

    /// Wait for and consume one token.
    ///
    /// Elapsed-time accounting invariant: each loop iteration credits
    /// the interval since `last` exactly once, then advances `last` to
    /// the instant that was credited. No interval is ever counted twice
    /// (which would overfeed the bucket and break the rate ceiling) and
    /// none is skipped (the next iteration credits exactly the time
    /// slept); the tests below pin both directions.
    pub async fn acquire(&mut self) {
        loop {
            let now = tokio::time::Instant::now();
            self.bucket.refill(now - self.last);
            self.last = now;
            if self.bucket.try_take() {
                return;
            }
            tokio::time::sleep(self.bucket.time_until_available()).await;
        }
    }

    /// Wait for and consume `n` tokens in one arithmetic step — the
    /// bulk equivalent of `n` sequential [`acquire`](Self::acquire)
    /// calls (a whole block's probes drawn at once by the sparse
    /// sweep).
    ///
    /// `n` sequential acquires from `t` stored tokens telescope to a
    /// single deficit wait of `(n - t) / rate` and leave the bucket
    /// empty, so `n` may exceed the burst capacity: the excess is paid
    /// for in waiting time, exactly as the one-by-one loop would.
    pub async fn acquire_many(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        let now = tokio::time::Instant::now();
        self.bucket.refill(now - self.last);
        self.last = now;
        let n = n as f64;
        if self.bucket.tokens >= n {
            self.bucket.tokens -= n;
            return;
        }
        let wait = Duration::from_secs_f64((n - self.bucket.tokens) / self.bucket.rate);
        // The deficit interval is spent in advance on these n tokens:
        // empty the bucket now and move `last` past the sleep so the
        // interval is never credited again.
        self.bucket.tokens = 0.0;
        tokio::time::sleep(wait).await;
        self.last = tokio::time::Instant::now();
    }
}

/// A clone-cheap shared handle to one [`Pacer`], so several concurrent
/// consumers (the shard workers of
/// [`Pipeline::run`](crate::pipeline::Pipeline::run), for instance) draw
/// from a single token budget: `--max-probes-per-sec` stays a
/// whole-scan bound no matter how many workers are sweeping.
///
/// The inner pacer is guarded by an async mutex that is held **across
/// the deficit sleep**. That makes concurrent draws serialize exactly
/// like sequential ones: each draw refills for the interval since the
/// previous draw finished, then sleeps for its own deficit, so the
/// total virtual wait of K workers drawing N tokens telescopes to the
/// same `(N·K − burst) / rate` a single pipeline would pay (the
/// `shared_pacer_*` tests pin this). Handing out the lock during the
/// sleep instead would let every waiter observe the same refill
/// interval and overfeed the bucket.
#[derive(Debug, Clone, Default)]
pub struct SharedPacer {
    inner: Option<std::sync::Arc<tokio::sync::Mutex<Pacer>>>,
    upstream: Option<std::sync::Arc<SharedPacer>>,
}

impl SharedPacer {
    /// A shared pacer producing `rate` tokens/second with capacity
    /// `burst`.
    pub fn new(rate: f64, burst: f64) -> Self {
        SharedPacer {
            inner: Some(std::sync::Arc::new(tokio::sync::Mutex::new(Pacer::new(
                rate, burst,
            )))),
            upstream: None,
        }
    }

    /// Wait for and consume one token from every level of the chain.
    pub async fn acquire(&self) {
        let mut level = Some(self);
        while let Some(p) = level {
            if let Some(inner) = &p.inner {
                inner.lock().await.acquire().await;
            }
            level = p.upstream.as_deref();
        }
    }

    /// Wait for and consume `n` tokens in one arithmetic step from
    /// every level of the chain — telescoping-equal to `n` sequential
    /// [`acquire`](Self::acquire) calls at each level, exactly like
    /// [`Pacer::acquire_many`].
    pub async fn acquire_many(&self, n: u64) {
        if n == 0 {
            return;
        }
        let mut level = Some(self);
        while let Some(p) = level {
            if let Some(inner) = &p.inner {
                inner.lock().await.acquire_many(n).await;
            }
            level = p.upstream.as_deref();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_full_and_drains() {
        let mut b = TokenBucket::new(10.0, 3.0);
        assert!(b.try_take());
        assert!(b.try_take());
        assert!(b.try_take());
        assert!(!b.try_take(), "burst exhausted");
    }

    #[test]
    fn refills_at_rate_and_caps_at_burst() {
        let mut b = TokenBucket::new(2.0, 4.0);
        for _ in 0..4 {
            assert!(b.try_take());
        }
        b.refill(Duration::from_millis(500));
        assert!((b.tokens() - 1.0).abs() < 1e-9);
        b.refill(Duration::from_secs(100));
        assert!((b.tokens() - 4.0).abs() < 1e-9, "capped at burst");
    }

    #[test]
    fn wait_time_is_proportional_to_deficit() {
        let mut b = TokenBucket::new(2.0, 1.0);
        assert_eq!(b.time_until_available(), Duration::ZERO);
        assert!(b.try_take());
        let wait = b.time_until_available();
        assert!((wait.as_secs_f64() - 0.5).abs() < 1e-9, "{wait:?}");
    }

    #[tokio::test(start_paused = true)]
    async fn pacer_enforces_rate_under_paused_time() {
        let mut p = Pacer::new(100.0, 1.0);
        let start = tokio::time::Instant::now();
        for _ in 0..11 {
            p.acquire().await;
        }
        let elapsed = tokio::time::Instant::now() - start;
        // 1 burst token + 10 at 100/s = at least 100ms of virtual time.
        assert!(elapsed >= Duration::from_millis(95), "{elapsed:?}");
    }

    /// Pins the refill arithmetic under repeated `acquire` calls: if an
    /// elapsed interval were ever credited twice (e.g. `last` not
    /// advancing with the refill), extra tokens would appear and the
    /// loop would finish early; if an interval were dropped, it would
    /// finish late.
    #[tokio::test(start_paused = true)]
    async fn pacer_never_double_credits_elapsed_time() {
        let mut p = Pacer::new(10.0, 1.0);
        let start = tokio::time::Instant::now();
        for _ in 0..21 {
            p.acquire().await;
        }
        let elapsed = tokio::time::Instant::now() - start;
        // 1 burst token + 20 refilled at 10/s = 2s of virtual time.
        assert!(elapsed >= Duration::from_millis(1_990), "{elapsed:?}");
        assert!(elapsed <= Duration::from_millis(2_200), "{elapsed:?}");
    }

    /// Burst tokens are consumed without waiting; the first paced
    /// acquire then waits one full period.
    #[tokio::test(start_paused = true)]
    async fn pacer_spends_burst_before_pacing() {
        let mut p = Pacer::new(1.0, 3.0);
        let start = tokio::time::Instant::now();
        for _ in 0..3 {
            p.acquire().await;
        }
        assert_eq!(
            tokio::time::Instant::now() - start,
            Duration::ZERO,
            "burst is free"
        );
        p.acquire().await;
        let elapsed = tokio::time::Instant::now() - start;
        assert!(elapsed >= Duration::from_millis(990), "{elapsed:?}");
    }

    /// Bulk acquisition pays the same virtual time as the one-by-one
    /// loop it replaces, and leaves the bucket in the same (empty)
    /// state.
    #[tokio::test(start_paused = true)]
    async fn acquire_many_matches_sequential_acquires() {
        // 64 tokens at 32/s with burst 32: half free, half paced.
        let mut seq = Pacer::new(32.0, 32.0);
        let start = tokio::time::Instant::now();
        for _ in 0..64 {
            seq.acquire().await;
        }
        let sequential = tokio::time::Instant::now() - start;
        assert!(sequential >= Duration::from_millis(990), "{sequential:?}");

        let mut bulk = Pacer::new(32.0, 32.0);
        let start = tokio::time::Instant::now();
        bulk.acquire_many(64).await;
        let bulked = tokio::time::Instant::now() - start;
        assert!(bulked >= Duration::from_millis(990), "{bulked:?}");
        // The single deficit sleep avoids 32 per-token roundups, so it
        // can only be at or below the sequential loop's total.
        assert!(bulked <= sequential, "{bulked:?} > {sequential:?}");

        // Both pacers drained to zero: the next token costs a full
        // period either way.
        let start = tokio::time::Instant::now();
        seq.acquire().await;
        let seq_next = tokio::time::Instant::now() - start;
        let start = tokio::time::Instant::now();
        bulk.acquire_many(1).await;
        let bulk_next = tokio::time::Instant::now() - start;
        assert!(seq_next >= Duration::from_millis(30), "{seq_next:?}");
        assert!(bulk_next >= Duration::from_millis(30), "{bulk_next:?}");
    }

    /// A bulk draw within the stored burst is free, like the loop.
    #[tokio::test(start_paused = true)]
    async fn acquire_many_spends_burst_before_pacing() {
        let mut p = Pacer::new(1.0, 4.0);
        let start = tokio::time::Instant::now();
        p.acquire_many(4).await;
        assert_eq!(tokio::time::Instant::now() - start, Duration::ZERO);
        p.acquire_many(2).await;
        let elapsed = tokio::time::Instant::now() - start;
        assert!(elapsed >= Duration::from_millis(1_990), "{elapsed:?}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_is_rejected() {
        let _ = TokenBucket::new(0.0, 1.0);
    }

    /// A shared pacer drained by one task behaves exactly like an owned
    /// pacer: same telescoped deficit wait, same empty bucket after.
    #[tokio::test(start_paused = true)]
    async fn shared_pacer_matches_owned_pacer() {
        let mut owned = Pacer::new(32.0, 32.0);
        let start = tokio::time::Instant::now();
        owned.acquire_many(64).await;
        let owned_elapsed = tokio::time::Instant::now() - start;

        let shared = SharedPacer::new(32.0, 32.0);
        let start = tokio::time::Instant::now();
        shared.acquire_many(64).await;
        let shared_elapsed = tokio::time::Instant::now() - start;
        assert_eq!(shared_elapsed, owned_elapsed, "{shared_elapsed:?}");
        assert!(shared_elapsed >= Duration::from_millis(990));
    }

    /// The shard/pacer pinning test: K workers drawing concurrently
    /// from one [`SharedPacer`] consume the same total virtual wait as
    /// one pipeline drawing the same tokens sequentially — the
    /// whole-scan rate bound does not multiply with the shard count.
    #[tokio::test(start_paused = true)]
    async fn shared_pacer_concurrent_draws_equal_one_pipeline() {
        // One pipeline: 8 blocks of 64 tokens at 64/s, burst 64.
        // Telescoped: (512 - 64) / 64 = 7s of virtual wait.
        let mut single = Pacer::new(64.0, 64.0);
        let start = tokio::time::Instant::now();
        for _ in 0..8 {
            single.acquire_many(64).await;
        }
        let sequential = tokio::time::Instant::now() - start;
        assert!(sequential >= Duration::from_millis(6_990), "{sequential:?}");

        // K = 4 shard workers, 2 blocks each, drawing concurrently.
        let shared = SharedPacer::new(64.0, 64.0);
        let start = tokio::time::Instant::now();
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let pacer = shared.clone();
                tokio::spawn(async move {
                    for _ in 0..2 {
                        pacer.acquire_many(64).await;
                    }
                })
            })
            .collect();
        for w in workers {
            w.await.expect("worker");
        }
        let concurrent = tokio::time::Instant::now() - start;
        assert_eq!(
            concurrent, sequential,
            "K concurrent drawers must pay exactly the single-pipeline wait"
        );

        // Both are drained: the next token costs a full period.
        let start = tokio::time::Instant::now();
        shared.acquire().await;
        let next = tokio::time::Instant::now() - start;
        assert!(next >= Duration::from_millis(10), "{next:?}");
    }

    /// `acquire` on the shared handle serializes with `acquire_many`:
    /// interleaved single draws never double-credit an interval.
    #[tokio::test(start_paused = true)]
    async fn shared_pacer_single_acquires_pace_correctly() {
        let shared = SharedPacer::new(10.0, 1.0);
        let start = tokio::time::Instant::now();
        let a = {
            let pacer = shared.clone();
            tokio::spawn(async move {
                for _ in 0..10 {
                    pacer.acquire().await;
                }
            })
        };
        let b = {
            let pacer = shared.clone();
            tokio::spawn(async move {
                for _ in 0..11 {
                    pacer.acquire().await;
                }
            })
        };
        a.await.expect("task a");
        b.await.expect("task b");
        let elapsed = tokio::time::Instant::now() - start;
        // 1 burst token + 20 refilled at 10/s = 2s of virtual time.
        assert!(elapsed >= Duration::from_millis(1_990), "{elapsed:?}");
        assert!(elapsed <= Duration::from_millis(2_200), "{elapsed:?}");
    }
}
