//! Keep-alive connection pooling for the live transport.
//!
//! [`PooledTransport`] wraps any [`Transport`] and keeps per-endpoint
//! FIFO pools of idle connections, so stage II prefilter fetches and
//! stage III verification probes against the same host ride one TCP
//! connection instead of paying connect latency per exchange. The
//! contract with [`Client`](crate::client::Client):
//!
//! * `connect` checks the pool first (a *hit*) and falls back to the
//!   inner transport (a *miss*);
//! * after a clean exchange the client calls
//!   [`Connection::set_reusable`] with the keep-alive verdict, and the
//!   connection checks itself back in when dropped;
//! * a reused connection that dies before yielding any response bytes
//!   is the classic stale keep-alive race — the client retries exactly
//!   once on [`Transport::connect_fresh`], which bypasses the pool (and
//!   is metered as a *stale retry*);
//! * check-ins beyond the per-endpoint cap or the global idle bound
//!   evict the oldest idle connection (*evicted*).
//!
//! Idle entries also carry the read buffer of their last exchange (see
//! [`Connection::take_recycled_buf`]), so keep-alive probes against one
//! host reuse a single response buffer instead of allocating one per
//! exchange.
//!
//! Pooling is a performance knob, not a semantic one: reports from a
//! pooled scan are byte-identical to an unpooled run, and the knob is
//! deliberately excluded from `ConfigFingerprint` (like the
//! shard count). Counters are surfaced both as [`PoolStats`] atomics
//! and through an optional observer callback, which the scanner bridges
//! into its telemetry registry (`transport.pool.*`) without this crate
//! depending on it.

use crate::error::Result;
use crate::ip::Cidr;
use crate::transport::{
    BlockSweepResult, CertificateInfo, Connection, Endpoint, ProbeOutcome, Scheme, Transport,
};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Sizing knobs for a [`PooledTransport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Idle connections kept per (endpoint, scheme). Scans issue a
    /// handful of sequential probes per host, so a small cap suffices.
    pub max_idle_per_endpoint: usize,
    /// Idle connections kept across all endpoints; the oldest idle
    /// connection anywhere is evicted when a check-in crosses this.
    pub max_idle_total: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            max_idle_per_endpoint: 2,
            max_idle_total: 256,
        }
    }
}

/// A pool lifecycle event, as seen by the stats and the observer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolEvent {
    /// `connect` was served from the pool.
    Hit,
    /// `connect` found no idle connection and dialed the inner
    /// transport.
    Miss,
    /// `connect_fresh` was called: a reused connection turned out stale
    /// and the client is retrying once on a fresh one.
    StaleRetry,
    /// An idle connection was discarded to respect a pool bound.
    Evicted,
}

/// Monotonic counters shared by all clones of a [`PooledTransport`].
#[derive(Debug, Default)]
pub struct PoolStats {
    hits: AtomicU64,
    misses: AtomicU64,
    stale_retries: AtomicU64,
    evicted: AtomicU64,
    checked_in: AtomicU64,
    discarded: AtomicU64,
}

impl PoolStats {
    /// Connects served from the pool.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Connects that dialed the inner transport.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Stale-connection retries (calls to `connect_fresh`).
    pub fn stale_retries(&self) -> u64 {
        self.stale_retries.load(Ordering::Relaxed)
    }

    /// Idle connections evicted to respect a pool bound.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Connections returned to the pool after a reusable exchange.
    pub fn checked_in(&self) -> u64 {
        self.checked_in.load(Ordering::Relaxed)
    }

    /// Connections torn down instead of pooled (close signaled, EOF
    /// framing, error, or never marked reusable).
    pub fn discarded(&self) -> u64 {
        self.discarded.load(Ordering::Relaxed)
    }
}

type Observer = Arc<dyn Fn(PoolEvent) + Send + Sync>;
type PoolKey = (Endpoint, Scheme);

/// One idle pooled connection with the bookkeeping eviction and buffer
/// recycling need.
struct IdleEntry<C> {
    /// Global check-in sequence number, for oldest-first eviction.
    seq: u64,
    /// Read buffer recycled from the last exchange, if the client
    /// handed one back.
    buf: Option<Vec<u8>>,
    conn: C,
}

/// Idle connections, FIFO per endpoint, tagged with a global check-in
/// sequence number so the globally oldest one can be evicted.
struct IdleState<C> {
    by_endpoint: HashMap<PoolKey, VecDeque<IdleEntry<C>>>,
    total: usize,
    next_seq: u64,
}

impl<C> Default for IdleState<C> {
    fn default() -> Self {
        IdleState {
            by_endpoint: HashMap::new(),
            total: 0,
            next_seq: 0,
        }
    }
}

struct PoolShared<C> {
    config: PoolConfig,
    idle: Mutex<IdleState<C>>,
    stats: PoolStats,
    observer: Option<Observer>,
}

impl<C> PoolShared<C> {
    fn lock(&self) -> MutexGuard<'_, IdleState<C>> {
        // A panic while holding the lock leaves only idle connections
        // behind; recovering the state is strictly better than wedging
        // every subsequent connect.
        self.idle.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn record(&self, event: PoolEvent) {
        let counter = match event {
            PoolEvent::Hit => &self.stats.hits,
            PoolEvent::Miss => &self.stats.misses,
            PoolEvent::StaleRetry => &self.stats.stale_retries,
            PoolEvent::Evicted => &self.stats.evicted,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if let Some(observer) = &self.observer {
            observer(event);
        }
    }

    /// Oldest idle connection for `key`, if any, together with its
    /// recycled buffer.
    fn check_out(&self, key: PoolKey) -> Option<(C, Option<Vec<u8>>)> {
        let mut state = self.lock();
        let queue = state.by_endpoint.get_mut(&key)?;
        let entry = queue.pop_front()?;
        if queue.is_empty() {
            state.by_endpoint.remove(&key);
        }
        state.total -= 1;
        Some((entry.conn, entry.buf))
    }

    /// Return a reusable connection, evicting the oldest idle ones
    /// until both the per-endpoint cap and the global bound hold.
    fn check_in(&self, key: PoolKey, conn: C, buf: Option<Vec<u8>>) {
        let mut evicted = 0u64;
        {
            let mut guard = self.lock();
            // Reborrow once so the map and the counters borrow as
            // disjoint fields rather than through the guard.
            let state = &mut *guard;
            let seq = state.next_seq;
            state.next_seq += 1;
            let entry = IdleEntry { seq, buf, conn };
            let over_cap = {
                let queue = state.by_endpoint.entry(key).or_default();
                queue.push_back(entry);
                queue.len() > self.config.max_idle_per_endpoint
            };
            state.total += 1;
            if over_cap {
                if let Some(queue) = state.by_endpoint.get_mut(&key) {
                    queue.pop_front();
                    state.total -= 1;
                    evicted += 1;
                }
            }
            while state.total > self.config.max_idle_total {
                let oldest = state
                    .by_endpoint
                    .iter()
                    .filter_map(|(k, queue)| queue.front().map(|entry| (entry.seq, *k)))
                    .min_by_key(|(seq, _)| *seq);
                let Some((_, victim)) = oldest else { break };
                if let Some(queue) = state.by_endpoint.get_mut(&victim) {
                    queue.pop_front();
                    state.total -= 1;
                    evicted += 1;
                    if queue.is_empty() {
                        state.by_endpoint.remove(&victim);
                    }
                }
            }
        }
        self.stats.checked_in.fetch_add(1, Ordering::Relaxed);
        for _ in 0..evicted {
            self.record(PoolEvent::Evicted);
        }
    }

    fn idle_count(&self) -> usize {
        self.lock().total
    }
}

/// Transport wrapper adding keep-alive connection reuse. Clones share
/// one pool, so a transport cloned into concurrent pipeline shards
/// still rides warm connections.
pub struct PooledTransport<T: Transport> {
    inner: Arc<T>,
    shared: Arc<PoolShared<T::Conn>>,
}

impl<T: Transport> Clone for PooledTransport<T> {
    fn clone(&self) -> Self {
        PooledTransport {
            inner: Arc::clone(&self.inner),
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T: Transport> std::fmt::Debug for PooledTransport<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledTransport")
            .field("config", &self.shared.config)
            .field("idle", &self.shared.idle_count())
            .finish_non_exhaustive()
    }
}

impl<T: Transport> PooledTransport<T> {
    /// Pool `inner` with default sizing.
    pub fn new(inner: T) -> Self {
        Self::with_config(inner, PoolConfig::default())
    }

    /// Pool `inner` with explicit sizing.
    pub fn with_config(inner: T, config: PoolConfig) -> Self {
        PooledTransport {
            inner: Arc::new(inner),
            shared: Arc::new(PoolShared {
                config,
                idle: Mutex::new(IdleState::default()),
                stats: PoolStats::default(),
                observer: None,
            }),
        }
    }

    /// Attach a callback invoked on every pool event — the scanner
    /// bridges this into its telemetry registry (`transport.pool.*`
    /// counters) without this crate depending on it.
    pub fn with_observer(self, observer: impl Fn(PoolEvent) + Send + Sync + 'static) -> Self {
        PooledTransport {
            inner: self.inner,
            shared: Arc::new(PoolShared {
                config: self.shared.config,
                idle: Mutex::new(IdleState::default()),
                stats: PoolStats::default(),
                observer: Some(Arc::new(observer)),
            }),
        }
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Shared lifecycle counters.
    pub fn stats(&self) -> &PoolStats {
        &self.shared.stats
    }

    /// Idle connections currently pooled, across all endpoints.
    pub fn idle_count(&self) -> usize {
        self.shared.idle_count()
    }

    /// Drop every idle connection.
    pub fn purge(&self) {
        let mut state = self.shared.lock();
        state.by_endpoint.clear();
        state.total = 0;
    }

    fn wrap(
        &self,
        conn: T::Conn,
        key: PoolKey,
        reused: bool,
        buf: Option<Vec<u8>>,
    ) -> PooledConn<T::Conn> {
        PooledConn {
            inner: Some(conn),
            key,
            shared: Arc::clone(&self.shared),
            reused,
            reusable: false,
            buf,
        }
    }
}

impl<T: Transport> Transport for PooledTransport<T> {
    type Conn = PooledConn<T::Conn>;

    fn probe(&self, ep: Endpoint) -> ProbeOutcome {
        self.inner.probe(ep)
    }

    fn sweep_block(&self, block: Cidr, ports: &[u16]) -> BlockSweepResult {
        self.inner.sweep_block(block, ports)
    }

    fn connect(&self, ep: Endpoint, scheme: Scheme) -> Result<Self::Conn> {
        let key = (ep, scheme);
        if let Some((conn, buf)) = self.shared.check_out(key) {
            self.shared.record(PoolEvent::Hit);
            return Ok(self.wrap(conn, key, true, buf));
        }
        self.shared.record(PoolEvent::Miss);
        let conn = self.inner.connect(ep, scheme)?;
        Ok(self.wrap(conn, key, false, None))
    }

    fn connect_fresh(&self, ep: Endpoint, scheme: Scheme) -> Result<Self::Conn> {
        // Only the client's stale-retry path calls this: a pooled
        // connection died under the first attempt, so the pool is
        // bypassed (another idle one could be a second corpse) and the
        // attempt is metered.
        self.shared.record(PoolEvent::StaleRetry);
        let conn = self.inner.connect_fresh(ep, scheme)?;
        Ok(self.wrap(conn, (ep, scheme), false, None))
    }

    fn supports_reuse(&self) -> bool {
        true
    }
}

/// A connection checked out of (or destined for) the pool. Checks
/// itself back in on drop if the client marked the last exchange
/// reusable; otherwise the underlying connection is torn down.
pub struct PooledConn<C: Connection> {
    inner: Option<C>,
    key: PoolKey,
    shared: Arc<PoolShared<C>>,
    reused: bool,
    reusable: bool,
    /// Recycled read buffer, riding along between exchanges.
    buf: Option<Vec<u8>>,
}

impl<C: Connection> PooledConn<C> {
    fn conn(&mut self) -> &mut C {
        self.inner
            .as_mut()
            .expect("connection only vacated on drop")
    }

    /// The underlying connection.
    pub fn get_ref(&self) -> &C {
        self.inner
            .as_ref()
            .expect("connection only vacated on drop")
    }
}

impl<C: Connection> Drop for PooledConn<C> {
    fn drop(&mut self) {
        if let Some(conn) = self.inner.take() {
            if self.reusable {
                self.shared.check_in(self.key, conn, self.buf.take());
            } else {
                self.shared.stats.discarded.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl<C: Connection> Read for PooledConn<C> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.conn().read(buf)
    }
}

impl<C: Connection> Write for PooledConn<C> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.conn().write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.conn().flush()
    }
}

impl<C: Connection> Connection for PooledConn<C> {
    fn certificate(&self) -> Option<CertificateInfo> {
        self.get_ref().certificate()
    }

    fn is_reused(&self) -> bool {
        self.reused
    }

    fn set_reusable(&mut self, reusable: bool) {
        self.reusable = reusable;
    }

    fn take_recycled_buf(&mut self) -> Option<Vec<u8>> {
        self.buf.take()
    }

    fn store_recycled_buf(&mut self, buf: Vec<u8>) {
        self.buf = Some(buf);
    }

    fn set_io_timeout(&mut self, timeout: Duration) -> std::io::Result<()> {
        self.conn().set_io_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use std::sync::atomic::AtomicU32;

    /// Hands out numbered in-memory connections; no sockets involved.
    struct FakeTransport {
        dialed: AtomicU32,
    }

    impl FakeTransport {
        fn new() -> Self {
            FakeTransport {
                dialed: AtomicU32::new(0),
            }
        }
    }

    struct FakeConn {
        id: u32,
    }

    impl Read for FakeConn {
        fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
            Ok(0) // permanent EOF
        }
    }

    impl Write for FakeConn {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Connection for FakeConn {}

    impl Transport for FakeTransport {
        type Conn = FakeConn;

        fn probe(&self, _ep: Endpoint) -> ProbeOutcome {
            ProbeOutcome::Open
        }

        fn connect(&self, _ep: Endpoint, _scheme: Scheme) -> Result<FakeConn> {
            Ok(FakeConn {
                id: self.dialed.fetch_add(1, Ordering::Relaxed),
            })
        }
    }

    fn ep(last: u8) -> Endpoint {
        Endpoint::new(Ipv4Addr::new(10, 0, 0, last), 80)
    }

    /// Connect, mark reusable, and drop — i.e. one clean exchange.
    fn cycle(pool: &PooledTransport<FakeTransport>, ep: Endpoint) -> u32 {
        let mut conn = pool.connect(ep, Scheme::Http).unwrap();
        let id = conn.get_ref().id;
        conn.set_reusable(true);
        id
    }

    #[test]
    fn checkout_is_fifo_and_counts_hits() {
        let pool = PooledTransport::new(FakeTransport::new());
        let first = cycle(&pool, ep(1));
        assert_eq!(pool.idle_count(), 1);
        let again = cycle(&pool, ep(1));
        assert_eq!(first, again, "the idle connection is reused");
        assert_eq!(pool.stats().hits(), 1);
        assert_eq!(pool.stats().misses(), 1);
        assert_eq!(pool.stats().checked_in(), 2);
    }

    #[test]
    fn unmarked_connections_are_discarded_not_pooled() {
        let pool = PooledTransport::new(FakeTransport::new());
        let conn = pool.connect(ep(1), Scheme::Http).unwrap();
        drop(conn); // never set_reusable(true)
        assert_eq!(pool.idle_count(), 0);
        assert_eq!(pool.stats().discarded(), 1);
        assert_eq!(pool.stats().hits() + pool.stats().misses(), 1);
    }

    #[test]
    fn per_endpoint_cap_evicts_the_oldest() {
        let pool = PooledTransport::with_config(
            FakeTransport::new(),
            PoolConfig {
                max_idle_per_endpoint: 1,
                ..PoolConfig::default()
            },
        );
        // Two concurrent checkouts force two dials; both check in, the
        // cap keeps only the newer one.
        let a = pool.connect(ep(1), Scheme::Http).unwrap();
        let b = pool.connect(ep(1), Scheme::Http).unwrap();
        let (a_id, b_id) = (a.get_ref().id, b.get_ref().id);
        for mut conn in [a, b] {
            conn.set_reusable(true);
        }
        assert_eq!(pool.idle_count(), 1);
        assert_eq!(pool.stats().evicted(), 1);
        let survivor = cycle(&pool, ep(1));
        assert_eq!(survivor, b_id, "oldest ({a_id}) was evicted");
    }

    #[test]
    fn global_bound_evicts_across_endpoints() {
        let pool = PooledTransport::with_config(
            FakeTransport::new(),
            PoolConfig {
                max_idle_per_endpoint: 4,
                max_idle_total: 2,
            },
        );
        let first = cycle(&pool, ep(1));
        cycle(&pool, ep(2));
        cycle(&pool, ep(3));
        assert_eq!(pool.idle_count(), 2, "global bound holds");
        assert_eq!(pool.stats().evicted(), 1);
        // ep(1) held the globally oldest connection; it is gone.
        let redialed = cycle(&pool, ep(1));
        assert_ne!(redialed, first);
        // Counter reconciliation: every connect is a hit or a miss, and
        // everything checked in was either evicted, reused, or is idle.
        let s = pool.stats();
        assert_eq!(s.hits() + s.misses(), 4);
        assert_eq!(
            s.checked_in(),
            s.evicted() + s.hits() + pool.idle_count() as u64
        );
    }

    #[test]
    fn connect_fresh_bypasses_the_pool_and_meters() {
        let pool = PooledTransport::new(FakeTransport::new());
        let warm = cycle(&pool, ep(1));
        let mut fresh = pool.connect_fresh(ep(1), Scheme::Http).unwrap();
        assert_ne!(fresh.get_ref().id, warm, "pool must be bypassed");
        assert!(!fresh.is_reused());
        assert_eq!(pool.stats().stale_retries(), 1);
        assert_eq!(pool.idle_count(), 1, "idle connection left untouched");
        fresh.set_reusable(true);
        drop(fresh);
        assert_eq!(pool.idle_count(), 2, "fresh connections still pool");
    }

    #[test]
    fn observer_sees_every_event() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let pool = PooledTransport::with_config(
            FakeTransport::new(),
            PoolConfig {
                max_idle_per_endpoint: 1,
                ..PoolConfig::default()
            },
        )
        .with_observer(move |event| sink.lock().unwrap().push(event));
        let a = pool.connect(ep(1), Scheme::Http).unwrap();
        let b = pool.connect(ep(1), Scheme::Http).unwrap();
        for mut conn in [a, b] {
            conn.set_reusable(true);
        }
        cycle(&pool, ep(1));
        let _ = pool.connect_fresh(ep(1), Scheme::Http).unwrap();
        let events = seen.lock().unwrap().clone();
        assert_eq!(
            events,
            vec![
                PoolEvent::Miss,
                PoolEvent::Miss,
                PoolEvent::Evicted,
                PoolEvent::Hit,
                PoolEvent::StaleRetry,
            ]
        );
    }

    #[test]
    fn schemes_pool_separately() {
        let pool = PooledTransport::new(FakeTransport::new());
        cycle(&pool, ep(1));
        // Same endpoint, different scheme: must not hit the HTTP pool.
        let conn = pool.connect(ep(1), Scheme::Https).unwrap();
        assert!(!conn.is_reused());
        assert_eq!(pool.stats().misses(), 2);
    }

    #[test]
    fn purge_empties_the_pool() {
        let pool = PooledTransport::new(FakeTransport::new());
        cycle(&pool, ep(1));
        cycle(&pool, ep(2));
        assert_eq!(pool.idle_count(), 2);
        pool.purge();
        assert_eq!(pool.idle_count(), 0);
    }

    #[test]
    fn recycled_buffer_rides_the_pool() {
        let pool = PooledTransport::new(FakeTransport::new());
        let mut conn = pool.connect(ep(1), Scheme::Http).unwrap();
        assert!(
            conn.take_recycled_buf().is_none(),
            "fresh connections carry no buffer"
        );
        conn.store_recycled_buf(Vec::with_capacity(4096));
        conn.set_reusable(true);
        drop(conn);
        let mut again = pool.connect(ep(1), Scheme::Http).unwrap();
        assert!(again.is_reused());
        let recycled = again
            .take_recycled_buf()
            .expect("the buffer survives the check-in/check-out cycle");
        assert_eq!(recycled.capacity(), 4096);
        assert!(
            again.take_recycled_buf().is_none(),
            "take hands the buffer over, not a copy"
        );
    }
}
