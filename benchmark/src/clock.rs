//! A reference clock: how slow the machine is right now.
//!
//! README.md ("Reference seconds") has the measurements behind this. Two
//! tiny fixed kernels run between the timed batches; how long they take,
//! against how long they take on the quiet machine, says by how much the
//! neighbours are slowing this thread at this moment.

use std::hint::black_box;
use std::time::Instant;

/// Iterations per tick; each kernel takes some 25 µs on the quiet machine.
const LATENCY_ITERS: u64 = 20_000;
const THROUGHPUT_ITERS: u64 = 30_000;
/// Nanoseconds per iteration on the quiet machine. They only set the
/// scale of a reference second; every comparison is of two runs on one
/// machine, where they cancel.
const LATENCY_QUIET_NS: f64 = 1.212;
const THROUGHPUT_QUIET_NS: f64 = 0.84;
/// Workload time between two ticks, at least.
const TICK_EVERY_NS: u64 = 1_000_000;

/// One dependent multiply chain: bound by instruction latency, so it
/// slows with the core's frequency but hardly with a busy SMT sibling.
fn latency_kernel(iters: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..iters {
        x = black_box(x)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .rotate_left(17)
            ^ 0x94D0_49BB;
    }
    x
}

/// Four independent chains with L1 loads: bound by issue width, so a busy
/// SMT sibling slows it most.
fn throughput_kernel(iters: u64, table: &[u32; 1024]) -> u64 {
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    for i in 0..iters {
        a = a.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        b = b.wrapping_add(u64::from(table[(a >> 54) as usize]));
        c = c
            .wrapping_mul(3)
            .wrapping_add(u64::from(table[(b & 1023) as usize]));
        d ^= c.rotate_left(7);
    }
    a ^ b ^ c ^ d
}

/// Accumulates the two kernels' times over a stretch of measurement.
pub struct RefClock {
    table: [u32; 1024],
    /// Workload time reported since the last tick.
    worked_ns: u64,
    ticks: u64,
    latency_ns: u64,
    throughput_ns: u64,
}

/// How much slower than quiet the two kinds of code ran over a stretch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slowdown {
    pub latency: f64,
    pub throughput: f64,
}

impl Slowdown {
    /// The factor for code that is `latency_share` latency-bound.
    pub fn blend(self, latency_share: f64) -> f64 {
        latency_share * self.latency + (1.0 - latency_share) * self.throughput
    }
}

impl RefClock {
    pub fn new() -> Self {
        let mut table = [0; 1024];
        for (i, slot) in table.iter_mut().enumerate() {
            *slot = (i as u32).wrapping_mul(2_654_435_761);
        }
        RefClock {
            table,
            worked_ns: 0,
            ticks: 0,
            latency_ns: 0,
            throughput_ns: 0,
        }
    }

    /// Report `ns` more of workload time; ticks, and says so, once a
    /// millisecond of it has gone by since the last tick.
    pub fn worked(&mut self, ns: u64) -> bool {
        self.worked_ns += ns;
        let due = self.worked_ns >= TICK_EVERY_NS;
        if due {
            self.tick();
            self.worked_ns = 0;
        }
        due
    }

    /// Run both kernels once.
    fn tick(&mut self) {
        let start = Instant::now();
        black_box(latency_kernel(black_box(LATENCY_ITERS)));
        let middle = Instant::now();
        black_box(throughput_kernel(black_box(THROUGHPUT_ITERS), &self.table));
        let end = Instant::now();
        self.ticks += 1;
        self.latency_ns += (middle - start).as_nanos() as u64;
        self.throughput_ns += (end - middle).as_nanos() as u64;
    }

    /// The slow-down since the last call, and start over. Ticks once if
    /// the stretch was too short to have ticked.
    pub fn take(&mut self) -> Slowdown {
        if self.ticks == 0 {
            self.tick();
        }
        let ticks = self.ticks as f64;
        let slowdown = Slowdown {
            latency: self.latency_ns as f64 / (ticks * LATENCY_ITERS as f64 * LATENCY_QUIET_NS),
            throughput: self.throughput_ns as f64
                / (ticks * THROUGHPUT_ITERS as f64 * THROUGHPUT_QUIET_NS),
        };
        (self.ticks, self.latency_ns, self.throughput_ns) = (0, 0, 0);
        slowdown
    }
}

impl Default for RefClock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blend_weights_the_two_factors() {
        let s = Slowdown {
            latency: 1.0,
            throughput: 2.0,
        };
        assert_eq!(s.blend(1.0), 1.0);
        assert_eq!(s.blend(0.0), 2.0);
        assert_eq!(s.blend(0.75), 1.25);
    }

    #[test]
    fn take_reports_and_resets() {
        let mut clock = RefClock::new();
        assert!(!clock.worked(TICK_EVERY_NS - 1));
        assert!(clock.worked(1), "a millisecond of work is due a tick");
        clock.tick();
        let first = clock.take();
        assert!(first.latency > 0.0 && first.throughput > 0.0);
        assert_eq!(clock.ticks, 0);
        // An empty stretch still yields a reading.
        assert!(clock.take().latency > 0.0);
    }
}
