//! The workspace's two seeded generators: splitmix64 with its
//! finalizer, and xorshift64.
//!
//! Population generation and the property-test cases ([`crate::cases`])
//! need a seeded stream; fault injection and retry jitter need a
//! stateless hash over a key. All four are the same 64-bit finalizer,
//! so they live here, in the bottom crate every member can reach (as
//! [`crate::ip`] and [`crate::cases`] do; `nokeys_netsim::rng` is this
//! module). Nothing in the simulation needs more statistical quality
//! than this, and owning the generator keeps every draw stable across
//! toolchains.
//!
//! [`XorShift64`] drives stage I's block shuffle and the attack
//! planner (`nokeys_attack::plan`). Moving either onto splitmix64
//! would reseed every scan order or every attack plan, and so every
//! output.

/// The splitmix64 output function applied to `x + γ`.
pub fn mix64(x: u64) -> u64 {
    let mut x = x.wrapping_add(GAMMA);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Map a hash to `[0, 1)` using the top 53 bits.
pub fn unit_interval(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// A seeded splitmix64 stream.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let out = mix64(self.state);
        self.state = self.state.wrapping_add(GAMMA);
        out
    }

    /// Next 32 uniformly distributed bits (the high half).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        unit_interval(self.next_u64())
    }

    /// A draw from `0..n`. Reduction is by modulo: for the population
    /// sizes drawn here (`n` ≪ 2⁶⁴) the bias is far below anything the
    /// calibration tolerances could see.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        self.next_u64() % n
    }

    /// A draw from `range`.
    pub fn range(&mut self, range: std::ops::Range<u64>) -> u64 {
        range.start + self.below(range.end - range.start)
    }
}

/// A seeded xorshift64 stream (shifts 13, 7, 17).
#[derive(Debug, Clone)]
pub struct XorShift64(u64);

impl XorShift64 {
    /// The stream of `seed` with its low bit set: a zero state stays zero.
    pub fn new(seed: u64) -> Self {
        XorShift64(seed | 1)
    }

    /// Next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// A uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        unit_interval(self.next_u64())
    }

    /// Fisher–Yates: from the last index down, swap `items[i]` with
    /// `items[next_u64() % (i + 1)]`.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The published splitmix64 reference vector for seed 1234567.
    #[test]
    fn matches_the_reference_vector() {
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
        assert_eq!(rng.next_u64(), 9817491932198370423);
    }

    /// State 1 worked by hand: `<< 13` gives 0x2001, `>> 7` 0x2041 and
    /// `<< 17` 0x4082_2041.
    #[test]
    fn xorshift_matches_its_worked_first_draw() {
        let mut rng = XorShift64::new(0);
        assert_eq!(rng.next_u64(), 0x4082_2041);
        let mut same = XorShift64::new(1);
        same.next_u64();
        assert_eq!(
            rng.next_u64(),
            same.next_u64(),
            "seeds 0 and 1 are one stream"
        );
        let mut items: Vec<u32> = (0..100).collect();
        XorShift64::new(7).shuffle(&mut items);
        assert_ne!(items, (0..100).collect::<Vec<_>>());
        items.sort_unstable();
        assert_eq!(items, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn helpers_stay_in_range() {
        let mut rng = SplitMix64::new(9);
        for _ in 0..10_000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(rng.below(7) < 7);
            assert!((30..720).contains(&rng.range(30..720)));
        }
    }
}
