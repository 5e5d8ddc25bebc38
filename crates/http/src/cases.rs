//! Seeded case generator for property tests.
//!
//! The whole workspace is std-only, so this small module stands in for
//! a property-testing crate: [`check`] runs a property over a fixed
//! number of generated cases, each drawn from a [`Gen`] seeded with the
//! case number. A failing case prints `seed=<n>` before the panic
//! propagates, and setting `NOKEYS_CASE_SEED=<n>` replays exactly that
//! case. There is no shrinking: generators are asked for small inputs
//! in the first place.
//!
//! It lives in the bottom crate of the workspace so every member's
//! tests can reach it; nothing outside tests calls it.

use crate::rng::SplitMix64;
use std::ops::Range;

/// A [`SplitMix64`] stream with helpers for the input shapes the
/// workspace's properties draw.
#[derive(Debug, Clone)]
pub struct Gen(SplitMix64);

impl Gen {
    /// The generator of case `seed`.
    pub fn new(seed: u64) -> Self {
        Gen(SplitMix64::new(
            seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x6e6f_6b65_7973,
        ))
    }

    /// Next 64 uniformly distributed bits.
    pub fn u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// A value in `range` (which must not be empty).
    pub fn range(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        range.start + self.u64() % (range.end - range.start)
    }

    /// A `usize` in `range` (which must not be empty).
    pub fn index(&mut self, range: Range<usize>) -> usize {
        self.range(range.start as u64..range.end as u64) as usize
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    /// One arbitrary byte.
    pub fn byte(&mut self) -> u8 {
        self.u64() as u8
    }

    /// One element of `items` (which must not be empty).
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(0..items.len())]
    }

    /// Arbitrary bytes, with a length drawn from `len`.
    pub fn bytes(&mut self, len: Range<usize>) -> Vec<u8> {
        let n = self.index(len);
        (0..n).map(|_| self.byte()).collect()
    }

    /// A string over the characters of `alphabet` (which must not be
    /// empty), with a length in characters drawn from `len`.
    pub fn string(&mut self, alphabet: &str, len: Range<usize>) -> String {
        let alphabet: Vec<char> = alphabet.chars().collect();
        let n = self.index(len);
        (0..n).map(|_| *self.pick(&alphabet)).collect()
    }

    /// `count` values built by `item`, with `count` drawn from `len`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut item: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.index(len);
        (0..n).map(|_| item(self)).collect()
    }
}

/// Printable ASCII (space through `~`).
pub const PRINTABLE: &str =
    " !\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`abcdefghijklmnopqrstuvwxyz{|}~";

/// Run `property` on `cases` generated cases (seeds `0..cases`), or on
/// the single case named by `NOKEYS_CASE_SEED`. A panicking case prints
/// its seed to stderr and then fails the calling test.
pub fn check(cases: u64, property: impl Fn(&mut Gen)) {
    let replay = std::env::var("NOKEYS_CASE_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok());
    let seeds = match replay {
        Some(seed) => seed..seed + 1,
        None => 0..cases,
    };
    for seed in seeds {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            property(&mut Gen::new(seed));
        }));
        if let Err(panic) = outcome {
            eprintln!("property failed: seed={seed} (replay with NOKEYS_CASE_SEED={seed})");
            std::panic::resume_unwind(panic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_helpers_stay_in_range() {
        let mut a = Gen::new(7);
        let mut b = Gen::new(7);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
        assert_ne!(Gen::new(1).u64(), Gen::new(2).u64());
        let mut g = Gen::new(3);
        for _ in 0..1000 {
            assert!((10..20).contains(&g.range(10..20)));
            assert!(g.bytes(0..5).len() < 5);
            assert!(g.string("ab", 1..4).bytes().all(|c| c == b'a' || c == b'b'));
        }
    }

    /// Case 7's first draws, pinned: a change to the stream would
    /// quietly change every property's inputs.
    #[test]
    fn case_streams_are_pinned() {
        let mut g = Gen::new(7);
        let draws = [g.u64(), g.u64(), g.u64()];
        let pinned = [
            9_043_226_002_868_628_046,
            11_907_072_711_549_452_262,
            9_061_313_990_826_880_960,
        ];
        assert_eq!(draws, pinned);
    }

    #[test]
    fn check_runs_every_case_and_names_the_failing_seed() {
        let ran = std::sync::atomic::AtomicU64::new(0);
        check(17, |_| {
            ran.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(ran.load(std::sync::atomic::Ordering::Relaxed), 17);
        // The failing case's panic propagates (after its seed is printed).
        let failed = std::panic::catch_unwind(|| check(8, |_| panic!("boom")));
        assert!(failed.is_err());
    }
}
