//! A tiny deterministic PRNG for tests, generators, and benchmarks.
//!
//! The workspace builds hermetically offline, so randomized tests use this
//! in-tree [SplitMix64](https://prng.di.unimi.it/splitmix64.c) instead of
//! an external `rand` crate. SplitMix64 passes BigCrush, needs one `u64`
//! of state, and is seedable from a single integer — exactly what seeded
//! property tests and the circuit generators need. The method names mirror
//! the small slice of the `rand` API the repo historically used
//! (`seed_from_u64`, `gen_range`, `gen_bool`, `shuffle`), keeping call
//! sites familiar.
//!
//! Not cryptographically secure; do not use for anything adversarial.
//!
//! # Examples
//!
//! ```
//! use presat_logic::rng::SplitMix64;
//!
//! let mut rng = SplitMix64::seed_from_u64(42);
//! let a = rng.gen_range(0..10);
//! assert!(a < 10);
//! let mut xs = [1, 2, 3, 4, 5];
//! rng.shuffle(&mut xs);
//! // Same seed, same stream:
//! assert_eq!(
//!     SplitMix64::seed_from_u64(7).next_u64(),
//!     SplitMix64::seed_from_u64(7).next_u64(),
//! );
//! ```

use std::ops::Range;

/// A SplitMix64 pseudo-random generator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed. Distinct seeds give
    /// well-separated streams (the whole point of SplitMix64's design).
    pub fn seed_from_u64(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[range.start, range.end)`.
    ///
    /// Uses Lemire-style multiply-shift rejection-free mapping; the bias is
    /// at most `range.len() / 2^64`, irrelevant for the small ranges used
    /// in tests and generators.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range(&mut self, range: Range<usize>) -> usize {
        assert!(range.start < range.end, "gen_range on empty range");
        let span = (range.end - range.start) as u64;
        let mapped = ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64;
        range.start + mapped as usize
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        // Compare against a 53-bit uniform in [0, 1) — exact for p = 0.5,
        // the only probability the repo uses in anger.
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        u < p
    }

    /// Uniform `u64` below `bound` (`bound > 0`).
    pub fn gen_u64_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_u64_below(0)");
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.gen_range(0..i + 1);
            xs.swap(i, j);
        }
    }

    /// A uniformly chosen reference into a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.gen_range(0..xs.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::seed_from_u64(1);
        let mut b = SplitMix64::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // Known first output of the reference implementation for seed 0.
        assert_eq!(
            SplitMix64::seed_from_u64(0).next_u64(),
            0xe220_a839_7b1d_cdaf
        );
    }

    #[test]
    fn distinct_seeds_diverge() {
        assert_ne!(
            SplitMix64::seed_from_u64(1).next_u64(),
            SplitMix64::seed_from_u64(2).next_u64()
        );
    }

    #[test]
    fn gen_range_stays_in_bounds_and_hits_all_values() {
        let mut rng = SplitMix64::seed_from_u64(3);
        let mut seen = [false; 7];
        for _ in 0..500 {
            let v = rng.gen_range(2..9);
            assert!((2..9).contains(&v));
            seen[v - 2] = true;
        }
        assert!(seen.iter().all(|&s| s), "some values never drawn: {seen:?}");
    }

    #[test]
    fn gen_bool_is_roughly_fair() {
        let mut rng = SplitMix64::seed_from_u64(4);
        let heads = (0..10_000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((4_500..5_500).contains(&heads), "heads={heads}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SplitMix64::seed_from_u64(5);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn choose_and_below_bounds() {
        let mut rng = SplitMix64::seed_from_u64(6);
        let xs = [10, 20, 30];
        for _ in 0..20 {
            assert!(xs.contains(rng.choose(&xs)));
            assert!(rng.gen_u64_below(5) < 5);
        }
    }
}
