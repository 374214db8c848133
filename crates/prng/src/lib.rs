//! A small deterministic pseudo-random number generator.
//!
//! The crates-io registry is not reachable from the offline build
//! environment, so the simulator, the benchmarks and the randomized
//! test suites use this hand-rolled xorshift64* generator instead of
//! the `rand` crate. It is *not* cryptographically secure and is not
//! meant to be: all users need is a fast, seedable, well-mixed stream
//! that makes randomized tests reproducible from a printed seed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// A xorshift64* pseudo-random number generator (Vigna 2016).
///
/// The state is a single nonzero 64-bit word; `next_u64` applies the
/// xorshift step and a finalizing multiplication, which passes the
/// usual empirical test batteries far beyond what the test suites here
/// require.
#[derive(Clone, Debug)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a generator from a seed. A zero seed is remapped (the
    /// all-zero state is a fixed point of xorshift).
    pub fn new(seed: u64) -> XorShift64 {
        XorShift64 {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high-quality bits into the mantissa.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "below(0) is meaningless");
        // Multiply-shift bounded generation (Lemire); the slight
        // modulo bias of the naive approach would be irrelevant here,
        // but this is just as cheap.
        let x = self.next_u64() as u128;
        ((x * bound as u128) >> 64) as usize
    }

    /// A uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// A reference to a uniformly chosen element of `items`, or `None`
    /// if the slice is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.below(items.len())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut g = XorShift64::new(0);
        assert_ne!(g.next_u64(), 0);
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut g = XorShift64::new(7);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            let v = g.below(5);
            assert!(v < 5);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit: {seen:?}");
    }

    #[test]
    fn chance_roughly_matches_probability() {
        let mut g = XorShift64::new(11);
        let hits = (0..10_000).filter(|_| g.chance(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn range_respects_bounds() {
        let mut g = XorShift64::new(3);
        for _ in 0..100 {
            let v = g.range(10, 13);
            assert!((10..13).contains(&v));
        }
    }
}
