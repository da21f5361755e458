//! Marsaglia xorshift generators.
//!
//! These are the exact shift triples from G. Marsaglia, “Xorshift RNGs”,
//! *Journal of Statistical Software* 8(14), 2003 — the generator family the
//! Procrustes WR unit instantiates in hardware (Table I of the paper lists
//! “pseudo-RNG: xorshift, one per PE”).

use crate::{SplitMix64, UniformRng};

/// 32-bit xorshift generator (shift triple 13/17/5).
///
/// This is the generator the Procrustes weight-recomputation unit uses; a
/// hardware PE holds three of them (see [`gaussian_at`](crate::gaussian_at)).
///
/// # Examples
///
/// ```
/// use procrustes_prng::Xorshift32;
/// let mut a = Xorshift32::new(1);
/// let mut b = Xorshift32::new(1);
/// assert_eq!(a.next(), b.next()); // deterministic
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Xorshift32 {
    state: u32,
}

impl Xorshift32 {
    /// Creates a generator from `seed`.
    ///
    /// A zero seed would trap the generator at zero forever, so seeds are
    /// first mixed through [`SplitMix64`]; the all-zero mix output is then
    /// replaced by a fixed nonzero constant.
    pub fn new(seed: u32) -> Self {
        let mixed = SplitMix64::new(u64::from(seed)).next_u64() as u32;
        Self::from_raw_state(mixed)
    }

    /// Creates a generator with `state` used verbatim (after zero-fixup).
    ///
    /// Use this when bit-faithful correspondence with a hardware seed
    /// register is required, e.g. in the WR unit model.
    pub fn from_raw_state(state: u32) -> Self {
        Self {
            state: if state == 0 { 0x9E37_79B9 } else { state },
        }
    }

    /// Advances the generator and returns the next 32-bit value.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u32 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        self.state = x;
        x
    }

    /// Returns the current internal state (never zero).
    pub fn state(&self) -> u32 {
        self.state
    }

    /// Returns a uniform `f32` in `[0, 1)` from the next output.
    pub fn next_f32(&mut self) -> f32 {
        (self.next() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl UniformRng for Xorshift32 {
    fn next_u64(&mut self) -> u64 {
        (u64::from(self.next()) << 32) | u64::from(self.next())
    }

    fn next_u32(&mut self) -> u32 {
        self.next()
    }
}

impl Iterator for Xorshift32 {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        Some(Xorshift32::next(self))
    }
}

/// 64-bit xorshift generator (shift triple 13/7/17).
///
/// The workhorse uniform generator for workload synthesis in this
/// reproduction (dataset noise, mask sampling, shuffles).
///
/// # Examples
///
/// ```
/// use procrustes_prng::{UniformRng, Xorshift64};
/// let mut rng = Xorshift64::new(99);
/// let x: u64 = rng.next_u64();
/// let y: u64 = rng.next_u64();
/// assert_ne!(x, y);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Xorshift64 {
    state: u64,
}

impl Xorshift64 {
    /// Creates a generator from `seed` (mixed through [`SplitMix64`]).
    pub fn new(seed: u64) -> Self {
        let mixed = SplitMix64::new(seed).next_u64();
        Self {
            state: if mixed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                mixed
            },
        }
    }

    /// Advances the generator and returns the next 64-bit value.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// Returns the current internal state (never zero).
    pub fn state(&self) -> u64 {
        self.state
    }
}

impl UniformRng for Xorshift64 {
    fn next_u64(&mut self) -> u64 {
        self.next()
    }
}

impl Iterator for Xorshift64 {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        Some(Xorshift64::next(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference from Marsaglia's paper: seeding xor32 with 2463534242 and
    /// applying (13,17,5) must follow the published recurrence. We verify
    /// the first step by direct computation.
    #[test]
    fn xorshift32_recurrence_matches_reference() {
        let mut rng = Xorshift32::from_raw_state(2_463_534_242);
        let mut x: u32 = 2_463_534_242;
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        assert_eq!(rng.next(), x);
    }

    #[test]
    fn zero_seed_does_not_stick() {
        let mut rng = Xorshift32::from_raw_state(0);
        assert_ne!(rng.next(), 0);
        let mut rng64 = Xorshift64::new(0);
        assert_ne!(rng64.next(), 0);
    }

    #[test]
    fn xorshift32_has_long_cycle_prefix() {
        // The full period is 2^32-1; just check no short cycle in 1M steps.
        let mut rng = Xorshift32::new(1);
        let first = rng.next();
        for _ in 0..1_000_000 {
            assert_ne!(rng.next(), 0);
        }
        // Coming back to the first output within 1M draws would mean a
        // catastrophically short cycle.
        let mut rng2 = Xorshift32::new(1);
        rng2.next();
        let mut seen_first_again = false;
        for _ in 0..10_000 {
            if rng2.next() == first {
                seen_first_again = true;
                break;
            }
        }
        assert!(!seen_first_again);
    }

    #[test]
    fn mean_of_uniform_outputs_is_centered() {
        let mut rng = Xorshift64::new(123);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn distinct_seeds_give_distinct_streams() {
        let a: Vec<u32> = Xorshift32::new(1).take(16).collect();
        let b: Vec<u32> = Xorshift32::new(2).take(16).collect();
        assert_ne!(a, b);
    }
}
