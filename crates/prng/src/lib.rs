//! Deterministic pseudo-random number generation for the Procrustes
//! reproduction.
//!
//! The Procrustes accelerator (MICRO 2020) recomputes pruned-weight initial
//! values on the fly in a per-PE *weight recomputation* (WR) unit built from
//! three [xorshift] generators whose outputs are summed to produce an
//! approximately Gaussian value (§V of the paper). This crate provides:
//!
//! * [`Xorshift32`], [`Xorshift64`] — Marsaglia xorshift generators,
//!   bit-faithful to the published shift triples;
//! * [`SplitMix64`] — a robust seeder/mixer used to derive independent
//!   streams;
//! * [`gaussian_at`] — the WR unit's number source: the sum of three
//!   xorshift uniforms, shifted and scaled to zero mean and unit variance
//!   (Irwin–Hall approximation of a Gaussian). It is a pure function of
//!   `(seed, index)`, so any PE can regenerate any weight's initial value
//!   without storing RNG state.
//!
//! Everything in this crate is deterministic and seed-stable across
//! platforms; the whole reproduction derives its randomness from here so
//! that experiments are bit-reproducible.
//!
//! # Examples
//!
//! ```
//! use procrustes_prng::{gaussian_at, UniformRng, Xorshift32};
//!
//! let mut rng = Xorshift32::new(42);
//! let u = rng.next_f32();
//! assert!((0.0..1.0).contains(&u));
//!
//! // Stateless weight-initialization: same (seed, index) -> same value.
//! assert_eq!(gaussian_at(7, 1234), gaussian_at(7, 1234));
//! assert!(gaussian_at(7, 1234).abs() <= 3.0); // Irwin-Hall(3) is bounded
//! ```
//!
//! [xorshift]: https://www.jstatsoft.org/article/view/v008i14

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gaussian;
mod splitmix;
mod xorshift;

pub use gaussian::gaussian_at;
pub use splitmix::SplitMix64;
pub use xorshift::{Xorshift32, Xorshift64};

/// Common interface for the uniform generators in this crate.
///
/// The trait is object-safe so simulations can hold `Box<dyn UniformRng>`
/// when the generator choice is a runtime configuration.
///
/// # Examples
///
/// ```
/// use procrustes_prng::{UniformRng, Xorshift64};
/// let mut rng: Box<dyn UniformRng> = Box::new(Xorshift64::new(1));
/// let x = rng.next_f64();
/// assert!((0.0..1.0).contains(&x));
/// ```
pub trait UniformRng {
    /// Returns the next raw 64-bit output of the generator.
    fn next_u64(&mut self) -> u64;

    /// Returns the next raw 32-bit output of the generator.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Returns a uniform `f32` in `[0, 1)`.
    fn next_f32(&mut self) -> f32 {
        // 24 significant bits keeps the value exactly representable.
        (self.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform integer in `[0, bound)`.
    ///
    /// Uses the widening-multiply map, which is unbiased enough for
    /// simulation workloads (bias < 2⁻³² per draw).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below: bound must be positive");
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// Shuffles `slice` in place with a Fisher–Yates pass driven by `rng`.
///
/// # Examples
///
/// ```
/// use procrustes_prng::{shuffle, Xorshift64};
/// let mut v: Vec<u32> = (0..10).collect();
/// shuffle(&mut v, &mut Xorshift64::new(3));
/// let mut sorted = v.clone();
/// sorted.sort();
/// assert_eq!(sorted, (0..10).collect::<Vec<_>>());
/// ```
pub fn shuffle<T, R: UniformRng + ?Sized>(slice: &mut [T], rng: &mut R) {
    for i in (1..slice.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        slice.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_below_is_in_range() {
        let mut rng = Xorshift64::new(9);
        for _ in 0..1000 {
            assert!(rng.next_below(7) < 7);
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        Xorshift64::new(9).next_below(0);
    }

    #[test]
    fn shuffle_preserves_elements() {
        let mut v: Vec<u32> = (0..100).collect();
        shuffle(&mut v, &mut Xorshift64::new(11));
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle should permute");
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn f32_and_f64_are_in_unit_interval() {
        let mut rng = Xorshift32::new(5);
        for _ in 0..10_000 {
            let x = rng.next_f32();
            assert!((0.0..1.0).contains(&x), "f32 out of range: {x}");
        }
        let mut rng = Xorshift64::new(5);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x), "f64 out of range: {x}");
        }
    }
}
