//! The weight-recomputation unit's Gaussian approximation.
//!
//! §V of the paper: *“\[the WR unit\] consists of 3 xorshift pseudo-random
//! generators (RNGs) whose outputs are added to produce an approximately
//! Gaussian output. Note that, unlike conventional RNG, the WR unit does not
//! contain hidden state, and is purely a function of its seed and the weight
//! index.”*
//!
//! The sum of three `U(0,1)` variables is Irwin–Hall(3): mean 1.5, variance
//! 1/4. We shift and scale to zero mean / unit variance, which is what a
//! scaling stage in hardware would fold into the Xavier/Kaiming factor.

use crate::{SplitMix64, Xorshift32};

/// Scale that turns the Irwin–Hall(3) sum into a unit-variance variable.
const IH3_SCALE: f32 = 2.0; // 1 / sqrt(3/12)

/// Stateless WR-unit output: the approximately-Gaussian initial value of the
/// weight at `index` under `seed`, before Xavier/Kaiming scaling.
///
/// This is a *pure function*: it involves no hidden state, so a PE can
/// regenerate any pruned weight's initialization on demand — the property
/// the Procrustes WR unit is built around. Scaling (and decay, Alg 3 of the
/// paper) are applied by the caller; see
/// `procrustes_dropback::WeightRecompute`.
///
/// The three per-call xorshift states are derived by hashing `(seed, index)`
/// with distinct stream constants, then each core is stepped once.
///
/// # Examples
///
/// ```
/// use procrustes_prng::gaussian_at;
/// // Pure function of (seed, index):
/// assert_eq!(gaussian_at(1, 0), gaussian_at(1, 0));
/// // Different indices give different draws:
/// assert_ne!(gaussian_at(1, 0), gaussian_at(1, 1));
/// // Bounded support of Irwin-Hall(3):
/// assert!(gaussian_at(1, 12345).abs() <= 3.0);
/// ```
pub fn gaussian_at(seed: u32, index: u64) -> f32 {
    // Three decorrelated 32-bit states from one 64-bit hash chain.
    let h0 = SplitMix64::mix(u64::from(seed) ^ index.wrapping_mul(0xA076_1D64_78BD_642F));
    let h1 = SplitMix64::mix(h0);
    let mut a = Xorshift32::from_raw_state(h0 as u32);
    let mut b = Xorshift32::from_raw_state((h0 >> 32) as u32);
    let mut c = Xorshift32::from_raw_state(h1 as u32);
    let sum = a.next_f32() + b.next_f32() + c.next_f32();
    (sum - 1.5) * IH3_SCALE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn support_is_bounded_by_three_sigma() {
        for i in 0..100_000 {
            let x = gaussian_at(2, i);
            assert!(x.abs() <= 3.0 + f32::EPSILON, "out of IH3 support: {x}");
        }
    }

    #[test]
    fn stateless_form_is_reproducible_and_index_sensitive() {
        let a: Vec<f32> = (0..64).map(|i| gaussian_at(11, i)).collect();
        let b: Vec<f32> = (0..64).map(|i| gaussian_at(11, i)).collect();
        assert_eq!(a, b);
        let distinct = a
            .iter()
            .zip((0..64).map(|i| gaussian_at(12, i)))
            .filter(|(x, y)| **x != *y)
            .count();
        assert!(distinct > 60, "seeds should decorrelate ({distinct}/64)");
    }

    #[test]
    fn stateless_moments() {
        let n = 100_000u64;
        let samples: Vec<f32> = (0..n).map(|i| gaussian_at(5, i)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.01, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.02, "var = {var}");
    }
}
