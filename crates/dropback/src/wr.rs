//! The weight-recomputation (WR) unit — functional model.
//!
//! §V of the paper: every PE contains a WR unit that regenerates the
//! *initial* value of any weight from `(seed, weight index)` alone: three
//! xorshift PRNGs summed into an approximate Gaussian, scaled by the
//! layer's initialization factor (Xavier/Kaiming), optionally decayed by
//! λᵗ (Alg 3), and converted to FP32. No hidden state — pruned weights
//! need never be stored.

use procrustes_prng::gaussian_at;

/// Functional model of the per-PE weight-recomputation unit.
///
/// Construction records the per-layer scaling factors (one per prunable
/// weight tensor, in model visitation order); afterwards
/// [`initial_value`](WeightRecompute::initial_value) and
/// [`decayed_value`](WeightRecompute::decayed_value) are pure functions.
///
/// # Examples
///
/// ```
/// use procrustes_dropback::WeightRecompute;
/// // Two layers: 6 weights at scale 0.5, then 4 weights at scale 1.0.
/// let wr = WeightRecompute::new(7, &[(6, 0.5), (4, 1.0)], 0.9);
/// // Pure function of the index:
/// assert_eq!(wr.initial_value(3), wr.initial_value(3));
/// // Decay shrinks values towards zero and reaches exactly zero.
/// assert!(wr.decayed_value(3, 10).abs() < wr.initial_value(3).abs());
/// assert_eq!(wr.decayed_value(3, 100_000), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WeightRecompute {
    seed: u32,
    /// `(end_index, scale)` per layer, cumulative — binary-searchable.
    ranges: Vec<(u64, f32)>,
    lambda: f32,
}

impl WeightRecompute {
    /// Decay factors below this are flushed to exactly zero (f32 would
    /// underflow long before; the cutoff makes the zero explicit, matching
    /// the paper's “all initial weights have decayed to zero”).
    pub const DECAY_FLUSH: f32 = 1e-12;

    /// Creates a WR unit for a model whose prunable tensors have the given
    /// `(len, init_scale)` pairs in visitation order. `lambda` is the
    /// per-iteration decay (the paper uses 0.9; pass 1.0 for no decay —
    /// original Dropback).
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty, any length is zero, any scale is not
    /// finite-positive, or `lambda` is outside `(0, 1]`.
    pub fn new(seed: u32, layers: &[(usize, f32)], lambda: f32) -> Self {
        assert!(!layers.is_empty(), "WeightRecompute: no layers");
        assert!(
            lambda > 0.0 && lambda <= 1.0,
            "WeightRecompute: lambda must be in (0,1], got {lambda}"
        );
        let mut ranges = Vec::with_capacity(layers.len());
        let mut end = 0u64;
        for &(len, scale) in layers {
            assert!(len > 0, "WeightRecompute: empty layer");
            assert!(
                scale.is_finite() && scale > 0.0,
                "WeightRecompute: bad scale {scale}"
            );
            end += len as u64;
            ranges.push((end, scale));
        }
        Self {
            seed,
            ranges,
            lambda,
        }
    }

    /// Total number of weights covered.
    pub fn len(&self) -> u64 {
        self.ranges.last().map_or(0, |&(end, _)| end)
    }

    /// Never true (construction requires at least one layer).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The decay parameter λ.
    pub fn lambda(&self) -> f32 {
        self.lambda
    }

    fn scale_of(&self, index: u64) -> f32 {
        assert!(
            index < self.len(),
            "weight index {index} out of {}",
            self.len()
        );
        let pos = self.ranges.partition_point(|&(end, _)| end <= index);
        self.ranges[pos].1
    }

    /// The initialization-time value of weight `index` (undecayed):
    /// `scale · gaussian(seed, index)`.
    pub fn initial_value(&self, index: u64) -> f32 {
        self.scale_of(index) * gaussian_at(self.seed, index)
    }

    /// The decayed initial value at iteration `t`: `λᵗ · initial_value`,
    /// flushed to exactly zero once λᵗ drops below
    /// [`DECAY_FLUSH`](Self::DECAY_FLUSH).
    pub fn decayed_value(&self, index: u64, t: u64) -> f32 {
        let factor = self.decay_factor(t);
        if factor == 0.0 {
            0.0
        } else {
            factor * self.initial_value(index)
        }
    }

    /// The decay factor λᵗ with the flush-to-zero cutoff applied.
    pub fn decay_factor(&self, t: u64) -> f32 {
        if self.lambda == 1.0 {
            return 1.0;
        }
        let factor = self.lambda.powi(t.min(i32::MAX as u64) as i32);
        if factor < Self::DECAY_FLUSH {
            0.0
        } else {
            factor
        }
    }

    /// First iteration at which the decayed initial values are exactly
    /// zero — the first `t` with [`decay_factor`](Self::decay_factor)`(t)
    /// == 0.0` (`None` when λ = 1, i.e. no decay).
    pub fn zero_iteration(&self) -> Option<u64> {
        if self.lambda == 1.0 {
            return None;
        }
        // The f32 `ln` ratio lands one off where λᵗ sits on the cutoff
        // (λ = 0.1, 0.001): start there and step to the exact point.
        let mut t = (Self::DECAY_FLUSH.ln() / self.lambda.ln()).ceil() as u64;
        while t > 0 && self.decay_factor(t - 1) == 0.0 {
            t -= 1;
        }
        while self.decay_factor(t) != 0.0 {
            t += 1;
        }
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> WeightRecompute {
        WeightRecompute::new(3, &[(100, 0.1), (50, 0.2)], 0.9)
    }

    #[test]
    fn pure_function_of_seed_and_index() {
        let a = unit();
        let b = unit();
        for i in [0u64, 1, 99, 100, 149] {
            assert_eq!(a.initial_value(i), b.initial_value(i));
        }
        let c = WeightRecompute::new(4, &[(100, 0.1), (50, 0.2)], 0.9);
        let differing = (0..150)
            .filter(|&i| a.initial_value(i) != c.initial_value(i))
            .count();
        assert!(differing > 140, "seed change should alter values");
    }

    #[test]
    fn layer_scales_apply_to_their_ranges() {
        let wr = WeightRecompute::new(5, &[(10, 1.0), (10, 100.0)], 1.0);
        let small: f32 = (0..10).map(|i| wr.initial_value(i).abs()).sum();
        let large: f32 = (10..20).map(|i| wr.initial_value(i).abs()).sum();
        assert!(large > small * 50.0, "{large} vs {small}");
    }

    #[test]
    fn decay_reaches_exact_zero() {
        let wr = unit();
        let t0 = wr.zero_iteration().unwrap();
        assert!(wr.decayed_value(5, t0) == 0.0);
        assert!(wr.decayed_value(5, t0 - 1) != 0.0);
        // λ=0.9: zero well before iteration 1000, aligning with the
        // paper's observation window ("the point at which all initial
        // weights have decayed to zero (1,000 iterations)").
        assert!(t0 < 1000, "zero iteration {t0}");
    }

    #[test]
    fn zero_iteration_is_first_flushed_factor_on_lambda_grid() {
        for k in 1..1000 {
            let lambda = k as f32 / 1000.0;
            let wr = WeightRecompute::new(3, &[(1, 1.0)], lambda);
            let t0 = wr.zero_iteration().unwrap();
            assert!(
                (0..t0).all(|t| wr.decay_factor(t) != 0.0),
                "λ={lambda}: a factor before {t0} is already zero"
            );
            assert!(
                (t0..t0 + 8).all(|t| wr.decay_factor(t) == 0.0),
                "λ={lambda}: decay_factor({t0}) = {}",
                wr.decay_factor(t0)
            );
        }
    }

    #[test]
    fn lambda_one_means_no_decay() {
        let wr = WeightRecompute::new(3, &[(10, 0.5)], 1.0);
        assert_eq!(wr.zero_iteration(), None);
        assert_eq!(wr.decayed_value(3, 1_000_000), wr.initial_value(3));
    }

    #[test]
    fn initial_values_are_gaussian_at_layer_scale() {
        let wr = WeightRecompute::new(9, &[(200_000, 0.05)], 0.9);
        let vals: Vec<f32> = (0..200_000).map(|i| wr.initial_value(i)).collect();
        let mean = vals.iter().sum::<f32>() / vals.len() as f32;
        let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
        assert!(mean.abs() < 1e-3, "mean {mean}");
        assert!((var.sqrt() - 0.05).abs() < 0.002, "std {}", var.sqrt());
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_range_index_panics() {
        unit().initial_value(150);
    }

    #[test]
    #[should_panic(expected = "lambda must be in")]
    fn bad_lambda_rejected() {
        WeightRecompute::new(1, &[(10, 1.0)], 0.0);
    }
}
