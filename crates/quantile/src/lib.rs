//! Streaming quantile estimation — the hardware-friendly replacement for
//! sorting in sparse training.
//!
//! Dropback-style sparse training must find the k-th largest accumulated
//! gradient among millions every iteration; a comparison sort would cost
//! hundreds of millions of comparisons (§III-B of the paper: 336 M for
//! VGG-S). Procrustes instead *estimates* the threshold ϑ with DUMIQUE
//! (Yazidi & Hammer, “Multiplicative update methods for incremental
//! quantile estimation”, IEEE Trans. Cybernetics 49, 2017): one comparison
//! and one multiply per observed gradient.
//!
//! This crate provides:
//!
//! * [`Dumique`] — the estimator of the paper's Alg 4, including the
//!   4-wide averaged update Procrustes adds to sustain the peak rate of
//!   4 gradients/cycle;
//! * [`ExactQuantile`] — a sort-based reference used to quantify
//!   estimation error in tests and experiments;
//! * [`quantile_for_sparsity`] — the mapping from a pruning factor (e.g.
//!   10×) to the tracked quantile `q`.
//!
//! # Examples
//!
//! ```
//! use procrustes_quantile::{quantile_for_sparsity, Dumique};
//!
//! // Track the threshold separating the top 10% of gradient magnitudes.
//! let mut est = Dumique::new(quantile_for_sparsity(10.0));
//! for i in 0..50_000 {
//!     // A synthetic magnitude stream in (0, 1].
//!     let delta = ((i * 37 + 11) % 1000) as f32 / 1000.0 + 1e-3;
//!     est.update(delta);
//! }
//! // The 0.9-quantile of U(0,1] is 0.9; DUMIQUE should be close.
//! assert!((est.estimate() - 0.9).abs() < 0.05, "{}", est.estimate());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The tracked quantile for a target pruning factor.
///
/// A sparsity factor of `f` means keeping a `1/f` fraction of weights, so
/// the admission threshold ϑ sits at the `1 − 1/f` quantile of gradient
/// magnitudes.
///
/// # Panics
///
/// Panics unless `factor > 1`.
///
/// # Examples
///
/// ```
/// use procrustes_quantile::quantile_for_sparsity;
/// assert!((quantile_for_sparsity(10.0) - 0.9).abs() < 1e-6);
/// assert!((quantile_for_sparsity(4.0) - 0.75).abs() < 1e-6);
/// ```
pub fn quantile_for_sparsity(factor: f64) -> f64 {
    assert!(factor > 1.0, "sparsity factor must exceed 1 (got {factor})");
    1.0 - 1.0 / factor
}

/// The DUMIQUE multiplicative incremental quantile estimator (Alg 4).
///
/// Each observation moves the estimate multiplicatively: up by `(1 + ρq)`
/// when the observation exceeds the estimate, down by `(1 − ρ(1−q))`
/// otherwise. At equilibrium the up/down moves balance exactly when a
/// `1 − q` fraction of observations exceed the estimate — i.e. the
/// estimate sits at the `q`-quantile.
///
/// The estimator requires a *positive* data stream; gradient magnitudes
/// satisfy this naturally (exact zeros leave a decay step, which is
/// harmless).
///
/// Procrustes uses the paper defaults `Q̂(0) = 1e-6`, `ρ = 1e-3` for all
/// experiments (§III-B reports negligible sensitivity; see this crate's
/// tests for the supporting evidence).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dumique {
    q: f64,
    /// The two multiplicative factors, `1 + ρq` and `1 − ρ(1−q)`, formed
    /// once: an update is one compare and one multiply, and a copy of
    /// the estimator held in a local keeps its whole chain in registers.
    up: f64,
    down: f64,
    estimate: f64,
    observations: u64,
}

impl Dumique {
    /// Paper-default initial estimate.
    pub const DEFAULT_INIT: f64 = 1e-6;
    /// Paper-default adjustment rate ρ.
    pub const DEFAULT_RHO: f64 = 1e-3;

    /// Creates an estimator for the `q`-quantile with the paper defaults.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < q < 1`.
    pub fn new(q: f64) -> Self {
        Self::with_params(q, Self::DEFAULT_INIT, Self::DEFAULT_RHO)
    }

    /// Creates an estimator with explicit initial estimate and rate.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < q < 1`, `init > 0`, and `0 < rho < 1`.
    pub fn with_params(q: f64, init: f64, rho: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "quantile q must be in (0,1), got {q}");
        assert!(init > 0.0, "initial estimate must be positive, got {init}");
        assert!(rho > 0.0 && rho < 1.0, "rho must be in (0,1), got {rho}");
        Self {
            q,
            up: 1.0 + rho * q,
            down: 1.0 - rho * (1.0 - q),
            estimate: init,
            observations: 0,
        }
    }

    /// The tracked quantile `q`.
    pub fn q(&self) -> f64 {
        self.q
    }

    /// Current estimate of the `q`-quantile (the admission threshold ϑ).
    pub fn estimate(&self) -> f32 {
        self.estimate as f32
    }

    /// Number of updates applied so far (4-wide updates count once, as in
    /// hardware).
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Feeds one observation (a gradient magnitude) and returns the new
    /// estimate.
    pub fn update(&mut self, delta: f32) -> f32 {
        let d = f64::from(delta);
        self.estimate *= if self.estimate < d {
            self.up
        } else {
            self.down
        };
        self.observations += 1;
        self.estimate as f32
    }

    /// The parallelized Procrustes variant: treats the *average* of four
    /// incoming magnitudes as a single observation, sustaining a peak rate
    /// of 4 gradient updates per cycle (§III-B).
    pub fn update4(&mut self, deltas: [f32; 4]) -> f32 {
        let avg = deltas.iter().copied().sum::<f32>() / 4.0;
        self.update(avg)
    }

    /// True if `delta` would be admitted to the tracked set (exceeds ϑ).
    pub fn admits(&self, delta: f32) -> bool {
        f64::from(delta) > self.estimate
    }
}

/// Sort-based exact quantiles, the ground-truth reference for estimator
/// error measurements (the paper's Fig 7 baseline is “exact sorting”).
///
/// # Examples
///
/// ```
/// use procrustes_quantile::ExactQuantile;
/// let mut e = ExactQuantile::new();
/// e.extend((1..=100).map(|i| i as f32));
/// // Nearest-rank: ceil(0.9 · 100) = rank 90.
/// assert_eq!(e.quantile(0.9), 90.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExactQuantile {
    values: Vec<f32>,
}

impl ExactQuantile {
    /// Creates an empty reference set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, value: f32) {
        self.values.push(value);
    }

    /// Number of stored observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no observations are stored.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The exact `q`-quantile by the nearest-rank method.
    ///
    /// # Panics
    ///
    /// Panics if empty or `q` outside `(0, 1)`.
    pub fn quantile(&self, q: f64) -> f32 {
        assert!(!self.values.is_empty(), "quantile of empty set");
        assert!(q > 0.0 && q < 1.0, "q must be in (0,1), got {q}");
        let mut sorted = self.values.clone();
        sorted.sort_by(f32::total_cmp);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Relative error of `estimate` against the exact `q`-quantile.
    pub fn relative_error(&self, q: f64, estimate: f32) -> f64 {
        let exact = f64::from(self.quantile(q));
        (f64::from(estimate) - exact).abs() / exact.abs().max(f64::MIN_POSITIVE)
    }
}

impl Extend<f32> for ExactQuantile {
    fn extend<T: IntoIterator<Item = f32>>(&mut self, iter: T) {
        self.values.extend(iter);
    }
}

impl FromIterator<f32> for ExactQuantile {
    fn from_iter<T: IntoIterator<Item = f32>>(iter: T) -> Self {
        Self {
            values: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use procrustes_prng::{UniformRng, Xorshift64};

    fn uniform_stream(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = Xorshift64::new(seed);
        (0..n).map(|_| rng.next_f32() + 1e-6).collect()
    }

    fn lognormal_stream(n: usize, seed: u64) -> Vec<f32> {
        // exp(N(0,1)) via Irwin-Hall(3); heavy-tailed like gradient
        // magnitude distributions.
        let mut rng = Xorshift64::new(seed);
        (0..n)
            .map(|_| {
                let g = (rng.next_f32() + rng.next_f32() + rng.next_f32() - 1.5) * 2.0;
                g.exp()
            })
            .collect()
    }

    #[test]
    fn converges_on_uniform_to_within_five_percent() {
        for q in [0.5, 0.75, 0.9] {
            let stream = uniform_stream(200_000, 1);
            let mut est = Dumique::new(q);
            for &d in &stream {
                est.update(d);
            }
            let exact: ExactQuantile = stream.into_iter().collect();
            let err = exact.relative_error(q, est.estimate());
            assert!(err < 0.05, "q={q}: err={err}");
        }
    }

    #[test]
    fn converges_on_heavy_tailed_stream() {
        let stream = lognormal_stream(300_000, 2);
        let mut est = Dumique::new(0.9);
        for &d in &stream {
            est.update(d);
        }
        let exact: ExactQuantile = stream.into_iter().collect();
        let err = exact.relative_error(0.9, est.estimate());
        assert!(err < 0.12, "err={err}");
    }

    /// §III-B: “the tracking accuracy sensitivity to the values of Q̂q(0)
    /// and ρ is negligible” — different inits converge to the same place.
    #[test]
    fn insensitive_to_initial_estimate() {
        let stream = uniform_stream(300_000, 3);
        let mut lo = Dumique::with_params(0.9, 1e-9, 1e-3);
        let mut hi = Dumique::with_params(0.9, 10.0, 1e-3);
        for &d in &stream {
            lo.update(d);
            hi.update(d);
        }
        let spread = (lo.estimate() - hi.estimate()).abs() / lo.estimate();
        assert!(spread < 0.05, "estimates diverged by {spread}");
    }

    #[test]
    fn update4_tracks_scalar_estimator_closely() {
        let stream = uniform_stream(200_000, 4);
        let mut scalar = Dumique::new(0.75);
        let mut quad = Dumique::new(0.75);
        for &d in &stream {
            scalar.update(d);
        }
        for chunk in stream.chunks_exact(4) {
            quad.update4([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        // Averaging narrows the distribution, so the quad estimate tracks
        // the quantile of 4-averages; for the admission use-case they must
        // be the same order of magnitude and stable.
        let ratio = quad.estimate() / scalar.estimate();
        assert!(
            (0.5..2.0).contains(&ratio),
            "quad {} vs scalar {}",
            quad.estimate(),
            scalar.estimate()
        );
        assert_eq!(quad.observations(), stream.len() as u64 / 4);
    }

    #[test]
    fn admits_is_strictly_above_threshold() {
        let mut est = Dumique::new(0.5);
        for &d in &uniform_stream(10_000, 5) {
            est.update(d);
        }
        let theta = est.estimate();
        assert!(est.admits(theta * 1.01));
        assert!(!est.admits(theta * 0.99));
    }

    /// The update rule is multiplicative, so the estimator is scale
    /// equivariant: feeding `a·x` converges near `a·quantile(x)` across
    /// six decades of `a`.
    #[test]
    fn estimate_scales_with_the_stream() {
        for (seed, scale_exp) in [(7, -3), (8, -1), (9, 1), (10, 3)] {
            let scale = 10f32.powi(scale_exp);
            let mut plain = Dumique::new(0.8);
            let mut scaled = Dumique::new(0.8);
            for &d in &uniform_stream(120_000, seed) {
                plain.update(d);
                scaled.update(d * scale);
            }
            let ratio = scaled.estimate() / (plain.estimate() * scale);
            assert!(
                (0.8..1.25).contains(&ratio),
                "seed {seed} scale {scale}: ratio {ratio}"
            );
        }
    }

    /// One update moves the estimate toward the observation: up when
    /// the observation exceeds it, down otherwise.
    #[test]
    fn update_moves_toward_the_observation() {
        let mut rng = Xorshift64::new(11);
        let (mut ups, mut downs) = (0, 0);
        for case in 0..200 {
            let init = 1e-3 + rng.next_f64() * 0.999;
            let delta = rng.next_f32() * 2.0 + 1e-6;
            let mut est = Dumique::with_params(0.9, init, 1e-3);
            let before = est.estimate();
            est.update(delta);
            if f64::from(delta) > init {
                assert!(est.estimate() > before, "case {case}: {delta} above {init}");
                ups += 1;
            } else {
                assert!(est.estimate() < before, "case {case}: {delta} below {init}");
                downs += 1;
            }
        }
        assert!(
            ups > 20 && downs > 20,
            "one-sided draw: {ups} up, {downs} down"
        );
    }

    #[test]
    fn estimate_stays_positive() {
        let mut est = Dumique::new(0.9);
        for _ in 0..100_000 {
            est.update(0.0); // pathological all-zero stream
        }
        assert!(est.estimate() > 0.0);
    }

    #[test]
    fn exact_quantile_nearest_rank() {
        let e: ExactQuantile = (1..=10).map(|i| i as f32).collect();
        assert_eq!(e.quantile(0.5), 5.0);
        assert_eq!(e.quantile(0.95), 10.0);
        assert_eq!(e.len(), 10);
    }

    #[test]
    #[should_panic(expected = "quantile of empty set")]
    fn exact_quantile_empty_panics() {
        ExactQuantile::new().quantile(0.5);
    }

    #[test]
    #[should_panic(expected = "must be in (0,1)")]
    fn bad_q_rejected() {
        Dumique::new(1.0);
    }

    #[test]
    fn sparsity_quantile_mapping() {
        assert!((quantile_for_sparsity(2.0) - 0.5).abs() < 1e-9);
        assert!((quantile_for_sparsity(11.7) - (1.0 - 1.0 / 11.7)).abs() < 1e-9);
        // Strictly monotone: a higher sparsity factor prunes more.
        for i in 0..200 {
            let factor = 1.01 + 0.245 * f64::from(i);
            assert!(
                quantile_for_sparsity(factor) < quantile_for_sparsity(factor + 0.245),
                "not monotone at {factor}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "must exceed 1")]
    fn sparsity_factor_of_one_rejected() {
        quantile_for_sparsity(1.0);
    }

    /// Deterministic: same stream, same estimates.
    #[test]
    fn estimator_is_deterministic() {
        let stream = uniform_stream(10_000, 6);
        let run = || {
            let mut est = Dumique::new(0.8);
            for &d in &stream {
                est.update(d);
            }
            est.estimate()
        };
        assert_eq!(run(), run());
    }
}
