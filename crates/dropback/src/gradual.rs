//! Gradual magnitude-based sparse training — the Eager-Pruning-style
//! comparator (§II-E / §VII-A of the paper).
//!
//! The gradual family (lottery ticket, Eager Pruning) starts dense and
//! removes the lowest-magnitude weights a little at a time. The paper
//! contrasts it with Procrustes: gradual pruning reaches lower sparsity,
//! keeps the *peak* memory footprint dense, and needs two storage
//! formats. This implementation uses the same DUMIQUE estimator instead
//! of the sort that Eager Pruning's published design omits from its
//! hardware accounting — demonstrating the paper's §VI-G claim that
//! quantile-based selection generalizes across sparse training schemes.

use procrustes_nn::{ComputeBackend, Layer, Scratch, Sequential};
use procrustes_quantile::Dumique;
use procrustes_tensor::Tensor;

use crate::step::{evaluate_model, for_each_prunable, forward_backward, sgd_auxiliary};
use crate::{StepStats, Trainer};

/// Configuration for [`GradualMagnitudeTrainer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradualConfig {
    /// Final target pruning factor (e.g. 2.4× as Eager Pruning reaches).
    pub final_factor: f64,
    /// Steps between pruning events.
    pub prune_every: u64,
    /// Fraction of *remaining* weights removed per pruning event.
    pub prune_fraction: f64,
    /// Learning rate.
    pub lr: f32,
    /// Momentum.
    pub momentum: f32,
    /// Which kernels the model's conv/fc layers execute on (see
    /// [`ComputeBackend`]); results are identical under every backend.
    pub compute: ComputeBackend,
}

impl Default for GradualConfig {
    fn default() -> Self {
        Self {
            final_factor: 2.5,
            prune_every: 20,
            prune_fraction: 0.08,
            lr: 0.05,
            momentum: 0.9,
            compute: ComputeBackend::auto(),
        }
    }
}

/// Gradual magnitude pruning over a dense-trained model.
///
/// Weights start dense; every `prune_every` steps the lowest-magnitude
/// survivors are zeroed (masked permanently) until the target factor is
/// reached. The cut threshold comes from a DUMIQUE estimate over the
/// surviving magnitudes — one streaming pass, no sort.
///
/// # Examples
///
/// ```
/// use procrustes_dropback::{GradualConfig, GradualMagnitudeTrainer, Trainer};
/// use procrustes_nn::{arch, data::SyntheticImages};
/// use procrustes_prng::Xorshift64;
///
/// let mut rng = Xorshift64::new(0);
/// let mut t = GradualMagnitudeTrainer::new(
///     arch::tiny_vgg(10, &mut rng),
///     GradualConfig::default(),
/// );
/// let (x, labels) = SyntheticImages::cifar_like(10, 1).batch(4, &mut rng);
/// let stats = t.train_step(&x, &labels);
/// assert!(stats.loss > 0.0);
/// ```
pub struct GradualMagnitudeTrainer {
    model: Sequential,
    config: GradualConfig,
    /// Permanent pruning mask (true = weight is dead).
    pruned: Vec<bool>,
    velocity: Vec<f32>,
    scratch: Scratch,
    n: usize,
    steps: u64,
}

impl GradualMagnitudeTrainer {
    /// Wraps a (dense-initialized) model.
    ///
    /// # Panics
    ///
    /// Panics if the model has no prunable weights or the config is
    /// degenerate.
    pub fn new(mut model: Sequential, config: GradualConfig) -> Self {
        assert!(config.final_factor > 1.0, "final factor must exceed 1");
        assert!(
            config.prune_fraction > 0.0 && config.prune_fraction < 1.0,
            "prune fraction must be in (0,1)"
        );
        assert!(config.prune_every > 0, "prune_every must be positive");
        let n = for_each_prunable(&mut model, |_, _| {});
        assert!(n > 0, "model has no prunable weights");
        model.set_compute_backend(config.compute);
        Self {
            model,
            config,
            pruned: vec![false; n],
            velocity: vec![0.0; n],
            scratch: Scratch::new(),
            n,
            steps: 0,
        }
    }

    /// Currently surviving (unpruned) weight count.
    pub fn survivors(&self) -> usize {
        self.pruned.iter().filter(|&&d| !d).count()
    }

    /// Current pruning factor (total / survivors).
    fn current_factor(&self) -> f64 {
        self.n as f64 / self.survivors() as f64
    }

    /// True once the target factor is reached.
    fn target_reached(&self) -> bool {
        self.current_factor() >= self.config.final_factor
    }

    /// Prunes the lowest-magnitude survivors using a streaming quantile
    /// estimate of the cut point (no sort, §VI-G generality).
    fn prune_event(&mut self) {
        if self.target_reached() {
            return;
        }
        // Estimate the prune_fraction-quantile of surviving magnitudes.
        // Between pruning events the hardware has `prune_every` training
        // iterations' worth of weight traffic to observe, so the model
        // makes several streaming passes with a faster adjustment rate —
        // still one comparison per observation, never a sort.
        let mut est = Dumique::with_params(self.config.prune_fraction, 1e-6, 0.02);
        let pruned = &self.pruned;
        for _ in 0..8 {
            for_each_prunable(&mut self.model, |offset, p| {
                for (j, w) in p.values.data().iter().enumerate() {
                    if !pruned[offset + j] {
                        est.update(w.abs().max(1e-30));
                    }
                }
            });
        }
        let cut = est.estimate();
        // Kill survivors below the cut (bounded so one event cannot
        // overshoot the target).
        let max_kills = {
            let survivors = self.survivors() as f64;
            let target_survivors = self.n as f64 / self.config.final_factor;
            ((survivors - target_survivors)
                .max(0.0)
                .min(survivors * self.config.prune_fraction * 1.5)) as usize
        };
        let mut kills = 0usize;
        let pruned = &mut self.pruned;
        for_each_prunable(&mut self.model, |offset, mut p| {
            for (j, w) in p.values.data_mut().iter_mut().enumerate() {
                let gi = offset + j;
                if !pruned[gi] && kills < max_kills && w.abs() < cut {
                    pruned[gi] = true;
                    *w = 0.0;
                    kills += 1;
                }
            }
        });
    }
}

impl Trainer for GradualMagnitudeTrainer {
    fn train_step(&mut self, x: &Tensor, labels: &[usize]) -> StepStats {
        let loss = forward_backward(&mut self.model, x, labels, &mut self.scratch);

        // Masked momentum-SGD update.
        let lr = self.config.lr;
        let momentum = self.config.momentum;
        let (pruned, velocity) = (&self.pruned, &mut self.velocity);
        for_each_prunable(&mut self.model, |offset, mut p| {
            let grads = p.grads.data_mut().iter_mut();
            for (j, (w, g)) in p.values.data_mut().iter_mut().zip(grads).enumerate() {
                let gi = offset + j;
                if pruned[gi] {
                    *w = 0.0;
                } else {
                    velocity[gi] = momentum * velocity[gi] + *g;
                    *w -= lr * velocity[gi];
                }
                *g = 0.0;
            }
        });
        sgd_auxiliary(&mut self.model, lr);

        self.steps += 1;
        // `u64::is_multiple_of` would read better but needs Rust 1.87;
        // the workspace MSRV is 1.82.
        if self.steps % self.config.prune_every == 0 {
            self.prune_event();
        }
        StepStats {
            loss,
            tracked: self.survivors(),
            admitted: 0,
            evicted: 0,
            threshold: 0.0,
            weight_sparsity: 1.0 - self.survivors() as f64 / self.n as f64,
        }
    }

    fn evaluate(&mut self, x: &Tensor, labels: &[usize]) -> (f32, f64) {
        evaluate_model(&mut self.model, x, labels, &mut self.scratch)
    }

    fn steps(&self) -> u64 {
        self.steps
    }

    fn model_mut(&mut self) -> &mut Sequential {
        &mut self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::micro_model;
    use procrustes_nn::data::SyntheticImages;
    use procrustes_prng::Xorshift64;

    fn setup() -> (GradualMagnitudeTrainer, SyntheticImages, Xorshift64) {
        let t = GradualMagnitudeTrainer::new(
            micro_model(4, 3),
            GradualConfig {
                final_factor: 2.0,
                prune_every: 5,
                prune_fraction: 0.15,
                ..GradualConfig::default()
            },
        );
        (
            t,
            SyntheticImages::new(4, 16, 16, 0.2, 4),
            Xorshift64::new(6),
        )
    }

    #[test]
    fn sparsity_increases_gradually_to_target() {
        let (mut t, data, mut rng) = setup();
        let mut sparsities = Vec::new();
        for _ in 0..60 {
            let (x, labels) = data.batch(4, &mut rng);
            sparsities.push(t.train_step(&x, &labels).weight_sparsity);
        }
        // Monotone non-decreasing, and reaches roughly the 2x target.
        assert!(sparsities.windows(2).all(|w| w[1] >= w[0] - 1e-12));
        assert!(
            *sparsities.last().unwrap() > 0.35,
            "{:?}",
            sparsities.last()
        );
        assert!(
            t.current_factor() <= 2.3,
            "overshot: {}",
            t.current_factor()
        );
    }

    #[test]
    fn pruned_weights_stay_zero() {
        let (mut t, data, mut rng) = setup();
        for _ in 0..25 {
            let (x, labels) = data.batch(4, &mut rng);
            t.train_step(&x, &labels);
        }
        let pruned = t.pruned.clone();
        for_each_prunable(t.model_mut(), |offset, p| {
            for (j, w) in p.values.data().iter().enumerate() {
                if pruned[offset + j] {
                    assert_eq!(*w, 0.0, "pruned weight {j} revived");
                }
            }
        });
    }

    #[test]
    fn still_learns_while_pruning() {
        let (mut t, data, mut rng) = setup();
        for _ in 0..60 {
            let (x, labels) = data.batch(16, &mut rng);
            t.train_step(&x, &labels);
        }
        let (vx, vl) = data.fixed_set(64, 5);
        let (_, acc) = t.evaluate(&vx, &vl);
        assert!(acc > 0.5, "accuracy {acc}");
    }

    #[test]
    #[should_panic(expected = "final factor must exceed 1")]
    fn bad_factor_rejected() {
        GradualMagnitudeTrainer::new(
            micro_model(4, 3),
            GradualConfig {
                final_factor: 1.0,
                ..GradualConfig::default()
            },
        );
    }
}
