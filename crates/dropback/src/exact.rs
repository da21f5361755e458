//! Original Dropback (Alg 2 of the paper): exact sort-based selection.
//!
//! Every iteration, the union of (a) tracked accumulated gradients and
//! (b) this step's gradients of pruned weights is *sorted*, and only the
//! top `k` survive. This is the algorithm Procrustes starts from — high
//! sparsity, but the global sort and the non-zero pruned weights make it
//! hardware-hostile (§II-E). With `lambda < 1` this becomes Alg 3
//! (Dropback + initial weight decay), still with exact selection — the
//! configuration of the paper's Fig 6/Fig 7 baselines.

use procrustes_nn::{ComputeBackend, Layer, Scratch, Sequential};
use procrustes_tensor::{kaiming_std, xavier_std, Tensor};

use crate::step::{
    evaluate_model, for_each_prunable, forward_backward, materialize, sgd_auxiliary,
};
use crate::{StepStats, Trainer, WeightRecompute};

/// Configuration for [`DropbackExact`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DropbackConfig {
    /// Target pruning factor (e.g. 10.0 keeps 10 % of weights).
    pub sparsity_factor: f64,
    /// Learning rate.
    pub lr: f32,
    /// Initial-weight decay per iteration; 1.0 disables decay (original
    /// Dropback), 0.9 is the paper's Alg 3 value.
    pub lambda: f32,
    /// Auxiliary-parameter (bias/BN) learning rate; usually `lr`.
    pub aux_lr: f32,
    /// Which kernels the model's conv/fc layers execute on (see
    /// [`ComputeBackend`]); results are identical under every backend.
    pub compute: ComputeBackend,
}

impl Default for DropbackConfig {
    fn default() -> Self {
        Self {
            sparsity_factor: 10.0,
            lr: 0.05,
            lambda: 1.0,
            aux_lr: 0.05,
            compute: ComputeBackend::auto(),
        }
    }
}

/// The exact (sorting) Dropback trainer.
///
/// # Examples
///
/// ```
/// use procrustes_dropback::{DropbackConfig, DropbackExact, Trainer};
/// use procrustes_nn::{arch, data::SyntheticImages};
/// use procrustes_prng::Xorshift64;
///
/// let mut rng = Xorshift64::new(0);
/// let mut t = DropbackExact::new(
///     arch::tiny_vgg(10, &mut rng),
///     DropbackConfig { sparsity_factor: 5.0, ..DropbackConfig::default() },
///     7,
/// );
/// let (x, labels) = SyntheticImages::cifar_like(10, 2).batch(4, &mut rng);
/// let stats = t.train_step(&x, &labels);
/// // Exactly k = n/5 weights are tracked after every step.
/// assert_eq!(stats.tracked, t.budget());
/// ```
pub struct DropbackExact {
    model: Sequential,
    config: DropbackConfig,
    wr: WeightRecompute,
    /// Accumulated gradient per global prunable-weight index.
    acc: Vec<f32>,
    tracked: Vec<bool>,
    budget: usize,
    steps: u64,
    scratch: Scratch,
    // Per-step selection buffers, reused across steps.
    cand: Vec<f32>,
    keys: Vec<(f32, u32)>,
    keep: Vec<bool>,
}

impl DropbackExact {
    /// Wraps `model`; overwrites its prunable weights with WR-generated
    /// initial values so pruned weights are exactly recomputable.
    ///
    /// # Panics
    ///
    /// Panics if the model has no prunable weights or
    /// `config.sparsity_factor <= 1`.
    pub fn new(mut model: Sequential, config: DropbackConfig, seed: u32) -> Self {
        assert!(
            config.sparsity_factor > 1.0,
            "sparsity factor must exceed 1"
        );
        let (wr, n) = init_from_wr(&mut model, seed, config.lambda);
        model.set_compute_backend(config.compute);
        let budget = (n as f64 / config.sparsity_factor).ceil() as usize;
        Self {
            model,
            config,
            wr,
            acc: vec![0.0; n],
            tracked: vec![false; n],
            budget,
            steps: 0,
            scratch: Scratch::new(),
            cand: Vec::new(),
            keys: Vec::new(),
            keep: Vec::new(),
        }
    }

    /// The weight budget `k`.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The WR unit backing this trainer.
    pub fn wr(&self) -> &WeightRecompute {
        &self.wr
    }
}

impl Trainer for DropbackExact {
    fn train_step(&mut self, x: &Tensor, labels: &[usize]) -> StepStats {
        let loss = forward_backward(&mut self.model, x, labels, &mut self.scratch);

        // Gather signed candidate values: tracked weights contribute their
        // updated accumulation `acc − lr·g`, pruned weights contribute
        // this step's update `−lr·g` (Alg 2's T ∪ P).
        let lr = self.config.lr;
        let n = self.acc.len();
        let mut cand = std::mem::take(&mut self.cand);
        cand.clear();
        cand.resize(n, 0.0);
        let (acc, tracked) = (&self.acc, &self.tracked);
        for_each_prunable(&mut self.model, |offset, p| {
            for (j, g) in p.grads.data_mut().iter_mut().enumerate() {
                let gi = offset + j;
                cand[gi] = if tracked[gi] {
                    acc[gi] - lr * *g
                } else {
                    -lr * *g
                };
                *g = 0.0;
            }
        });
        sgd_auxiliary(&mut self.model, self.config.aux_lr);

        // Select the top-k candidates by magnitude (an O(n) partial
        // selection — the same outcome as Alg 2's full sort).
        let k = self.budget.min(n);
        let keys = &mut self.keys;
        keys.clear();
        keys.extend(cand.iter().enumerate().map(|(i, v)| (v.abs(), i as u32)));
        keys.select_nth_unstable_by(k - 1, |a, b| b.0.total_cmp(&a.0));
        let keep = &mut self.keep;
        keep.clear();
        keep.resize(n, false);
        for &(_, gi) in &keys[..k] {
            keep[gi as usize] = true;
        }

        let mut admitted = 0;
        let mut evicted = 0;
        for gi in 0..n {
            match (self.tracked[gi], keep[gi]) {
                (false, true) => admitted += 1,
                (true, false) => evicted += 1,
                _ => {}
            }
            self.acc[gi] = if keep[gi] { cand[gi] } else { 0.0 };
        }
        // The new membership becomes `tracked`; the old buffer is reused
        // as next step's `keep`.
        std::mem::swap(&mut self.tracked, &mut self.keep);
        self.cand = cand;
        self.steps += 1;
        // w_i = λᵗ·w⁰_i + (tracked_i ? acc_i : 0)
        let (acc, tracked) = (&self.acc, &self.tracked);
        let weight_sparsity = materialize(&mut self.model, &self.wr, self.steps, |gi| {
            if tracked[gi] {
                acc[gi]
            } else {
                0.0
            }
        });
        StepStats {
            loss,
            tracked: k,
            admitted,
            evicted,
            threshold: 0.0,
            weight_sparsity,
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

/// Replaces prunable weights with WR-generated initial values; returns the
/// WR unit and the total prunable count.
pub(crate) fn init_from_wr(
    model: &mut Sequential,
    seed: u32,
    lambda: f32,
) -> (WeightRecompute, usize) {
    let mut layers: Vec<(usize, f32)> = Vec::new();
    for_each_prunable(model, |_, p| {
        let s = p.values.shape();
        let scale = match s.rank() {
            4 => kaiming_std(s.dim(1) * s.dim(2) * s.dim(3)),
            2 => xavier_std(s.dim(1), s.dim(0)),
            r => panic!("unexpected prunable tensor rank {r}"),
        };
        layers.push((p.values.len(), scale));
    });
    assert!(!layers.is_empty(), "model has no prunable weights");
    let wr = WeightRecompute::new(seed, &layers, lambda);
    let n = for_each_prunable(model, |offset, mut p| {
        for (j, w) in p.values.data_mut().iter_mut().enumerate() {
            *w = wr.initial_value((offset + j) as u64);
        }
    });
    (wr, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::micro_model;
    use crate::Trainer;
    use procrustes_nn::{arch, data::SyntheticImages};
    use procrustes_prng::Xorshift64;

    fn setup(lambda: f32, factor: f64) -> (DropbackExact, SyntheticImages, Xorshift64) {
        let rng = Xorshift64::new(5);
        let t = DropbackExact::new(
            micro_model(4, 5),
            DropbackConfig {
                sparsity_factor: factor,
                lr: 0.05,
                lambda,
                aux_lr: 0.05,
                ..DropbackConfig::default()
            },
            11,
        );
        (t, SyntheticImages::new(4, 16, 16, 0.2, 9), rng)
    }

    #[test]
    fn tracked_count_is_pinned_at_budget() {
        let (mut t, data, mut rng) = setup(1.0, 10.0);
        for _ in 0..3 {
            let (x, labels) = data.batch(4, &mut rng);
            let s = t.train_step(&x, &labels);
            assert_eq!(s.tracked, t.budget());
        }
    }

    #[test]
    fn no_decay_means_no_computation_sparsity() {
        let (mut t, data, mut rng) = setup(1.0, 10.0);
        let (x, labels) = data.batch(4, &mut rng);
        let s = t.train_step(&x, &labels);
        // Pruned weights are reset to non-zero initial values: Dropback's
        // hardware problem (a).
        assert!(s.weight_sparsity < 0.01, "sparsity {}", s.weight_sparsity);
    }

    #[test]
    fn decay_creates_computation_sparsity() {
        let (mut t, data, mut rng) = setup(0.9, 10.0);
        let zero_iter = t.wr().zero_iteration().unwrap();
        let mut sparsity = 0.0;
        // Fast-forward past the decay horizon with tiny batches.
        for _ in 0..=zero_iter {
            let (x, labels) = data.batch(1, &mut rng);
            sparsity = t.train_step(&x, &labels).weight_sparsity;
        }
        // Now ~90% of weights must be exactly zero.
        assert!(sparsity > 0.85, "sparsity {sparsity}");
    }

    #[test]
    fn pruned_weights_equal_wr_initial_values() {
        let (mut t, data, mut rng) = setup(1.0, 5.0);
        let (x, labels) = data.batch(4, &mut rng);
        t.train_step(&x, &labels);
        // Every pruned weight must read exactly its WR initial value.
        let wr = t.wr().clone();
        let tracked = t.tracked.clone();
        let mut checked = 0;
        for_each_prunable(t.model_mut(), |offset, p| {
            for (j, w) in p.values.data().iter().enumerate() {
                let gi = offset + j;
                if !tracked[gi] {
                    assert_eq!(*w, wr.initial_value(gi as u64), "weight {gi}");
                    checked += 1;
                }
            }
        });
        assert!(checked > 0);
    }

    #[test]
    fn learns_above_chance_with_sparsity() {
        let (mut t, data, mut rng) = setup(0.9, 5.0);
        for _ in 0..60 {
            let (x, labels) = data.batch(16, &mut rng);
            t.train_step(&x, &labels);
        }
        let (vx, vl) = data.fixed_set(64, 321);
        let (_, acc) = t.evaluate(&vx, &vl);
        assert!(acc > 0.5, "accuracy {acc}");
    }

    #[test]
    #[should_panic(expected = "sparsity factor must exceed 1")]
    fn bad_factor_rejected() {
        let mut rng = Xorshift64::new(5);
        DropbackExact::new(
            arch::tiny_vgg(4, &mut rng),
            DropbackConfig {
                sparsity_factor: 1.0,
                ..DropbackConfig::default()
            },
            1,
        );
    }
}
