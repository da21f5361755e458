//! The dense (unpruned) SGD baseline trainer.

use procrustes_nn::{Scratch, Sequential, Sgd};
use procrustes_tensor::Tensor;

use crate::step::{evaluate_model, forward_backward};
use crate::{StepStats, Trainer};

/// Plain dense SGD training — the paper's “baseline (SGD)” curves and the
/// energy-model's dense reference point.
///
/// # Examples
///
/// ```
/// use procrustes_dropback::{DenseSgdTrainer, Trainer};
/// use procrustes_nn::arch;
/// use procrustes_nn::data::SyntheticImages;
/// use procrustes_prng::Xorshift64;
///
/// let mut rng = Xorshift64::new(0);
/// let mut trainer = DenseSgdTrainer::new(arch::tiny_vgg(10, &mut rng), 0.05, 0.9);
/// let (x, labels) = SyntheticImages::cifar_like(10, 1).batch(4, &mut rng);
/// let stats = trainer.train_step(&x, &labels);
/// assert_eq!(stats.tracked, 0); // dense training tracks nothing
/// ```
pub struct DenseSgdTrainer {
    model: Sequential,
    opt: Sgd,
    scratch: Scratch,
    steps: u64,
}

impl DenseSgdTrainer {
    /// Wraps `model` with SGD at learning rate `lr` and `momentum`.
    pub fn new(model: Sequential, lr: f32, momentum: f32) -> Self {
        Self {
            model,
            opt: Sgd::new(lr).with_momentum(momentum),
            scratch: Scratch::new(),
            steps: 0,
        }
    }
}

impl Trainer for DenseSgdTrainer {
    fn train_step(&mut self, x: &Tensor, labels: &[usize]) -> StepStats {
        let loss = forward_backward(&mut self.model, x, labels, &mut self.scratch);
        self.opt.step(&mut self.model);
        self.steps += 1;
        StepStats {
            loss,
            ..StepStats::default()
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
    use procrustes_nn::arch;
    use procrustes_nn::data::SyntheticImages;
    use procrustes_prng::Xorshift64;

    #[test]
    fn loss_decreases_over_steps() {
        let data = SyntheticImages::new(4, 16, 16, 0.2, 3);
        let mut rng = Xorshift64::new(1);
        let mut t = DenseSgdTrainer::new(arch::tiny_resnet(4, &mut rng), 0.05, 0.9);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..30 {
            let (x, labels) = data.batch(8, &mut rng);
            let s = t.train_step(&x, &labels);
            first.get_or_insert(s.loss);
            last = s.loss;
        }
        assert!(last < first.unwrap(), "{:?} -> {last}", first);
        assert_eq!(t.steps(), 30);
    }
}
