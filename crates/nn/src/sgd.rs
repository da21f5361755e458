//! Stochastic gradient descent — the dense baseline optimizer
//! (the paper's “baseline (SGD)” curves).

use crate::Layer;

/// SGD with optional momentum.
///
/// # Examples
///
/// ```
/// use procrustes_nn::{Layer, Linear, Sgd};
/// use procrustes_prng::Xorshift64;
/// use procrustes_tensor::Tensor;
///
/// let mut fc = Linear::new(2, 1, false, &mut Xorshift64::new(0));
/// let x = Tensor::ones(&[1, 2]);
/// let y = fc.forward(&x, true);
/// fc.backward(&Tensor::ones(y.shape().dims()));
/// let before = fc.weight().clone();
/// Sgd::new(0.1).step(&mut fc);
/// assert_ne!(fc.weight().data(), before.data());
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    /// Plain SGD with learning rate `lr`.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "Sgd: learning rate must be positive, got {lr}");
        Self {
            lr,
            momentum: 0.0,
            velocity: Vec::new(),
        }
    }

    /// Adds classical momentum.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= momentum < 1`.
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0,1)");
        self.momentum = momentum;
        self
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Applies one update step to every parameter of `model` and zeroes
    /// the gradients.
    ///
    /// Velocity slots are keyed by visitation order, which [`Layer`]
    /// guarantees to be deterministic.
    pub fn step(&mut self, model: &mut dyn Layer) {
        let lr = self.lr;
        let momentum = self.momentum;
        let velocity = &mut self.velocity;
        let mut slot = 0usize;
        model.visit_params(&mut |mut p| {
            if velocity.len() <= slot {
                velocity.push(vec![0.0; p.values.len()]);
            }
            let vel = &mut velocity[slot];
            assert_eq!(
                vel.len(),
                p.values.len(),
                "Sgd: model structure changed between steps"
            );
            for ((w, g), v) in p
                .values
                .data_mut()
                .iter_mut()
                .zip(p.grads.data_mut().iter_mut())
                .zip(vel.iter_mut())
            {
                *v = momentum * *v + *g;
                *w -= lr * *v;
                *g = 0.0;
            }
            slot += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Linear, SoftmaxCrossEntropy};
    use procrustes_prng::Xorshift64;
    use procrustes_tensor::Tensor;

    #[test]
    fn drives_loss_down_on_separable_problem() {
        let mut rng = Xorshift64::new(3);
        let mut fc = Linear::new(2, 2, true, &mut rng);
        let mut opt = Sgd::new(0.5).with_momentum(0.9);
        // Class 0: x = (1, 0); class 1: x = (0, 1).
        let x = Tensor::from_vec(&[2, 2], vec![1.0, 0.0, 0.0, 1.0]);
        let labels = [0usize, 1];
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..50 {
            let logits = fc.forward(&x, true);
            let (loss, dlogits) = SoftmaxCrossEntropy.loss_and_grad(&logits, &labels);
            fc.backward(&dlogits);
            opt.step(&mut fc);
            first.get_or_insert(loss);
            last = loss;
        }
        assert!(last < first.unwrap() * 0.2, "{} -> {last}", first.unwrap());
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut rng = Xorshift64::new(4);
        let mut fc = Linear::new(2, 2, false, &mut rng);
        let y = fc.forward(&Tensor::ones(&[1, 2]), true);
        fc.backward(&Tensor::ones(y.shape().dims()));
        Sgd::new(0.1).step(&mut fc);
        fc.visit_params(&mut |p| assert_eq!(p.grads.sum(), 0.0));
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn zero_lr_rejected() {
        Sgd::new(0.0);
    }
}
