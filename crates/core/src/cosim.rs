//! Functional co-simulation: the Procrustes trainer stepping on real data
//! while the accelerator's bookkeeping units are tracked per iteration.
//!
//! This ties the *algorithm* half of the paper to the *hardware* half: at
//! every training step the trainer's conv masks are read through
//! [`masks::from_model`] into one [`MaskSummary`] each, the simulator's
//! half-tile pairing ([`working_set_overheads`]) runs on them, and the
//! QE/WR activity is recorded — the data behind the imbalance histograms
//! (Figs 5/13) when they are driven by genuinely-trained masks rather than
//! synthetic ones.

use procrustes_dropback::{ProcrustesConfig, ProcrustesTrainer, Trainer};
use procrustes_nn::Sequential;
use procrustes_sim::{working_set_overheads, MaskSummary};
use procrustes_tensor::Tensor;

use crate::masks;

/// Per-step co-simulation record.
#[derive(Debug, Clone, PartialEq)]
pub struct CoSimRecord {
    /// Training step index (1-based after the step executes).
    pub step: u64,
    /// Minibatch loss.
    pub loss: f32,
    /// Materialized weight sparsity (exact zeros).
    pub weight_sparsity: f64,
    /// Admission threshold ϑ.
    pub threshold: f32,
    /// Weights admitted this step (WR-unit invocations for re-seeding).
    pub admitted: usize,
    /// Weights evicted this step.
    pub evicted: usize,
    /// Worst working-set imbalance without balancing, across all conv
    /// layers (Fig 5's tail).
    pub worst_unbalanced: f64,
    /// Worst working-set imbalance after half-tile balancing (Fig 13).
    pub worst_balanced: f64,
}

/// Co-simulates Procrustes training with accelerator bookkeeping.
///
/// # Examples
///
/// ```
/// use procrustes_core::CoSim;
/// use procrustes_dropback::ProcrustesConfig;
/// use procrustes_nn::{arch, data::SyntheticImages};
/// use procrustes_prng::Xorshift64;
///
/// let mut rng = Xorshift64::new(0);
/// let model = arch::tiny_vgg(10, &mut rng);
/// let mut cosim = CoSim::new(model, ProcrustesConfig::default(), 1, 16);
/// let data = SyntheticImages::cifar_like(10, 3);
/// let (x, labels) = data.batch(4, &mut rng);
/// let record = cosim.step(&x, &labels);
/// assert!(record.loss > 0.0);
/// ```
pub struct CoSim {
    trainer: ProcrustesTrainer,
    rows: usize,
}

impl CoSim {
    /// Creates a co-simulation of `model` trained with `config` on a PE
    /// array with `rows` rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0`.
    pub fn new(model: Sequential, config: ProcrustesConfig, seed: u32, rows: usize) -> Self {
        assert!(rows > 0, "CoSim: need at least one row");
        Self {
            trainer: ProcrustesTrainer::new(model, config, seed),
            rows,
        }
    }

    /// The wrapped trainer.
    pub fn trainer(&self) -> &ProcrustesTrainer {
        &self.trainer
    }

    /// Mutable access to the wrapped trainer (e.g. for evaluation).
    pub fn trainer_mut(&mut self) -> &mut ProcrustesTrainer {
        &mut self.trainer
    }

    /// Runs one training step and records the accelerator bookkeeping.
    pub fn step(&mut self, x: &Tensor, labels: &[usize]) -> CoSimRecord {
        let stats = self.trainer.train_step(x, labels);
        let mut worst_unbalanced = 0.0f64;
        let mut worst_balanced = 0.0f64;
        for summary in conv_masks(self.trainer.model_mut()) {
            for (unbal, bal) in working_set_overheads(&summary, self.rows) {
                worst_unbalanced = worst_unbalanced.max(unbal);
                worst_balanced = worst_balanced.max(bal);
            }
        }
        CoSimRecord {
            step: self.trainer.steps(),
            loss: stats.loss,
            weight_sparsity: stats.weight_sparsity,
            threshold: stats.threshold,
            admitted: stats.admitted,
            evicted: stats.evicted,
            worst_unbalanced,
            worst_balanced,
        }
    }
}

/// The summaries of `model`'s conv masks, in layer order. An all-zero
/// mask's working sets read `(0, 0)`, so it never raises a record's
/// maxima.
fn conv_masks(model: &mut Sequential) -> Vec<MaskSummary> {
    masks::from_model(model, 1, 1.0)
        .into_iter()
        // `from_model` gives a conv layer an output plane of at least 4×4
        // and an fc layer a 1×1 one.
        .filter(|(task, _)| task.p * task.q > 1)
        .map(|(task, sp)| MaskSummary::new(&task, &sp))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use procrustes_nn::data::SyntheticImages;
    use procrustes_nn::{BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d, ReLU};
    use procrustes_prng::Xorshift64;

    fn micro_model(seed: u64) -> Sequential {
        let mut rng = Xorshift64::new(seed);
        let mut m = Sequential::new();
        m.push(Conv2d::new(3, 8, 3, 1, 1, false, &mut rng));
        m.push(BatchNorm2d::new(8));
        m.push(ReLU::new());
        m.push(MaxPool2d::new());
        m.push(Conv2d::new(8, 16, 3, 1, 1, false, &mut rng));
        m.push(ReLU::new());
        m.push(MaxPool2d::new());
        m.push(Flatten::new());
        m.push(Linear::new(16 * 4 * 4, 4, true, &mut rng));
        m
    }

    #[test]
    fn records_are_complete_and_balancing_never_hurts() {
        let data = SyntheticImages::new(4, 16, 16, 0.2, 6);
        let mut rng = Xorshift64::new(1);
        let mut cosim = CoSim::new(micro_model(2), ProcrustesConfig::default(), 3, 4);
        for step in 1..=5u64 {
            let (x, labels) = data.batch(4, &mut rng);
            let r = cosim.step(&x, &labels);
            assert_eq!(r.step, step);
            assert!(r.loss.is_finite());
            assert!(r.worst_balanced <= r.worst_unbalanced + 1e-9);
        }
    }

    #[test]
    fn sparsity_grows_as_decay_progresses() {
        let data = SyntheticImages::new(4, 16, 16, 0.2, 6);
        let mut rng = Xorshift64::new(2);
        // A fast decay (λ = 0.5) reaches the flush-to-zero horizon within
        // ~40 steps, keeping the test quick.
        let config = ProcrustesConfig {
            lambda: 0.5,
            ..ProcrustesConfig::default()
        };
        let mut cosim = CoSim::new(micro_model(3), config, 5, 4);
        let horizon = cosim.trainer().wr().zero_iteration().unwrap();
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..=horizon {
            let (x, labels) = data.batch(2, &mut rng);
            let r = cosim.step(&x, &labels);
            first.get_or_insert(r.weight_sparsity);
            last = r.weight_sparsity;
        }
        assert!(
            last > first.unwrap() && last > 0.8,
            "sparsity should grow to ~90%: {:?} -> {last}",
            first
        );
    }

    #[test]
    fn conv_masks_cover_every_conv_layer() {
        let mut cosim = CoSim::new(micro_model(4), ProcrustesConfig::default(), 7, 4);
        let masks = conv_masks(cosim.trainer_mut().model_mut());
        assert_eq!(masks.len(), 2); // two conv layers in the micro model
    }

    #[test]
    #[should_panic(expected = "need at least one row")]
    fn cosim_rejects_zero_rows_at_construction() {
        CoSim::new(micro_model(5), ProcrustesConfig::default(), 7, 0);
    }
}
