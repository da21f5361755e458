//! Sparse training algorithms: Dropback and its hardware-friendly
//! Procrustes adaptation.
//!
//! The paper (§II-E, §III) builds on Dropback \[Golub et al., SysML 2019\]:
//! only the `k` weights with the largest *accumulated gradients* are ever
//! stored; every other weight reads its initialization-time value, which a
//! per-PE weight-recomputation (WR) unit regenerates on demand. Procrustes
//! adapts Dropback in two ways so it can be accelerated:
//!
//! 1. **Initial weight decay** (Alg 3): the recomputed initial values are
//!    decayed by λ = 0.9 every iteration, reaching zero by iteration
//!    ~1000 — after which pruned weights are *exactly zero* and their MACs
//!    can be skipped (computation sparsity).
//! 2. **Quantile-estimated thresholding** (§III-B): the global sort over
//!    millions of gradients is replaced by a streaming DUMIQUE estimate of
//!    the admission threshold ϑ; each produced gradient costs one
//!    comparison.
//!
//! This crate implements four trainers over `procrustes-nn` models:
//!
//! * [`DenseSgdTrainer`] — the unpruned baseline (“baseline (SGD)”);
//! * [`DropbackExact`] — original Dropback, Alg 2: exact sort, no decay;
//! * [`ProcrustesTrainer`] — Alg 3 + quantile estimation + WR unit;
//! * [`GradualMagnitudeTrainer`] — the gradual magnitude-pruning
//!   comparator (Eager-Pruning style), thresholded by the same quantile
//!   estimator.
//!
//! plus the functional models of the hardware blocks:
//! [`WeightRecompute`] (the WR unit) and [`TrackedSet`] (the accumulated-
//! gradient store with its eviction policies).
//!
//! # Examples
//!
//! ```
//! use procrustes_dropback::{ProcrustesConfig, ProcrustesTrainer, Trainer};
//! use procrustes_nn::{arch, data::SyntheticImages};
//! use procrustes_prng::Xorshift64;
//!
//! let mut rng = Xorshift64::new(0);
//! let model = arch::tiny_vgg(10, &mut rng);
//! let mut trainer = ProcrustesTrainer::new(model, ProcrustesConfig {
//!     sparsity_factor: 10.0,
//!     lr: 0.05,
//!     ..ProcrustesConfig::default()
//! }, 42);
//! let data = SyntheticImages::cifar_like(10, 1);
//! let (x, labels) = data.batch(8, &mut rng);
//! let stats = trainer.train_step(&x, &labels);
//! assert!(stats.loss > 0.0);
//! // Only ~10% of weights are ever tracked: the budget is ⌈n / 10⌉.
//! assert!(stats.tracked <= trainer.budget());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dense;
mod exact;
mod gradual;
mod procrustes;
mod step;
#[cfg(test)]
mod testutil;
mod tracked;
mod wr;

pub use dense::DenseSgdTrainer;
pub use exact::{DropbackConfig, DropbackExact};
pub use gradual::{GradualConfig, GradualMagnitudeTrainer};
pub use procrustes::{ProcrustesConfig, ProcrustesTrainer};
// Every sparse trainer config carries a `compute` knob selecting the
// execution backend of the model's conv/fc kernels; re-exported so
// callers need not depend on `procrustes-nn` directly.
pub use procrustes_nn::ComputeBackend;
pub use tracked::{EvictionPolicy, TrackedSet};
pub use wr::WeightRecompute;

use procrustes_nn::Sequential;
use procrustes_tensor::Tensor;

/// Per-step statistics reported by every trainer.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepStats {
    /// Mean minibatch loss.
    pub loss: f32,
    /// Number of tracked (stored) weights after the step.
    pub tracked: usize,
    /// Weights admitted to the tracked set this step.
    pub admitted: usize,
    /// Weights evicted from the tracked set this step.
    pub evicted: usize,
    /// The admission threshold ϑ used this step (0 for dense/exact).
    pub threshold: f32,
    /// Fraction of materialized weights that are exactly zero — the
    /// computation sparsity the accelerator converts into savings.
    pub weight_sparsity: f64,
}

/// The common trainer interface.
///
/// All four training algorithms expose one step of SGD-style training on
/// a labelled minibatch plus evaluation on held-out data, so experiments
/// can swap them freely (paper Figs 6, 7, 15, 16 compare exactly these).
pub trait Trainer {
    /// Runs one training step and returns its statistics.
    fn train_step(&mut self, x: &Tensor, labels: &[usize]) -> StepStats;

    /// Evaluates `(mean loss, top-1 accuracy)` without updating anything.
    fn evaluate(&mut self, x: &Tensor, labels: &[usize]) -> (f32, f64);

    /// The number of training steps taken so far.
    fn steps(&self) -> u64;

    /// Access to the underlying model (e.g. for mask extraction).
    fn model_mut(&mut self) -> &mut Sequential;
}
