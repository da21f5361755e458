//! The hardware-friendly Procrustes training algorithm (Alg 3 + §III-B).
//!
//! Differences from exact Dropback:
//!
//! * initial weights decay by λ = 0.9 per iteration and reach exactly
//!   zero, creating *computation sparsity* (§III-A);
//! * the sort is replaced by a per-gradient threshold test against a
//!   DUMIQUE quantile estimate ϑ (§III-B): untracked gradients above ϑ
//!   evict the lowest tracked entry; every magnitude feeds the estimator
//!   (4-wide, as the hardware QE unit does).
//!
//! # The step's bookkeeping
//!
//! After the backward pass one walk per prunable tensor forms each
//! delta `−lr·g`, zeroes the gradient and tracks it, then writes the
//! tensor's weights from the accumulations (`0.0 + acc` past the decay
//! flush); no per-step delta buffer exists. Tracking goes four indices
//! at a time, aligned with the estimator's groups: the four lanes are
//! formed without a branch from the tracked set's `acc` and slot slices,
//! the estimator is held in a register, and the group commits only when
//! no untracked magnitude in it could pass `admits(mag) || !is_full()`
//! — in steady state past the flush, every group.
//!
//! Any other group, the indices that complete a group begun in the
//! previous tensor or step, and a tensor's last `< 4` indices take the
//! scalar rule one index at a time. That path is the reference: it
//! pushes each magnitude in index order into the group in progress, so
//! the estimator sees the same 4-wide averages in the same order, and
//! an admission — whose eviction can untrack a later index of the same
//! group — is decided against the ϑ the group started with, exactly as
//! the index-by-index loop does. Every bit of the step therefore equals
//! the three-walk step (gather, track, materialize) it replaced, which
//! the tests keep as an oracle. A victim evicted from a tensor already
//! written this step has its weight rewritten after the walk.

use procrustes_nn::{ComputeBackend, Layer, Scratch, Sequential};
use procrustes_quantile::{quantile_for_sparsity, Dumique};
use procrustes_tensor::Tensor;

use crate::exact::init_from_wr;
use crate::step::{
    evaluate_model, for_each_prunable, forward_backward, materialize_tensor, sgd_auxiliary,
};
use crate::{EvictionPolicy, StepStats, TrackedSet, Trainer, WeightRecompute};

/// Configuration for [`ProcrustesTrainer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcrustesConfig {
    /// Target pruning factor (e.g. 10.0 keeps ~10 % of weights).
    pub sparsity_factor: f64,
    /// Learning rate.
    pub lr: f32,
    /// Initial-weight decay per iteration (paper: 0.9).
    pub lambda: f32,
    /// Auxiliary-parameter (bias/BN) learning rate; usually `lr`.
    pub aux_lr: f32,
    /// Eviction policy of the tracked-set store.
    pub eviction: EvictionPolicy,
    /// Which kernels the model's conv/fc layers execute on.
    /// [`ComputeBackend::auto`] promotes each layer to CSB once the
    /// initial-weight decay has driven its density below the threshold
    /// (the layout is resynced after every mask update); results are
    /// identical under every backend.
    pub compute: ComputeBackend,
}

impl Default for ProcrustesConfig {
    fn default() -> Self {
        Self {
            sparsity_factor: 10.0,
            lr: 0.05,
            lambda: 0.9,
            aux_lr: 0.05,
            eviction: EvictionPolicy::default(),
            compute: ComputeBackend::auto(),
        }
    }
}

/// The Procrustes sparse trainer: Dropback with initial-weight decay and
/// quantile-estimated selection.
///
/// # Examples
///
/// ```
/// use procrustes_dropback::{ProcrustesConfig, ProcrustesTrainer, Trainer};
/// use procrustes_nn::{arch, data::SyntheticImages};
/// use procrustes_prng::Xorshift64;
///
/// let mut rng = Xorshift64::new(0);
/// let mut t = ProcrustesTrainer::new(
///     arch::tiny_vgg(10, &mut rng),
///     ProcrustesConfig::default(),
///     3,
/// );
/// let (x, labels) = SyntheticImages::cifar_like(10, 4).batch(4, &mut rng);
/// let stats = t.train_step(&x, &labels);
/// assert!(stats.threshold > 0.0); // ϑ is live from the first step
/// ```
pub struct ProcrustesTrainer {
    model: Sequential,
    config: ProcrustesConfig,
    wr: WeightRecompute,
    tracked: TrackedSet,
    qe: Dumique,
    pending: Pending,
    /// This step's victims evicted after their tensor was materialized;
    /// at most `k` a step, so it never grows past its initial capacity.
    rewrites: Vec<u32>,
    scratch: Scratch,
    steps: u64,
}

impl ProcrustesTrainer {
    /// Wraps `model`; overwrites its prunable weights with WR-generated
    /// initial values.
    ///
    /// # Panics
    ///
    /// Panics if the model has no prunable weights or
    /// `config.sparsity_factor <= 1`.
    pub fn new(mut model: Sequential, config: ProcrustesConfig, seed: u32) -> Self {
        assert!(
            config.sparsity_factor > 1.0,
            "sparsity factor must exceed 1"
        );
        let (wr, n) = init_from_wr(&mut model, seed, config.lambda);
        model.set_compute_backend(config.compute);
        let budget = (n as f64 / config.sparsity_factor).ceil() as usize;
        let tracked = TrackedSet::new(n, budget, config.eviction, u64::from(seed) ^ 0xD00D);
        let qe = Dumique::new(quantile_for_sparsity(config.sparsity_factor));
        Self {
            model,
            config,
            wr,
            tracked,
            qe,
            pending: Pending::default(),
            rewrites: Vec::with_capacity(budget),
            scratch: Scratch::new(),
            steps: 0,
        }
    }

    /// The weight budget `k`.
    pub fn budget(&self) -> usize {
        self.tracked.capacity()
    }

    /// The current admission threshold ϑ.
    pub fn threshold(&self) -> f32 {
        self.qe.estimate()
    }

    /// The WR unit backing this trainer.
    pub fn wr(&self) -> &WeightRecompute {
        &self.wr
    }

    /// The materialized per-layer weight sparsity (fraction of exact
    /// zeros), one entry per prunable tensor — the masks the accelerator
    /// simulator consumes.
    pub fn layer_sparsities(&mut self) -> Vec<f64> {
        let mut out = Vec::new();
        for_each_prunable(&mut self.model, |_, p| out.push(p.values.sparsity()));
        out
    }
}

impl Trainer for ProcrustesTrainer {
    fn train_step(&mut self, x: &Tensor, labels: &[usize]) -> StepStats {
        let loss = forward_backward(&mut self.model, x, labels, &mut self.scratch);
        sgd_auxiliary(&mut self.model, self.config.aux_lr);

        self.steps += 1;
        let factor = self.wr.decay_factor(self.steps);
        self.rewrites.clear();
        let mut walk = Walk {
            lr: self.config.lr,
            tracked: &mut self.tracked,
            qe: &mut self.qe,
            pending: &mut self.pending,
            rewrites: &mut self.rewrites,
            admitted: 0,
            evicted: 0,
        };
        // One walk per prunable tensor: track its gradients (zeroing
        // them), then write its weights from the accumulations.
        let wr = &self.wr;
        let mut zeros = 0;
        let n = for_each_prunable(&mut self.model, |offset, mut p| {
            walk.track_tensor(p.grads.data_mut(), offset);
            let acc = &walk.tracked.acc()[offset..offset + p.values.len()];
            zeros +=
                materialize_tensor(p.values.data_mut(), offset, wr, factor, acc.iter().copied());
        });
        let (admitted, evicted) = (walk.admitted, walk.evicted);

        // A victim in a tensor already written reads its decayed value
        // again (its accumulation is now zero).
        if !self.rewrites.is_empty() {
            let (rewrites, acc) = (&self.rewrites, self.tracked.acc());
            for_each_prunable(&mut self.model, |offset, mut p| {
                let values = p.values.data_mut();
                for &i in rewrites {
                    let i = i as usize;
                    let Some(w) = i.checked_sub(offset).and_then(|j| values.get_mut(j)) else {
                        continue;
                    };
                    zeros -= usize::from(*w == 0.0);
                    zeros += materialize_tensor(std::slice::from_mut(w), i, wr, factor, [acc[i]]);
                }
            });
        }
        StepStats {
            loss,
            tracked: self.tracked.len(),
            admitted,
            evicted,
            threshold: self.qe.estimate(),
            weight_sparsity: zeros as f64 / n as f64,
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

/// The magnitudes of the estimator group in progress. The hardware's
/// 4-wide unit takes the gradients in index order, so a group spans
/// tensors and steps.
#[derive(Debug, Clone, Copy, Default)]
struct Pending {
    mags: [f32; 4],
    len: usize,
}

impl Pending {
    /// Adds one magnitude; the fourth updates the estimator.
    fn push(&mut self, qe: &mut Dumique, mag: f32) {
        self.mags[self.len] = mag;
        self.len += 1;
        if self.len == 4 {
            qe.update4(self.mags);
            self.len = 0;
        }
    }
}

/// The tracking process of §III-B over one step's gradients, in the
/// global index order, and the step's admission counts.
struct Walk<'a> {
    lr: f32,
    tracked: &'a mut TrackedSet,
    qe: &'a mut Dumique,
    pending: &'a mut Pending,
    rewrites: &'a mut Vec<u32>,
    admitted: usize,
    evicted: usize,
}

impl Walk<'_> {
    /// Tracks the gradients of the prunable tensor whose first weight has
    /// global index `offset`, zeroing them.
    ///
    /// The indices that finish the group in progress, those past the last
    /// whole group, and any group in which an index may be admitted take
    /// the exact path one index at a time; the rest go four at a time,
    /// aligned with the estimator's groups.
    fn track_tensor(&mut self, grads: &mut [f32], offset: usize) {
        let head = ((4 - self.pending.len) % 4).min(grads.len());
        let body = head + (grads.len() - head) / 4 * 4;
        self.track_exact(&mut grads[..head], offset, offset);
        let mut j = head;
        while j < body {
            j += self.track_groups(&mut grads[j..body], offset + j);
            let end = (j + 4).min(body);
            self.track_exact(&mut grads[j..end], offset + j, offset);
            j = end;
        }
        self.track_exact(&mut grads[body..], offset + body, offset);
    }

    /// [`exact`](Self::exact) over `grads`, whose first index is `gi`,
    /// zeroing them.
    fn track_exact(&mut self, grads: &mut [f32], gi: usize, written: usize) {
        for (l, g) in grads.iter_mut().enumerate() {
            self.exact(gi + l, -self.lr * std::mem::take(g), written);
        }
    }

    /// Tracks whole estimator groups of `grads`, whose first index is
    /// `gi`, while no index in a group can be admitted; returns how many
    /// gradients it consumed, stopping before the first group that may
    /// admit (left untouched for the exact path).
    ///
    /// The estimator stays in a local, so its chain lives in registers,
    /// and the tracked set's accumulations and slots are read as slices.
    /// ϑ moves only once a group is complete, so a group's four
    /// admission tests all read the ϑ it starts with, as they do on the
    /// exact path.
    fn track_groups(&mut self, grads: &mut [f32], gi: usize) -> usize {
        let (lr, full) = (self.lr, self.tracked.is_full());
        let (acc, slots) = self.tracked.acc_and_slots();
        let span = gi..gi + grads.len();
        let (acc, slots) = (&mut acc[span.clone()], &slots[span]);
        let mut qe = *self.qe;
        let mut done = 0;
        let groups = grads.chunks_exact_mut(4).zip(acc.chunks_exact_mut(4));
        for ((g, acc), slots) in groups.zip(slots.chunks_exact(4)) {
            // Branch-free lanes: an untracked `acc` is `+0.0`, so adding
            // the delta masked to `+0.0` leaves it, and `|+0.0|` has no
            // bits to hide the untracked `|δ|` or-ed into the magnitude.
            let (mut next, mut mags, mut admit) = ([0.0f32; 4], [0.0f32; 4], false);
            for l in 0..4 {
                let dw = -lr * g[l];
                let tracked_bits = 0u32.wrapping_sub(u32::from(slots[l] != 0));
                let untracked = dw.abs().to_bits() & !tracked_bits;
                next[l] = acc[l] + f32::from_bits(dw.to_bits() & tracked_bits);
                mags[l] = f32::from_bits(next[l].abs().to_bits() | untracked);
                // The exact path's admission test; `untracked` is the
                // bits of `+0.0` on a tracked lane.
                let mag = f32::from_bits(untracked);
                admit |= (mag > 0.0) & (qe.admits(mag) | !full);
            }
            if admit {
                break;
            }
            acc.copy_from_slice(&next);
            g.fill(0.0);
            qe.update4(mags);
            done += 4;
        }
        *self.qe = qe;
        done
    }

    /// Tracks index `gi` with delta `dw` by the scalar rule: a tracked
    /// index accumulates and feeds `|acc + δ|`; an untracked one is
    /// admitted when `|δ| > 0` beats ϑ (or the set is not yet full) and
    /// feeds `|δ|`. The magnitude joins the group in progress, and a
    /// full group updates the estimator — the push order of the
    /// hardware's 4-wide unit. A victim below `written` (a tensor
    /// already materialized this step) is queued for a rewrite.
    fn exact(&mut self, gi: usize, dw: f32, written: usize) {
        let mag = if self.tracked.contains(gi) {
            self.tracked.accumulate(gi, dw);
            self.tracked.accumulated(gi).abs()
        } else {
            let mag = dw.abs();
            if mag > 0.0 && (self.qe.admits(mag) || !self.tracked.is_full()) {
                if let Some(victim) = self.tracked.admit(gi, dw) {
                    self.evicted += 1;
                    if victim < written {
                        self.rewrites.push(victim as u32);
                    }
                }
                self.admitted += 1;
            }
            mag
        };
        self.pending.push(self.qe, mag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::micro_model;
    use procrustes_nn::data::SyntheticImages;
    use procrustes_prng::Xorshift64;

    fn setup(factor: f64) -> (ProcrustesTrainer, SyntheticImages, Xorshift64) {
        let rng = Xorshift64::new(8);
        let t = ProcrustesTrainer::new(
            micro_model(4, 8),
            ProcrustesConfig {
                sparsity_factor: factor,
                lr: 0.05,
                ..ProcrustesConfig::default()
            },
            21,
        );
        (t, SyntheticImages::new(4, 16, 16, 0.2, 2), rng)
    }

    #[test]
    fn tracked_set_stays_within_budget() {
        let (mut t, data, mut rng) = setup(10.0);
        for _ in 0..5 {
            let (x, labels) = data.batch(4, &mut rng);
            let s = t.train_step(&x, &labels);
            assert!(s.tracked <= t.budget());
        }
        // Budget is ceil(n/10), so the fraction can exceed 0.1 by < 1/n.
        let n = t.model.prunable_params();
        let fraction = t.tracked.len() as f64 / n as f64;
        assert!(fraction <= t.budget() as f64 / n as f64 + 1e-9);
    }

    #[test]
    fn threshold_becomes_positive_and_rises() {
        let (mut t, data, mut rng) = setup(10.0);
        let mut thetas = Vec::new();
        for _ in 0..5 {
            let (x, labels) = data.batch(4, &mut rng);
            thetas.push(t.train_step(&x, &labels).threshold);
        }
        assert!(thetas.iter().all(|&v| v > 0.0));
        // With gradients >> 1e-6 the estimate must have moved upward.
        assert!(thetas.last().unwrap() > &(Dumique::DEFAULT_INIT as f32));
    }

    #[test]
    fn sparsity_emerges_after_decay_horizon() {
        let (mut t, data, mut rng) = setup(10.0);
        let zero_iter = t.wr().zero_iteration().unwrap();
        let mut s = StepStats::default();
        for _ in 0..=zero_iter {
            let (x, labels) = data.batch(1, &mut rng);
            s = t.train_step(&x, &labels);
        }
        assert!(
            s.weight_sparsity > 0.85,
            "weight sparsity {} after decay horizon",
            s.weight_sparsity
        );
        // Per-layer masks are available for the simulator.
        let per_layer = t.layer_sparsities();
        assert!(!per_layer.is_empty());
        assert!(per_layer.iter().any(|&s| s > 0.5));
    }

    #[test]
    fn learns_above_chance() {
        let (mut t, data, mut rng) = setup(5.0);
        for _ in 0..60 {
            let (x, labels) = data.batch(16, &mut rng);
            t.train_step(&x, &labels);
        }
        let (vx, vl) = data.fixed_set(64, 77);
        let (_, acc) = t.evaluate(&vx, &vl);
        assert!(acc > 0.5, "accuracy {acc}");
    }

    #[test]
    fn no_sorting_happens_only_streaming() {
        // Structural property: one step touches each gradient exactly once
        // through the streaming path. We verify the estimator observation
        // count matches the gradient count (within the 4-wide batching).
        let (mut t, data, mut rng) = setup(10.0);
        let (x, labels) = data.batch(2, &mut rng);
        t.train_step(&x, &labels);
        let expected = t.model.prunable_params() as u64 / 4; // one 4-wide update per 4 gradients
        let got = t.qe.observations();
        assert!(
            (got as i64 - expected as i64).unsigned_abs() <= 1,
            "observations {got} vs expected {expected}"
        );
    }

    /// The step as three walks over a gradient-delta buffer — gather,
    /// track, materialize — the scalar rule applied index by index: the
    /// oracle of the one-walk step.
    fn oracle_step(t: &mut ProcrustesTrainer, x: &Tensor, labels: &[usize]) -> StepStats {
        let loss = forward_backward(&mut t.model, x, labels, &mut t.scratch);
        let lr = t.config.lr;
        let mut deltas = Vec::new();
        for_each_prunable(&mut t.model, |_, p| {
            for g in p.grads.data_mut() {
                deltas.push(-lr * *g);
                *g = 0.0;
            }
        });
        sgd_auxiliary(&mut t.model, t.config.aux_lr);
        let (mut admitted, mut evicted) = (0, 0);
        for (gi, &dw) in deltas.iter().enumerate() {
            let mag = if t.tracked.contains(gi) {
                t.tracked.accumulate(gi, dw);
                t.tracked.accumulated(gi).abs()
            } else {
                let mag = dw.abs();
                if mag > 0.0 && (t.qe.admits(mag) || !t.tracked.is_full()) {
                    if t.tracked.admit(gi, dw).is_some() {
                        evicted += 1;
                    }
                    admitted += 1;
                }
                mag
            };
            t.pending.push(&mut t.qe, mag);
        }
        t.steps += 1;
        let tracked = &t.tracked;
        let weight_sparsity =
            crate::step::materialize(&mut t.model, &t.wr, t.steps, |gi| tracked.accumulated(gi));
        StepStats {
            loss,
            tracked: t.tracked.len(),
            admitted,
            evicted,
            threshold: t.qe.estimate(),
            weight_sparsity,
        }
    }

    /// Every parameter's values and gradients, in visit order.
    fn param_values(model: &mut Sequential) -> (Vec<f32>, Vec<f32>) {
        let (mut values, mut grads) = (Vec::new(), Vec::new());
        model.visit_params(&mut |p| {
            values.extend_from_slice(p.values.data());
            grads.extend_from_slice(p.grads.data());
        });
        (values, grads)
    }

    /// Asserts `got == want` bit for bit, naming the first index apart.
    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: lengths");
        let apart = got
            .iter()
            .zip(want)
            .position(|(g, w)| g.to_bits() != w.to_bits());
        if let Some(i) = apart {
            panic!(
                "{what}: index {i} holds {:e}, the oracle {:e}",
                got[i], want[i]
            );
        }
    }

    /// Conv 3→5, conv 5→7 and a 112→3 head: 135 + 315 + 336 = 786
    /// prunable weights, no tensor and not the total a multiple of four,
    /// so estimator groups straddle tensors and carry across steps.
    fn ragged_model(seed: u64) -> Sequential {
        use procrustes_nn::{BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d, ReLU};
        let mut rng = Xorshift64::new(seed);
        let mut m = Sequential::new();
        m.push(Conv2d::new(3, 5, 3, 1, 1, false, &mut rng));
        m.push(BatchNorm2d::new(5));
        m.push(ReLU::new());
        m.push(MaxPool2d::new());
        m.push(Conv2d::new(5, 7, 3, 1, 1, false, &mut rng));
        m.push(BatchNorm2d::new(7));
        m.push(ReLU::new());
        m.push(MaxPool2d::new());
        m.push(Flatten::new());
        m.push(Linear::new(7 * 4 * 4, 3, true, &mut rng));
        m
    }

    /// The one-walk step against the three-walk oracle, bit for bit after
    /// every step: weights, zeroed gradients, tracked members in order
    /// and their accumulations, the estimator and the group in progress,
    /// and the step's statistics. λ = 0.1 flushes the decay mid-run; a
    /// factor of 4 evicts every step, victims in tensors already written
    /// included; 786 weights leave a partial group at every step's end.
    #[test]
    fn one_walk_step_matches_the_three_walk_oracle_bitwise() {
        for eviction in [EvictionPolicy::ExactMin, EvictionPolicy::SampledMin(8)] {
            let config = ProcrustesConfig {
                sparsity_factor: 4.0,
                lambda: 0.1,
                eviction,
                ..ProcrustesConfig::default()
            };
            let trainer = || ProcrustesTrainer::new(ragged_model(5), config, 17);
            let (mut fast, mut oracle) = (trainer(), trainer());
            assert_eq!(fast.model.prunable_params() % 4, 2);
            let flush = fast.wr().zero_iteration().unwrap();
            let steps = flush + 6;
            let data = SyntheticImages::new(3, 16, 16, 0.2, 4);
            let mut rng = Xorshift64::new(9);
            let mut rewrites = 0;
            for step in 1..=steps {
                let what = format!("{eviction:?}, step {step} (flush at {flush})");
                let (x, labels) = data.batch(4, &mut rng);
                let got = fast.train_step(&x, &labels);
                let want = oracle_step(&mut oracle, &x, &labels);
                rewrites += fast.rewrites.len();
                assert!(got.evicted > 0, "{what}: no eviction");
                assert_eq!(got.loss.to_bits(), want.loss.to_bits(), "{what}: loss");
                assert_eq!(
                    (got.tracked, got.admitted, got.evicted),
                    (want.tracked, want.admitted, want.evicted),
                    "{what}: counts"
                );
                assert_eq!(got.threshold.to_bits(), want.threshold.to_bits(), "{what}");
                assert_eq!(
                    got.weight_sparsity.to_bits(),
                    want.weight_sparsity.to_bits(),
                    "{what}: sparsity"
                );
                assert_eq!(fast.qe, oracle.qe, "{what}: estimator");
                assert_eq!(fast.qe.observations(), oracle.qe.observations(), "{what}");
                let pending = |t: &ProcrustesTrainer| {
                    let Pending { mags, len } = t.pending;
                    mags[..len].iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                };
                assert_eq!(
                    pending(&fast),
                    pending(&oracle),
                    "{what}: group in progress"
                );
                let members = |t: &ProcrustesTrainer| t.tracked.iter().collect::<Vec<_>>();
                assert_eq!(members(&fast), members(&oracle), "{what}: members");
                let acc = |t: &ProcrustesTrainer| t.tracked.acc().to_vec();
                assert_same_bits(&acc(&fast), &acc(&oracle), &format!("{what}: acc"));
                let (values, grads) = param_values(&mut fast.model);
                let (want_values, want_grads) = param_values(&mut oracle.model);
                assert_same_bits(&values, &want_values, &format!("{what}: weights"));
                assert_same_bits(&grads, &want_grads, &format!("{what}: gradients"));
                assert_eq!(fast.steps(), oracle.steps());
            }
            assert!(
                fast.pending.len != 0,
                "{eviction:?}: a group must carry over"
            );
            assert!(
                rewrites > 0,
                "{eviction:?}: no victim in a tensor already written"
            );
        }
    }

    #[test]
    fn deterministic_given_seeds() {
        let run = || {
            let (mut t, data, mut rng) = setup(10.0);
            let mut last = 0.0;
            for _ in 0..3 {
                let (x, labels) = data.batch(4, &mut rng);
                last = t.train_step(&x, &labels).loss;
            }
            last
        };
        assert_eq!(run(), run());
    }
}
