//! 2-D batch normalization.
//!
//! Batch norm matters doubly here: it is in every paper network, and it is
//! the reason the back-propagated gradient `∂L/∂y` is *dense* — §II-B:
//! “the ∂L/∂y sparsity generated from backpropagating through relu is
//! destroyed by backpropagating through the batch normalization layer.”
//! The accelerator model encodes that observation; this layer demonstrates
//! it (see `gradient_density_is_restored_by_batchnorm` below).
//!
//! # Summation order
//!
//! The three training-mode reductions — the mean, the variance, and
//! backward's `Σdy` / `Σdy·x̂` — run through one loop nest,
//! `channel_sums`, that carries eight channels' accumulators together:
//! samples outer, then positions, then the eight channels. Every channel
//! still has exactly one accumulator, starting at `+0.0` and adding its
//! own terms in the order of a straight per-channel loop (`n` ascending,
//! then `h·w` ascending), so each sum is bitwise what that loop gives —
//! `crates/nn/tests/batchnorm_equality.rs` keeps the straight loops as
//! its oracle. The reductions are *split across channels*, never
//! re-associated: no channel's sum is cut into partial sums, which would
//! change its bits (the ROADMAP's ground rules). The interleave only
//! lets eight independent add chains overlap where one used to wait on
//! its own previous add. The normalize and `dx` passes are elementwise
//! and walk whole `h·w` planes.

use procrustes_tensor::{Scratch, Tensor};

use crate::conv::ensure_cached;
use crate::{Layer, ParamKind, ParamTensor, Values};

/// Batch normalization over the channel axis of `NCHW` activations.
///
/// # Examples
///
/// ```
/// use procrustes_nn::{BatchNorm2d, Layer};
/// use procrustes_tensor::Tensor;
/// let mut bn = BatchNorm2d::new(2);
/// let x = Tensor::from_fn(&[4, 2, 3, 3], |i| (i[0] * 7 + i[1] * 3) as f32);
/// let y = bn.forward(&x, true);
/// // Normalized: per-channel mean ~0.
/// assert!(y.mean().abs() < 1e-5);
/// ```
pub struct BatchNorm2d {
    gamma: Tensor,
    dgamma: Tensor,
    beta: Tensor,
    dbeta: Tensor,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
    // Persistent per-step work buffers, reused in place so the training
    // hot loop stays allocation-free once shapes stabilize.
    mean: Vec<f32>,
    var: Vec<f32>,
    inv_std: Vec<f32>,
    /// `inv_std` as of the last *training* forward — backward must see
    /// the batch statistics even if an eval forward ran in between.
    cached_inv_std: Vec<f32>,
    xhat: Option<Tensor>,
    sum_dy: Vec<f32>,
    sum_dy_xhat: Vec<f32>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer over `channels` (γ=1, β=0, momentum 0.1).
    pub fn new(channels: usize) -> Self {
        Self {
            gamma: Tensor::ones(&[channels]),
            dgamma: Tensor::zeros(&[channels]),
            beta: Tensor::zeros(&[channels]),
            dbeta: Tensor::zeros(&[channels]),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            eps: 1e-5,
            mean: vec![0.0; channels],
            var: vec![0.0; channels],
            inv_std: vec![0.0; channels],
            cached_inv_std: vec![0.0; channels],
            xhat: None,
            sum_dy: vec![0.0; channels],
            sum_dy_xhat: vec![0.0; channels],
        }
    }

    /// The running `(mean, variance)` that eval mode normalizes with.
    pub fn running_stats(&self) -> (&[f32], &[f32]) {
        (&self.running_mean, &self.running_var)
    }

    /// Fills `self.mean` / `self.var` with batch (train) or running
    /// (eval) statistics.
    fn stats(&mut self, x: &Tensor, train: bool) {
        if !train {
            self.mean.copy_from_slice(&self.running_mean);
            self.var.copy_from_slice(&self.running_var);
            return;
        }
        let s = x.shape();
        let (n, c, hw) = (s.dim(0), s.dim(1), s.dim(2) * s.dim(3));
        let count = (n * hw) as f32;
        let xd = x.data();
        channel_sums((n, c, hw), xd, xd, [&mut self.mean], |_, v, _| [v]);
        for m in self.mean.iter_mut() {
            *m /= count;
        }
        let mean = &self.mean;
        channel_sums((n, c, hw), xd, xd, [&mut self.var], |ci, v, _| {
            [(v - mean[ci]).powi(2)]
        });
        for v in self.var.iter_mut() {
            *v /= count;
        }
    }
}

/// Channels whose sums one pass of [`channel_sums`] carries side by side.
const GROUP: usize = 8;

/// `sums[k][ci] = Σ term(ci, a, b)[k]` over the `(a, b)` element pairs
/// of channel `ci` of two `NCHW` tensors of `dims = (n, c, h·w)`, each
/// sum one accumulator in straight-loop order (module docs: "Summation
/// order").
fn channel_sums<const K: usize>(
    (n, c, hw): (usize, usize, usize),
    a: &[f32],
    b: &[f32],
    mut sums: [&mut [f32]; K],
    term: impl Fn(usize, f32, f32) -> [f32; K],
) {
    for c0 in (0..c).step_by(GROUP) {
        let width = GROUP.min(c - c0);
        // A ragged last group repeats its last channel in the spare
        // lanes; their sums are dropped.
        let lane = |g: usize| c0 + g.min(width - 1);
        let mut acc = [[0.0f32; GROUP]; K];
        for ni in 0..n {
            let start = |g: usize| (ni * c + lane(g)) * hw;
            let pa: [&[f32]; GROUP] = std::array::from_fn(|g| &a[start(g)..][..hw]);
            let pb: [&[f32]; GROUP] = std::array::from_fn(|g| &b[start(g)..][..hw]);
            for p in 0..hw {
                for g in 0..GROUP {
                    let t = term(lane(g), pa[g][p], pb[g][p]);
                    for (acc, t) in acc.iter_mut().zip(t) {
                        acc[g] += t;
                    }
                }
            }
        }
        for (sum, acc) in sums.iter_mut().zip(&acc) {
            sum[c0..c0 + width].copy_from_slice(&acc[..width]);
        }
    }
}

impl Layer for BatchNorm2d {
    fn forward_with(&mut self, x: &Tensor, train: bool, scratch: &mut Scratch) -> Tensor {
        let s = x.shape();
        assert_eq!(s.rank(), 4, "BatchNorm2d: input must be NCHW");
        let (c, hw) = (s.dim(1), s.dim(2) * s.dim(3));
        assert_eq!(c, self.gamma.len(), "BatchNorm2d: channel mismatch");
        self.stats(x, train);
        for (o, &v) in self.inv_std.iter_mut().zip(&self.var) {
            *o = 1.0 / (v + self.eps).sqrt();
        }

        let mut y = scratch.take_tensor_any(s.dims());
        let (gamma, beta) = (self.gamma.data(), self.beta.data());
        let (mean, inv_std) = (&self.mean, &self.inv_std);
        let planes = x
            .data()
            .chunks_exact(hw)
            .zip(y.data_mut().chunks_exact_mut(hw));
        if train {
            let xhat = ensure_cached(&mut self.xhat, s.dims());
            let planes = planes.zip(xhat.data_mut().chunks_exact_mut(hw));
            for (i, ((xp, yp), hp)) in planes.enumerate() {
                let ci = i % c;
                let (g, b, m, is) = (gamma[ci], beta[ci], mean[ci], inv_std[ci]);
                for ((&x, y), h) in xp.iter().zip(yp).zip(hp) {
                    let norm = (x - m) * is;
                    *h = norm;
                    *y = g * norm + b;
                }
            }
            for ci in 0..c {
                self.running_mean[ci] =
                    (1.0 - self.momentum) * self.running_mean[ci] + self.momentum * self.mean[ci];
                self.running_var[ci] =
                    (1.0 - self.momentum) * self.running_var[ci] + self.momentum * self.var[ci];
            }
            self.cached_inv_std.copy_from_slice(&self.inv_std);
        } else {
            // Eval mode never needs x̂ for backward: normalize straight
            // into the output.
            for (i, (xp, yp)) in planes.enumerate() {
                let ci = i % c;
                let (g, b, m, is) = (gamma[ci], beta[ci], mean[ci], inv_std[ci]);
                for (&x, y) in xp.iter().zip(yp) {
                    *y = g * ((x - m) * is) + b;
                }
            }
        }
        y
    }

    fn backward_with(&mut self, dy: &Tensor, scratch: &mut Scratch) -> Tensor {
        let xhat = self
            .xhat
            .as_ref()
            .expect("BatchNorm2d::backward called before training-mode forward");
        let s = dy.shape();
        let (n, c, hw) = (s.dim(0), s.dim(1), s.dim(2) * s.dim(3));
        let m = (n * hw) as f32;

        // Standard batch-norm backward:
        // dβ_c = Σ dy ; dγ_c = Σ dy·x̂
        // dx = (γ·inv_std/m) · (m·dy − Σdy − x̂·Σ(dy·x̂))
        let (dyd, xh) = (dy.data(), xhat.data());
        let sums: [&mut [f32]; 2] = [&mut self.sum_dy, &mut self.sum_dy_xhat];
        channel_sums((n, c, hw), dyd, xh, sums, |_, d, h| [d, d * h]);
        let (sum_dy, sum_dy_xhat) = (&self.sum_dy, &self.sum_dy_xhat);
        for ci in 0..c {
            self.dbeta.data_mut()[ci] += sum_dy[ci];
            self.dgamma.data_mut()[ci] += sum_dy_xhat[ci];
        }
        let mut dx = scratch.take_tensor_any(s.dims());
        let planes = dyd.chunks_exact(hw).zip(xh.chunks_exact(hw));
        let planes = planes.zip(dx.data_mut().chunks_exact_mut(hw));
        for (i, ((dyp, hp), dxp)) in planes.enumerate() {
            let ci = i % c;
            let coeff = self.gamma.data()[ci] * self.cached_inv_std[ci] / m;
            let (sd, sdh) = (sum_dy[ci], sum_dy_xhat[ci]);
            for ((&d, &h), dx) in dyp.iter().zip(hp).zip(dxp) {
                *dx = coeff * (m * d - sd - h * sdh);
            }
        }
        dx
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(ParamTensor<'_>)) {
        visitor(ParamTensor {
            name: "bn.gamma",
            kind: ParamKind::Auxiliary,
            values: Values::Plain(&mut self.gamma),
            grads: &mut self.dgamma,
        });
        visitor(ParamTensor {
            name: "bn.beta",
            kind: ParamKind::Auxiliary,
            values: Values::Plain(&mut self.beta),
            grads: &mut self.dbeta,
        });
    }

    fn name(&self) -> String {
        format!("BatchNorm2d({})", self.gamma.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use procrustes_prng::Xorshift64;
    use procrustes_tensor::gradcheck;

    #[test]
    fn normalizes_per_channel_in_train_mode() {
        let mut bn = BatchNorm2d::new(3);
        let x = Tensor::from_fn(&[8, 3, 4, 4], |i| (i[1] * 50) as f32 + (i[0] as f32));
        let y = bn.forward(&x, true);
        // per-channel mean ~0, var ~1
        for ci in 0..3 {
            let vals: Vec<f32> = (0..8)
                .flat_map(|ni| (0..16).map(move |off| (ni, off)))
                .map(|(ni, off)| y.data()[(ni * 3 + ci) * 16 + off])
                .collect();
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn eval_mode_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::full(&[4, 1, 2, 2], 10.0);
        // Before any training step, running stats are (0, 1): eval output
        // = gamma*(x-0)/1 + beta = x.
        let y = bn.forward(&x, false);
        assert!((y.data()[0] - 10.0).abs() < 1e-3, "{}", y.data()[0]);
        // Train once; running mean moves toward 10.
        bn.forward(&x, true);
        let y2 = bn.forward(&x, false);
        assert!(y2.data()[0] < 10.0);
    }

    #[test]
    fn input_gradcheck() {
        let mut rng = Xorshift64::new(1);
        let x = Tensor::randn(&[4, 2, 3, 3], 1.0, &mut rng);
        let mut bn = BatchNorm2d::new(2);
        // Non-trivial loss: weighted sum so gradient isn't uniform.
        let wts = Tensor::randn(x.shape().dims(), 1.0, &mut rng);
        let y = bn.forward(&x, true);
        let _ = y;
        let dx = bn.backward(&wts);
        let report = gradcheck::check(&x, &dx, 10, 1e-2, |xt| {
            let mut probe = BatchNorm2d::new(2);
            let yt = probe.forward(xt, true);
            yt.data().iter().zip(wts.data()).map(|(a, b)| a * b).sum()
        });
        assert!(report.passes(2e-2), "err {}", report.max_rel_err);
    }

    /// §II-B of the paper: ReLU makes gradients sparse, but propagating
    /// through batch norm densifies them again (every element couples to
    /// the batch statistics).
    #[test]
    fn gradient_density_is_restored_by_batchnorm() {
        let mut rng = Xorshift64::new(2);
        let x = Tensor::randn(&[4, 2, 4, 4], 1.0, &mut rng);
        let mut bn = BatchNorm2d::new(2);
        bn.forward(&x, true);
        // A 50%-sparse upstream gradient (as if from ReLU backward):
        let dy = Tensor::from_fn(x.shape().dims(), |i| {
            if (i[0] + i[2] + i[3]) % 2 == 0 {
                0.0
            } else {
                1.0
            }
        });
        assert!(dy.sparsity() > 0.4);
        let dx = bn.backward(&dy);
        assert!(
            dx.sparsity() < 0.05,
            "batch-norm backward should densify: sparsity {}",
            dx.sparsity()
        );
    }

    #[test]
    fn gamma_beta_gradients_accumulate() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::from_fn(&[2, 1, 2, 2], |i| i[3] as f32);
        bn.forward(&x, true);
        bn.backward(&Tensor::ones(x.shape().dims()));
        bn.visit_params(&mut |p| {
            if p.name == "bn.beta" {
                assert_eq!(p.grads.data()[0], 8.0); // sum of ones
            }
        });
    }
}
