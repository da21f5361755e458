//! Bitwise oracle for `BatchNorm2d`: the layer's channel-interleaved
//! reductions and plane-wise passes against the straight per-channel
//! loops they replaced, compared with `to_bits` on every output —
//! train and eval `y`, `dx`, `dγ`, `dβ` and the running statistics.
//!
//! The channel counts cover a whole number of reduction groups (8, 16,
//! 64), a ragged tail (9, 17) and fewer channels than one group (1, 3).

use procrustes_nn::{BatchNorm2d, Layer};
use procrustes_prng::{UniformRng, Xorshift64};
use procrustes_tensor::Tensor;

const MOMENTUM: f32 = 0.1;
const EPS: f32 = 1e-5;

/// The straight loops: one accumulator per channel, walked `n` outer,
/// `c` inner, each plane in order.
struct Reference {
    gamma: Vec<f32>,
    beta: Vec<f32>,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    inv_std: Vec<f32>,
    xhat: Vec<f32>,
}

impl Reference {
    fn new(gamma: Vec<f32>, beta: Vec<f32>) -> Self {
        let c = gamma.len();
        Self {
            gamma,
            beta,
            running_mean: vec![0.0; c],
            running_var: vec![1.0; c],
            inv_std: vec![0.0; c],
            xhat: Vec::new(),
        }
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Vec<f32> {
        let (n, c, hw) = dims(x);
        let xd = x.data();
        let (mut mean, mut var) = (vec![0.0f32; c], vec![0.0f32; c]);
        if train {
            let count = (n * hw) as f32;
            for ni in 0..n {
                for ci in 0..c {
                    for v in &xd[(ni * c + ci) * hw..(ni * c + ci + 1) * hw] {
                        mean[ci] += v;
                    }
                }
            }
            for m in &mut mean {
                *m /= count;
            }
            for ni in 0..n {
                for ci in 0..c {
                    for v in &xd[(ni * c + ci) * hw..(ni * c + ci + 1) * hw] {
                        var[ci] += (v - mean[ci]).powi(2);
                    }
                }
            }
            for v in &mut var {
                *v /= count;
            }
        } else {
            mean.copy_from_slice(&self.running_mean);
            var.copy_from_slice(&self.running_var);
        }
        let inv_std: Vec<f32> = var.iter().map(|v| 1.0 / (v + EPS).sqrt()).collect();
        let mut y = vec![0.0; xd.len()];
        let mut xhat = vec![0.0; xd.len()];
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * hw;
                for off in base..base + hw {
                    let norm = (xd[off] - mean[ci]) * inv_std[ci];
                    xhat[off] = norm;
                    y[off] = self.gamma[ci] * norm + self.beta[ci];
                }
            }
        }
        if train {
            for ci in 0..c {
                self.running_mean[ci] =
                    (1.0 - MOMENTUM) * self.running_mean[ci] + MOMENTUM * mean[ci];
                self.running_var[ci] = (1.0 - MOMENTUM) * self.running_var[ci] + MOMENTUM * var[ci];
            }
            self.inv_std = inv_std;
            self.xhat = xhat;
        }
        y
    }

    /// `(dx, dγ, dβ)` of one backward from zeroed parameter gradients.
    fn backward(&self, dy: &Tensor) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let (n, c, hw) = dims(dy);
        let m = (n * hw) as f32;
        let (dyd, xh) = (dy.data(), &self.xhat);
        let (mut sum_dy, mut sum_dy_xhat) = (vec![0.0f32; c], vec![0.0f32; c]);
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * hw;
                for off in base..base + hw {
                    sum_dy[ci] += dyd[off];
                    sum_dy_xhat[ci] += dyd[off] * xh[off];
                }
            }
        }
        let mut dx = vec![0.0; dyd.len()];
        for ni in 0..n {
            for ci in 0..c {
                let coeff = self.gamma[ci] * self.inv_std[ci] / m;
                let base = (ni * c + ci) * hw;
                for off in base..base + hw {
                    dx[off] = coeff * (m * dyd[off] - sum_dy[ci] - xh[off] * sum_dy_xhat[ci]);
                }
            }
        }
        // The layer accumulates into gradients that start at +0.0.
        let dgamma = sum_dy_xhat.iter().map(|s| 0.0 + s).collect();
        let dbeta = sum_dy.iter().map(|s| 0.0 + s).collect();
        (dx, dgamma, dbeta)
    }
}

fn dims(t: &Tensor) -> (usize, usize, usize) {
    let s = t.shape();
    (s.dim(0), s.dim(1), s.dim(2) * s.dim(3))
}

fn assert_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
    }
}

/// A layer and its reference with the same random `γ`, `β`.
fn pair(c: usize, rng: &mut Xorshift64) -> (BatchNorm2d, Reference) {
    let gamma: Vec<f32> = (0..c).map(|_| 0.5 + rng.next_f64() as f32).collect();
    let beta: Vec<f32> = (0..c).map(|_| rng.next_f64() as f32 - 0.5).collect();
    let mut bn = BatchNorm2d::new(c);
    bn.visit_params(&mut |mut p| {
        let src = if p.name == "bn.gamma" { &gamma } else { &beta };
        p.values.data_mut().copy_from_slice(src);
    });
    (bn, Reference::new(gamma, beta))
}

/// One training forward + backward, then an eval forward, on both.
fn check_step(
    bn: &mut BatchNorm2d,
    reference: &mut Reference,
    x: &Tensor,
    dy: &Tensor,
    what: &str,
) {
    let tag = |part: &str| format!("{what} {part}");
    let y = bn.forward(x, true);
    assert_bits(y.data(), &reference.forward(x, true), &tag("train y"));
    let (mean, var) = bn.running_stats();
    assert_bits(mean, &reference.running_mean, &tag("running mean"));
    assert_bits(var, &reference.running_var, &tag("running var"));

    let dx = bn.backward(dy);
    let (want_dx, want_dgamma, want_dbeta) = reference.backward(dy);
    assert_bits(dx.data(), &want_dx, &tag("dx"));
    bn.visit_params(&mut |p| {
        let want = if p.name == "bn.gamma" {
            &want_dgamma
        } else {
            &want_dbeta
        };
        assert_bits(p.grads.data(), want, &tag(p.name));
        p.grads.data_mut().fill(0.0);
    });

    let y = bn.forward(x, false);
    assert_bits(y.data(), &reference.forward(x, false), &tag("eval y"));
}

#[test]
fn batchnorm_matches_straight_loops_bitwise_over_shapes() {
    let mut rng = Xorshift64::new(0xB17);
    for c in [1, 3, 8, 9, 16, 17, 64] {
        for n in [1, 3, 8] {
            for (h, w) in [(1, 1), (3, 5), (32, 32)] {
                let (mut bn, mut reference) = pair(c, &mut rng);
                // Two steps, so the running statistics move from a
                // non-initial state too.
                for step in 0..2 {
                    // Per-channel offsets, so every mean is nonzero.
                    let x = Tensor::from_fn(&[n, c, h, w], |i| {
                        i[1] as f32 * 0.75 - 3.0 + 4.0 * rng.next_f64() as f32
                    });
                    let dy = Tensor::randn(&[n, c, h, w], 1.0, &mut rng);
                    let what = format!("n={n} c={c} {h}x{w} step {step}");
                    check_step(&mut bn, &mut reference, &x, &dy, &what);
                }
            }
        }
    }
}

/// Signed zeros in `dy` (as ReLU backward leaves them) and a constant
/// channel (zero variance) must take the same path bit for bit.
#[test]
fn batchnorm_matches_straight_loops_bitwise_on_zeros_and_constant_channels() {
    let mut rng = Xorshift64::new(0x5EED);
    for c in [3, 9, 17] {
        let (n, h, w) = (3, 3, 5);
        let (mut bn, mut reference) = pair(c, &mut rng);
        let x = Tensor::from_fn(&[n, c, h, w], |i| {
            if i[1] % 2 == 0 {
                4.0
            } else {
                (i[0] * 7 + i[2] * 3 + i[3]) as f32 * 0.1
            }
        });
        let dy = Tensor::from_fn(&[n, c, h, w], |i| match (i[0] + i[2] + i[3]) % 3 {
            0 => 0.0,
            1 => -0.0,
            _ => (i[1] as f32 + 1.0) * if i[3] % 2 == 0 { 1.0 } else { -0.5 },
        });
        check_step(&mut bn, &mut reference, &x, &dy, &format!("c={c}"));
    }
}
