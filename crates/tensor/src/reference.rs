//! Reference (naive) kernels: the seed implementations the optimized
//! paths are tested — and benchmarked — against.
//!
//! [`matmul_ikj`] is the oracle for [`kernel::gemm`](crate::kernel::gemm);
//! the scatter-loop
//! convolutions [`conv2d`], [`conv2d_backward_input`] and
//! [`conv2d_backward_weights`] (Fig 2a–c of the paper, written straight
//! from Alg 1) and the allocating [`conv2d_im2col`] are the oracles for
//! the crate-root convolutions — over padded planes
//! ([`conv2d_from_planes`](crate::conv2d_from_planes),
//! [`conv2d_backward_input_gemm`](crate::conv2d_backward_input_gemm),
//! [`conv2d_backward_weights_from_planes`](crate::conv2d_backward_weights_from_planes))
//! and over im2col columns ([`conv2d_from_cols`],
//! [`conv2d_backward_weights_from_cols`](crate::conv2d_backward_weights_from_cols))
//! — and for the CSB kernels in `procrustes-sparse`. The hot paths must
//! reproduce these loops' results exactly (`f32 ==` on every element);
//! the smokes in `crates/bench/tests` additionally time the speedup
//! over them so a regression in either direction is visible. Nothing on
//! a hot path calls into this module.

use crate::{conv2d_from_cols, conv_out_dim, im2col, Scratch, Tensor};

/// The seed `matmul` loop: ikj order, zero-skip on the lhs operand, no
/// blocking. `a: [m, k]`, `b: [k, n]`, returns `[m, n]` row-major.
///
/// # Panics
///
/// Panics if slice lengths disagree with the dimensions.
pub fn matmul_ikj(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(a.len(), m * k, "matmul_ikj: lhs length != m*k");
    assert_eq!(b.len(), k * n, "matmul_ikj: rhs length != k*n");
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            let av = a[i * k + p];
            if av == 0.0 {
                continue;
            }
            let row = &b[p * n..(p + 1) * n];
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(row) {
                *o += av * bv;
            }
        }
    }
    out
}

fn check_conv_operands(
    x: &Tensor,
    w: &Tensor,
) -> (usize, usize, usize, usize, usize, usize, usize) {
    assert_eq!(x.shape().rank(), 4, "conv: activations must be NCHW");
    assert_eq!(w.shape().rank(), 4, "conv: weights must be KCRS");
    let (n, c, h, wdt) = (
        x.shape().dim(0),
        x.shape().dim(1),
        x.shape().dim(2),
        x.shape().dim(3),
    );
    let (k, cw, r, s) = (
        w.shape().dim(0),
        w.shape().dim(1),
        w.shape().dim(2),
        w.shape().dim(3),
    );
    assert_eq!(
        c, cw,
        "conv: input channels {c} != weight input channels {cw}"
    );
    let _ = (r, s);
    (n, c, k, h, wdt, r, s)
}

/// Forward convolution: `y[n,k,p,q] = Σ_{c,r,s} w[k,c,r,s]·x[n,c,p·t+r−pad,q·t+s−pad]`
/// (Fig 2a / Alg 1 of the paper; `t` = stride).
///
/// # Panics
///
/// Panics on rank or channel mismatches, or if the filter does not fit.
///
/// # Examples
///
/// ```
/// use procrustes_tensor::{reference::conv2d, Tensor};
/// let x = Tensor::ones(&[1, 1, 3, 3]);
/// let w = Tensor::ones(&[1, 1, 3, 3]);
/// assert_eq!(conv2d(&x, &w, 1, 0).data(), &[9.0]);
/// ```
pub fn conv2d(x: &Tensor, w: &Tensor, stride: usize, pad: usize) -> Tensor {
    let (n, c, k, h, wdt, r, s) = check_conv_operands(x, w);
    let p = conv_out_dim(h, r, stride, pad);
    let q = conv_out_dim(wdt, s, stride, pad);
    let mut y = Tensor::zeros(&[n, k, p, q]);

    let xs = x.data();
    let ws = w.data();
    let ys = y.data_mut();
    for ni in 0..n {
        for ki in 0..k {
            for ci in 0..c {
                let wbase = ((ki * c) + ci) * r * s;
                for pi in 0..p {
                    for qi in 0..q {
                        let mut acc = 0.0f32;
                        for ri in 0..r {
                            let hi = pi * stride + ri;
                            if hi < pad || hi - pad >= h {
                                continue;
                            }
                            let hi = hi - pad;
                            for si in 0..s {
                                let wi = qi * stride + si;
                                if wi < pad || wi - pad >= wdt {
                                    continue;
                                }
                                let wi = wi - pad;
                                acc += ws[wbase + ri * s + si]
                                    * xs[((ni * c + ci) * h + hi) * wdt + wi];
                            }
                        }
                        ys[((ni * k + ki) * p + pi) * q + qi] += acc;
                    }
                }
            }
        }
    }
    y
}

/// Backward-pass convolution (Fig 2b): propagates `∂L/∂y` through the layer,
/// producing `∂L/∂x`. Mathematically this is a convolution with each filter
/// rotated 180° — the access-order change that breaks inference-oriented
/// sparse weight formats (§II-D of the paper).
///
/// `h`/`w` are the *input* spatial extents (needed because stride makes the
/// inverse shape ambiguous).
///
/// # Panics
///
/// Panics on rank/channel mismatches or if `dy`'s spatial extents are not
/// consistent with `(h, w, stride, pad)`.
pub fn conv2d_backward_input(
    dy: &Tensor,
    w: &Tensor,
    h: usize,
    wdt: usize,
    stride: usize,
    pad: usize,
) -> Tensor {
    assert_eq!(dy.shape().rank(), 4, "conv bw: dy must be NKPQ");
    assert_eq!(w.shape().rank(), 4, "conv bw: weights must be KCRS");
    let (n, k, p, q) = (
        dy.shape().dim(0),
        dy.shape().dim(1),
        dy.shape().dim(2),
        dy.shape().dim(3),
    );
    let (kw, c, r, s) = (
        w.shape().dim(0),
        w.shape().dim(1),
        w.shape().dim(2),
        w.shape().dim(3),
    );
    assert_eq!(
        k, kw,
        "conv bw: dy channels {k} != weight out-channels {kw}"
    );
    assert_eq!(
        p,
        conv_out_dim(h, r, stride, pad),
        "conv bw: dy height inconsistent with input geometry"
    );
    assert_eq!(
        q,
        conv_out_dim(wdt, s, stride, pad),
        "conv bw: dy width inconsistent with input geometry"
    );

    let mut dx = Tensor::zeros(&[n, c, h, wdt]);
    let dys = dy.data();
    let ws = w.data();
    let dxs = dx.data_mut();
    // Scatter form: each dy element contributes to the input window it was
    // computed from. Equivalent to the rotated-filter gather of Fig 2b.
    for ni in 0..n {
        for ki in 0..k {
            for pi in 0..p {
                for qi in 0..q {
                    let g = dys[((ni * k + ki) * p + pi) * q + qi];
                    if g == 0.0 {
                        continue;
                    }
                    for ci in 0..c {
                        let wbase = ((ki * c) + ci) * r * s;
                        for ri in 0..r {
                            let hi = pi * stride + ri;
                            if hi < pad || hi - pad >= h {
                                continue;
                            }
                            let hi = hi - pad;
                            for si in 0..s {
                                let wi = qi * stride + si;
                                if wi < pad || wi - pad >= wdt {
                                    continue;
                                }
                                let wi = wi - pad;
                                dxs[((ni * c + ci) * h + hi) * wdt + wi] +=
                                    g * ws[wbase + ri * s + si];
                            }
                        }
                    }
                }
            }
        }
    }
    dx
}

/// Weight-update convolution (Fig 2c): `∂L/∂w[k,c,r,s] =
/// Σ_{n,p,q} x[n,c,p·t+r−pad,q·t+s−pad]·∂L/∂y[n,k,p,q]`.
///
/// This is the phase where Procrustes exploits *activation* sparsity
/// (zeros in `x` from ReLU) rather than weight sparsity.
///
/// # Panics
///
/// Panics on rank mismatches or inconsistent geometries.
pub fn conv2d_backward_weights(
    x: &Tensor,
    dy: &Tensor,
    r: usize,
    s: usize,
    stride: usize,
    pad: usize,
) -> Tensor {
    assert_eq!(x.shape().rank(), 4, "conv wu: x must be NCHW");
    assert_eq!(dy.shape().rank(), 4, "conv wu: dy must be NKPQ");
    let (n, c, h, wdt) = (
        x.shape().dim(0),
        x.shape().dim(1),
        x.shape().dim(2),
        x.shape().dim(3),
    );
    let (n2, k, p, q) = (
        dy.shape().dim(0),
        dy.shape().dim(1),
        dy.shape().dim(2),
        dy.shape().dim(3),
    );
    assert_eq!(n, n2, "conv wu: batch mismatch {n} != {n2}");
    assert_eq!(p, conv_out_dim(h, r, stride, pad), "conv wu: bad dy height");
    assert_eq!(
        q,
        conv_out_dim(wdt, s, stride, pad),
        "conv wu: bad dy width"
    );

    let mut dw = Tensor::zeros(&[k, c, r, s]);
    let xs = x.data();
    let dys = dy.data();
    let dws = dw.data_mut();
    for ni in 0..n {
        for ki in 0..k {
            for pi in 0..p {
                for qi in 0..q {
                    let g = dys[((ni * k + ki) * p + pi) * q + qi];
                    if g == 0.0 {
                        continue;
                    }
                    for ci in 0..c {
                        for ri in 0..r {
                            let hi = pi * stride + ri;
                            if hi < pad || hi - pad >= h {
                                continue;
                            }
                            let hi = hi - pad;
                            for si in 0..s {
                                let wi = qi * stride + si;
                                if wi < pad || wi - pad >= wdt {
                                    continue;
                                }
                                let wi = wi - pad;
                                dws[((ki * c + ci) * r + ri) * s + si] +=
                                    g * xs[((ni * c + ci) * h + hi) * wdt + wi];
                            }
                        }
                    }
                }
            }
        }
    }
    dw
}

/// Forward convolution through [`im2col`] + [`conv2d_from_cols`] with
/// freshly allocated buffers; numerically identical to [`conv2d`] up to
/// floating-point association order.
///
/// # Panics
///
/// Same conditions as [`conv2d`].
pub fn conv2d_im2col(x: &Tensor, w: &Tensor, stride: usize, pad: usize) -> Tensor {
    let (n, _, _, h, wdt, r, s) = check_conv_operands(x, w);
    let p = conv_out_dim(h, r, stride, pad);
    let q = conv_out_dim(wdt, s, stride, pad);
    let cols = im2col(x, r, s, stride, pad);
    conv2d_from_cols(w, cols.data(), n, p, q, &mut Scratch::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use procrustes_prng::Xorshift64;

    fn randn(dims: &[usize], seed: u64) -> Tensor {
        Tensor::randn(dims, 1.0, &mut Xorshift64::new(seed))
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (i, (&x, &y)) in a.data().iter().zip(b.data()).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "mismatch at {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn identity_kernel_is_identity() {
        let x = randn(&[2, 3, 5, 5], 1);
        // 1x1 kernels selecting channel ci for output ci.
        let w = Tensor::from_fn(&[3, 3, 1, 1], |i| if i[0] == i[1] { 1.0 } else { 0.0 });
        let y = conv2d(&x, &w, 1, 0);
        assert_close(&y, &x, 1e-6);
    }

    #[test]
    fn known_3x3_convolution() {
        // x is the 4x4 ramp 0..16, box filter.
        let x = Tensor::from_fn(&[1, 1, 4, 4], |i| (i[2] * 4 + i[3]) as f32);
        let w = Tensor::ones(&[1, 1, 3, 3]);
        let y = conv2d(&x, &w, 1, 0);
        // windows sums: centre of each 3x3 block * 9
        assert_eq!(y.data(), &[45.0, 54.0, 81.0, 90.0]);
    }

    #[test]
    fn padding_adds_zero_ring() {
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let w = Tensor::ones(&[1, 1, 3, 3]);
        let y = conv2d(&x, &w, 1, 1);
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        // Every output sees all four ones (corner windows cover the 2x2).
        assert_eq!(y.data(), &[4.0, 4.0, 4.0, 4.0]);
    }

    #[test]
    fn stride_skips_positions() {
        let x = Tensor::from_fn(&[1, 1, 4, 4], |i| (i[2] * 4 + i[3]) as f32);
        let w = Tensor::from_vec(&[1, 1, 1, 1], vec![1.0]);
        let y = conv2d(&x, &w, 2, 0);
        assert_eq!(y.data(), &[0.0, 2.0, 8.0, 10.0]);
    }

    #[test]
    fn im2col_path_matches_direct() {
        for (stride, pad) in [(1, 0), (1, 1), (2, 1), (2, 0)] {
            let x = randn(&[2, 3, 8, 8], 7);
            let w = randn(&[4, 3, 3, 3], 8);
            let a = conv2d(&x, &w, stride, pad);
            let b = conv2d_im2col(&x, &w, stride, pad);
            assert_close(&a, &b, 1e-5);
        }
    }

    /// `f(α·t) = α·f(t)` up to rounding, for a scale `α` in `(-2, 2)`
    /// drawn from `seed`.
    fn assert_linear(seed: u64, t: &Tensor, f: impl Fn(&Tensor) -> Tensor) {
        use procrustes_prng::UniformRng;
        let alpha = Xorshift64::new(seed).next_f32() * 4.0 - 2.0;
        let scaled_in = f(&t.map(|v| alpha * v));
        let mut scaled_out = f(t);
        scaled_out.scale(alpha);
        for (a, b) in scaled_in.data().iter().zip(scaled_out.data()) {
            assert!(
                (a - b).abs() <= 1e-4 * (1.0 + a.abs()),
                "seed {seed}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn conv_is_linear_in_the_input() {
        for seed in 20..28 {
            let w = randn(&[2, 2, 3, 3], seed + 100);
            assert_linear(seed, &randn(&[1, 2, 5, 5], seed), |x| conv2d(x, &w, 1, 1));
        }
    }

    #[test]
    fn weight_update_is_linear_in_dy() {
        for seed in 30..38 {
            let x = randn(&[1, 2, 5, 5], seed + 100);
            assert_linear(seed, &randn(&[1, 2, 3, 3], seed), |dy| {
                conv2d_backward_weights(&x, dy, 3, 3, 1, 0)
            });
        }
    }

    /// The backward-input kernel must equal the gradient of the forward
    /// pass: check <dy, conv(x)> differentials numerically.
    #[test]
    fn backward_input_matches_numerical_gradient() {
        let x = randn(&[1, 2, 5, 5], 11);
        let w = randn(&[3, 2, 3, 3], 12);
        let dy = randn(&[1, 3, 5, 5], 13);
        let dx = conv2d_backward_input(&dy, &w, 5, 5, 1, 1);
        // loss = <dy, conv(x)>; dloss/dx[i] ~ (loss(x+eps e_i)-loss(x-eps e_i))/2eps
        let loss = |xt: &Tensor| -> f32 {
            conv2d(xt, &w, 1, 1)
                .data()
                .iter()
                .zip(dy.data())
                .map(|(a, b)| a * b)
                .sum()
        };
        let eps = 1e-2;
        for probe in [0usize, 7, 23, 49] {
            let mut xp = x.clone();
            xp.data_mut()[probe] += eps;
            let mut xm = x.clone();
            xm.data_mut()[probe] -= eps;
            let num = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            let ana = dx.data()[probe];
            assert!(
                (num - ana).abs() < 1e-2 * (1.0 + num.abs()),
                "probe {probe}: numerical {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn backward_weights_matches_numerical_gradient() {
        let x = randn(&[2, 2, 5, 5], 21);
        let w = randn(&[3, 2, 3, 3], 22);
        let dy = randn(&[2, 3, 3, 3], 23);
        let dw = conv2d_backward_weights(&x, &dy, 3, 3, 1, 0);
        let loss = |wt: &Tensor| -> f32 {
            conv2d(&x, wt, 1, 0)
                .data()
                .iter()
                .zip(dy.data())
                .map(|(a, b)| a * b)
                .sum()
        };
        let eps = 1e-2;
        for probe in [0usize, 5, 17, 53] {
            let mut wp = w.clone();
            wp.data_mut()[probe] += eps;
            let mut wm = w.clone();
            wm.data_mut()[probe] -= eps;
            let num = (loss(&wp) - loss(&wm)) / (2.0 * eps);
            let ana = dw.data()[probe];
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + num.abs()),
                "probe {probe}: numerical {num} vs analytic {ana}"
            );
        }
    }

    /// For stride 1 and no padding, backward-input equals a *full*
    /// convolution with 180°-rotated filters — the identity the paper's
    /// Fig 2b depicts and the CSB format must support.
    #[test]
    fn backward_input_equals_rotated_full_conv() {
        let w = randn(&[2, 3, 3, 3], 31);
        let dy = randn(&[1, 2, 4, 4], 32);
        let dx = conv2d_backward_input(&dy, &w, 6, 6, 1, 0);

        // Build the rotated, channel-swapped weights: wr[c,k,r,s].
        let rot = w.rotate180();
        let wr = Tensor::from_fn(&[3, 2, 3, 3], |i| rot.at(&[i[1], i[0], i[2], i[3]]));
        // Full conv = pad dy by (r-1).
        let dx2 = conv2d(&dy, &wr, 1, 2);
        assert_close(&dx, &dx2, 1e-4);
    }

    #[test]
    fn strided_backward_gradcheck() {
        let x = randn(&[1, 2, 8, 8], 41);
        let w = randn(&[2, 2, 3, 3], 42);
        let dy = randn(&[1, 2, 4, 4], 43);
        let dx = conv2d_backward_input(&dy, &w, 8, 8, 2, 1);
        let loss = |xt: &Tensor| -> f32 {
            conv2d(xt, &w, 2, 1)
                .data()
                .iter()
                .zip(dy.data())
                .map(|(a, b)| a * b)
                .sum()
        };
        let eps = 1e-2;
        for probe in [0usize, 31, 64, 127] {
            let mut xp = x.clone();
            xp.data_mut()[probe] += eps;
            let mut xm = x.clone();
            xm.data_mut()[probe] -= eps;
            let num = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            let ana = dx.data()[probe];
            assert!(
                (num - ana).abs() < 1e-2 * (1.0 + num.abs()),
                "probe {probe}: numerical {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "input channels")]
    fn channel_mismatch_is_rejected() {
        let x = Tensor::zeros(&[1, 2, 4, 4]);
        let w = Tensor::zeros(&[1, 3, 3, 3]);
        conv2d(&x, &w, 1, 0);
    }
}
