//! The three convolution kernels of CNN training (Fig 2 of the paper),
//! each a product with the columns of a convolution — read as a *view*
//! of the padded input planes on the hot path ([`PaddedPlanes`]), or
//! from a materialised [`im2col`] matrix by the `*_from_cols` oracles
//! the view is tested against. The forward and backward-input products
//! are GEMMs; the weight update over the planes is a pack-free kernel
//! split by filter taps ([`conv2d_backward_weights_from_planes`]).
//!
//! All kernels take activations in `NCHW` layout and weights in `KCRS`
//! layout, and support symmetric zero padding and a uniform stride — the
//! configurations the paper's five networks use. Each compares equal
//! (`f32 ==`) to its scatter-loop oracle in [`crate::reference`], and a
//! product over the planes to the same product over the unfolded
//! columns.

use crate::kernel::cols::for_each_run;
use crate::kernel::{self, Blueprint, ColsView, Rhs};
use crate::{PaddedPlanes, Scratch, Tensor};

/// Output extent of a convolution along one axis.
///
/// # Panics
///
/// Panics if the filter does not fit (`input + 2·pad < filter`) or
/// `stride == 0`.
///
/// # Examples
///
/// ```
/// use procrustes_tensor::conv_out_dim;
/// assert_eq!(conv_out_dim(32, 3, 1, 1), 32); // "same" conv
/// assert_eq!(conv_out_dim(32, 3, 2, 1), 16); // strided downsample
/// ```
pub fn conv_out_dim(input: usize, filter: usize, stride: usize, pad: usize) -> usize {
    assert!(stride > 0, "conv_out_dim: stride must be positive");
    assert!(
        input + 2 * pad >= filter,
        "conv_out_dim: filter {filter} larger than padded input {}",
        input + 2 * pad
    );
    (input + 2 * pad - filter) / stride + 1
}

/// Unfolds `x` (`NCHW`) into a `[C·R·S, N·P·Q]` matrix of convolution
/// windows, so the forward pass becomes one matmul
/// (see [`conv2d_from_cols`]). The training step never builds this
/// matrix — it reads the same values through [`PaddedPlanes::view`] —
/// so this is the oracle that view is checked against.
pub fn im2col(x: &Tensor, r: usize, s: usize, stride: usize, pad: usize) -> Tensor {
    assert_eq!(x.shape().rank(), 4, "im2col: x must be NCHW");
    let (n, c, h, wdt) = (
        x.shape().dim(0),
        x.shape().dim(1),
        x.shape().dim(2),
        x.shape().dim(3),
    );
    let p = conv_out_dim(h, r, stride, pad);
    let q = conv_out_dim(wdt, s, stride, pad);
    let rows = c * r * s;
    let cols = n * p * q;
    let mut out = vec![0.0f32; rows * cols];
    im2col_into(x, r, s, stride, pad, &mut out);
    Tensor::from_vec(&[rows, cols], out)
}

/// [`im2col`] into a caller-provided buffer of exactly
/// `(C·R·S)·(N·P·Q)` elements. The buffer is fully overwritten
/// (padding positions become `0.0`): each output row of a window row is
/// one zero-fill / copy / zero-fill at stride 1, an element loop
/// otherwise.
///
/// # Panics
///
/// Panics if `x` is not rank 4, the filter does not fit, or `dst` has
/// the wrong length.
pub fn im2col_into(x: &Tensor, r: usize, s: usize, stride: usize, pad: usize, dst: &mut [f32]) {
    assert_eq!(x.shape().rank(), 4, "im2col: x must be NCHW");
    let (n, c, h, wdt) = (
        x.shape().dim(0),
        x.shape().dim(1),
        x.shape().dim(2),
        x.shape().dim(3),
    );
    let p = conv_out_dim(h, r, stride, pad);
    let q = conv_out_dim(wdt, s, stride, pad);
    assert_eq!(
        dst.len(),
        c * r * s * n * p * q,
        "im2col_into: dst length mismatch"
    );
    let xs = x.data();
    // One `q`-long run of `dst` per (c, r, s, n, p), in `dst` order.
    let mut runs = dst.chunks_exact_mut(q);
    for ci in 0..c {
        for ri in 0..r {
            for si in 0..s {
                // Outputs `q_lo..q_hi` read inside the row: the others
                // see only padding.
                let q_lo = pad.saturating_sub(si).div_ceil(stride).min(q);
                let q_hi = (wdt + pad)
                    .saturating_sub(si)
                    .div_ceil(stride)
                    .clamp(q_lo, q);
                for ni in 0..n {
                    for pi in 0..p {
                        let run = runs.next().expect("one run per output row");
                        let hi = pi * stride + ri;
                        if hi < pad || hi - pad >= h || q_lo == q_hi {
                            run.fill(0.0);
                            continue;
                        }
                        let row = &xs[((ni * c + ci) * h + hi - pad) * wdt..][..wdt];
                        let first = q_lo * stride + si - pad;
                        run[..q_lo].fill(0.0);
                        run[q_hi..].fill(0.0);
                        if stride == 1 {
                            run[q_lo..q_hi].copy_from_slice(&row[first..][..q_hi - q_lo]);
                        } else {
                            let taken = row[first..].iter().step_by(stride);
                            for (slot, &v) in run[q_lo..q_hi].iter_mut().zip(taken) {
                                *slot = v;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Copies `src` viewed as `[a, b, plane]` into `dst` as `[b, a, plane]`
/// (plane-contiguous transpose of the two leading group axes).
fn permute_group_pair(dst: &mut [f32], src: &[f32], a: usize, b: usize, plane: usize) {
    debug_assert_eq!(src.len(), a * b * plane);
    debug_assert_eq!(dst.len(), a * b * plane);
    for ai in 0..a {
        for bi in 0..b {
            let s = (ai * b + bi) * plane;
            let d = (bi * a + ai) * plane;
            dst[d..d + plane].copy_from_slice(&src[s..s + plane]);
        }
    }
}

/// Forward convolution over the padded input planes: one GEMM
/// (`[K, C·R·S] × [C·R·S, N·P·Q]`, the rhs read through
/// [`PaddedPlanes::view`]) plus the `[K, N] → [N, K]` plane reorder.
/// All buffers come from `scratch` (the result tensor too, so callers
/// can recycle it). Equal (`f32 ==`) to [`conv2d_from_cols`] over the
/// unfolded input.
///
/// # Panics
///
/// Panics if `w` is not `KCRS` or disagrees with the planes' channels
/// or filter extents.
pub fn conv2d_from_planes(w: &Tensor, planes: &PaddedPlanes, scratch: &mut Scratch) -> Tensor {
    let [n, c, ..] = planes.dims();
    let ((r, s), (p, q)) = (planes.filter_dims(), planes.out_dims());
    assert_eq!(
        w.shape().dims()[1..],
        [c, r, s],
        "conv2d_from_planes: weights do not match the planes"
    );
    forward(w, Rhs::Cols(planes.view()), n, p, q, scratch)
}

/// Forward convolution from precomputed im2col columns: the oracle of
/// [`conv2d_from_planes`], the same GEMM over the materialised matrix.
///
/// # Panics
///
/// Panics if `w` is not `KCRS` or `cols` has the wrong length.
pub fn conv2d_from_cols(
    w: &Tensor,
    cols: &[f32],
    n: usize,
    p: usize,
    q: usize,
    scratch: &mut Scratch,
) -> Tensor {
    forward(w, Rhs::Slice(cols), n, p, q, scratch)
}

fn forward(
    w: &Tensor,
    cols: Rhs<'_>,
    n: usize,
    p: usize,
    q: usize,
    scratch: &mut Scratch,
) -> Tensor {
    assert_eq!(w.shape().rank(), 4, "conv forward: weights must be KCRS");
    let k = w.shape().dim(0);
    let crs = w.len() / k;
    let npq = n * p * q;
    let mut ymat = scratch.take_any(k * npq);
    // KCRS weights are row-major [K, C·R·S] as-is: no reshape copy.
    let bp = Blueprint::nn(k, crs, npq).with_threads(kernel::default_threads());
    kernel::gemm_rhs(&bp, &mut ymat, w.data(), cols, scratch);
    let mut y = scratch.take_any(npq * k);
    permute_group_pair(&mut y, &ymat, k, n, p * q);
    scratch.recycle_vec(ymat);
    Tensor::from_vec(&[n, k, p, q], y)
}

/// Weight-update convolution over the forward pass's padded input
/// planes: `∂L/∂w = dy_mat · colsᵀ`, computed as `dwᵀ[C·R·S, K]` by a
/// kernel that packs nothing.
///
/// The filter-tap value `cols[i][t]` is the broadcast operand, read as a
/// scalar straight out of the planes (`src[row_base[i] + col_off[t]]`);
/// the vector operand is 16 output channels of `dy`, from one
/// `[⌈K/16⌉][N·P·Q][16]` copy of it. A tile of 8 taps × 16 channels of
/// accumulators stays in registers across the whole `N·P·Q` reduction,
/// and the tap tiles are split over the worker pool
/// ([`kernel::default_threads`] workers claiming pieces of whole 8-tap
/// tiles), so no reduction is ever split.
///
/// For each `dw[k,c,r,s]` the contributions arrive over `(n, p, q)`
/// ascending from `+0.0`, one term at a time — exactly the scatter
/// kernel's
/// ([`conv2d_backward_weights`](crate::reference::conv2d_backward_weights))
/// reduction order — so the result compares equal (`f32 ==`) to it on
/// finite data, and to [`conv2d_backward_weights_from_cols`], at every
/// worker count. Unlike the GEMM, the kernel does not skip a zero `dy`:
/// it adds `x·(±0.0) = ±0.0` to a sum that started at `+0.0`, which
/// cannot change a bit (the `±0` argument of the CSB kernels).
///
/// # Panics
///
/// Panics if `dy` is not `[N, K, P, Q]` of the planes' convolution.
pub fn conv2d_backward_weights_from_planes(
    dy: &Tensor,
    planes: &PaddedPlanes,
    scratch: &mut Scratch,
) -> Tensor {
    backward_weights_by_taps(dy, planes, kernel::default_threads(), scratch)
}

/// Output channels of one weight-update accumulator row: one 512-bit
/// vector.
const WU_LANES: usize = 16;

/// Filter taps of one weight-update register tile, and the unit the
/// taps are split over the workers in.
const WU_TAPS: usize = 8;

/// [`conv2d_backward_weights_from_planes`] on `workers` workers (clamped
/// as [`kernel::thread::run_split`] clamps them).
fn backward_weights_by_taps(
    dy: &Tensor,
    planes: &PaddedPlanes,
    workers: usize,
    scratch: &mut Scratch,
) -> Tensor {
    let [n, c, ..] = planes.dims();
    let ((r, s), (p, q)) = (planes.filter_dims(), planes.out_dims());
    assert_eq!(dy.shape().rank(), 4, "conv wu: dy must be NKPQ");
    assert_eq!(
        [dy.shape().dim(0), dy.shape().dim(2), dy.shape().dim(3)],
        [n, p, q],
        "conv wu: dy does not match the planes"
    );
    let view = planes.view();
    view.check();
    let (k, crs, npq, pq) = (dy.shape().dim(1), c * r * s, n * p * q, p * q);
    let groups = k.div_ceil(WU_LANES);
    let width = groups * WU_LANES;

    // dy [N, K, P·Q] as [groups][N·P·Q][16], written a position (16
    // lanes) at a time; lanes past K are zero.
    let mut dyk = scratch.take_any(groups * npq * WU_LANES);
    for (ni, sample) in dy.data().chunks_exact(k * pq).enumerate() {
        for g in 0..groups {
            let live = WU_LANES.min(k - g * WU_LANES);
            let planes: [&[f32]; WU_LANES] =
                std::array::from_fn(|l| &sample[(g * WU_LANES + l.min(live - 1)) * pq..][..pq]);
            let out = &mut dyk[(g * npq + ni * pq) * WU_LANES..][..pq * WU_LANES];
            for (t, lanes) in out.chunks_exact_mut(WU_LANES).enumerate() {
                for (slot, plane) in lanes.iter_mut().zip(&planes) {
                    *slot = plane[t];
                }
                lanes[live..].fill(0.0);
            }
        }
    }

    // dwᵀ [C·R·S, groups·16], its taps claimed by the workers in pieces
    // of whole tiles.
    let mut dwt = scratch.take_any(crs * width);
    kernel::thread::run_split(workers, crs, WU_TAPS, &mut dwt, scratch, &|taps, slab| {
        wu_taps(&view, &dyk, taps, width, slab);
    });

    let mut dw = scratch.take_any(k * crs);
    for (t, row) in dwt.chunks_exact(width).enumerate() {
        for (ki, &v) in row[..k].iter().enumerate() {
            dw[ki * crs + t] = v;
        }
    }
    scratch.recycle_vec(dyk);
    scratch.recycle_vec(dwt);
    Tensor::from_vec(&[k, c, r, s], dw)
}

/// Rows `taps` of `dwᵀ` into `out` (row `t - taps.start`, `width` wide):
/// per 8-tap tile and 16-channel group, one [`wu_tile`] over all of
/// `N·P·Q`. A ragged last tile repeats its last tap and drops the copy.
fn wu_taps(
    view: &ColsView<'_>,
    dyk: &[f32],
    taps: std::ops::Range<usize>,
    width: usize,
    out: &mut [f32],
) {
    let npq = view.cols();
    for g in 0..width / WU_LANES {
        let dyg = &dyk[g * npq * WU_LANES..][..npq * WU_LANES];
        for t0 in taps.clone().step_by(WU_TAPS) {
            let live = WU_TAPS.min(taps.end - t0);
            let bases = std::array::from_fn(|i| view.row_base[t0 + i.min(live - 1)]);
            let acc = wu_tile(view, bases, dyg);
            for (i, lanes) in acc[..live].iter().enumerate() {
                let row = (t0 - taps.start + i) * width + g * WU_LANES;
                out[row..row + WU_LANES].copy_from_slice(lanes);
            }
        }
    }
}

/// `acc[i][l] = Σ_t src[bases[i] + col_off[t]] · dyg[t][l]`, `t`
/// ascending from `+0.0`: eight taps × sixteen channels in registers.
///
/// The columns are walked run by run ([`for_each_run`]): within a run
/// each tap reads one (at stride 1, contiguous) stretch of the planes,
/// bounded once per run instead of once per element.
fn wu_tile(
    view: &ColsView<'_>,
    bases: [usize; WU_TAPS],
    dyg: &[f32],
) -> [[f32; WU_LANES]; WU_TAPS] {
    let mut acc = [[0.0f32; WU_LANES]; WU_TAPS];
    let (src, col_off, step) = (view.src, view.col_off, view.step);
    for_each_run(col_off, step, |at, len| {
        let dy = dyg[at * WU_LANES..(at + len) * WU_LANES].chunks_exact(WU_LANES);
        let off = col_off[at];
        if step == 1 {
            let xs: [&[f32]; WU_TAPS] = std::array::from_fn(|i| &src[bases[i] + off..][..len]);
            for (t, d) in dy.enumerate().take(len) {
                for (a, x) in acc.iter_mut().zip(&xs) {
                    let x = x[t];
                    for (slot, &dv) in a.iter_mut().zip(d) {
                        *slot += dv * x;
                    }
                }
            }
        } else {
            for (t, d) in dy.enumerate() {
                for (a, &base) in acc.iter_mut().zip(&bases) {
                    let x = src[base + off + t * step];
                    for (slot, &dv) in a.iter_mut().zip(d) {
                        *slot += dv * x;
                    }
                }
            }
        }
    });
    acc
}

/// Weight-update convolution from materialised im2col columns: the
/// oracle of [`conv2d_backward_weights_from_planes`], one transposed-B
/// GEMM (`dy_mat · colsᵀ`).
///
/// # Panics
///
/// Panics if `dy` is not rank 4 or `cols` has the wrong length.
pub fn conv2d_backward_weights_from_cols(
    dy: &Tensor,
    cols: &[f32],
    c: usize,
    r: usize,
    s: usize,
    scratch: &mut Scratch,
) -> Tensor {
    assert_eq!(dy.shape().rank(), 4, "conv wu: dy must be NKPQ");
    let (n, k, p, q) = (
        dy.shape().dim(0),
        dy.shape().dim(1),
        dy.shape().dim(2),
        dy.shape().dim(3),
    );
    let npq = n * p * q;
    let crs = c * r * s;
    // dy arrives [N, K, P, Q]; the GEMM wants K-major rows.
    let mut dyt = scratch.take_any(k * npq);
    permute_group_pair(&mut dyt, dy.data(), n, k, p * q);
    let mut dw = scratch.take_any(k * crs);
    let bp = Blueprint::nt(k, npq, crs).with_threads(kernel::default_threads());
    kernel::gemm(&bp, &mut dw, &dyt, cols, scratch);
    scratch.recycle_vec(dyt);
    Tensor::from_vec(&[k, c, r, s], dw)
}

/// Backward-pass convolution (Fig 2b) as a GEMM: gathers `∂L/∂x` by
/// multiplying 180°-rotated, channel-swapped filters against the
/// columns of the (stride-dilated, full-padded) upstream gradient —
/// read, like the forward pass's, as a view of its padded planes
/// ([`PaddedPlanes::of_upstream`]), never unfolded.
///
/// # Why this formulation
///
/// The obvious `col2im(wᵀ·dy)` collapses the `k` (output-channel) sum
/// *before* the filter-tap sum, re-associating each `dx` element's
/// reduction and losing exact equality with the scatter kernel. Here
/// each `dx[n,c,hi,wi]` instead reduces over rotated-filter rows
/// `(k, r', s')` in ascending order, which maps back to the scatter
/// kernel's `(k, p, q)`-ascending order term for term — so the result
/// compares equal (`f32 ==`) to
/// [`conv2d_backward_input`](crate::reference::conv2d_backward_input)
/// on finite data, and to the CSB backward kernel, preserving the
/// dense==CSB contract.
///
/// # Panics
///
/// Panics on rank/channel mismatches or if `dy`'s spatial extents are not
/// consistent with `(h, w, stride, pad)`.
pub fn conv2d_backward_input_gemm(
    dy: &Tensor,
    w: &Tensor,
    h: usize,
    wdt: usize,
    stride: usize,
    pad: usize,
    scratch: &mut Scratch,
) -> Tensor {
    assert_eq!(dy.shape().rank(), 4, "conv bw: dy must be NKPQ");
    assert_eq!(w.shape().rank(), 4, "conv bw: weights must be KCRS");
    let (n, k) = (dy.shape().dim(0), dy.shape().dim(1));
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

    let krs = k * r * s;
    let nhw = n * h * wdt;

    // Rotated, channel-swapped filter matrix: wrot[c][(k, r', s')] =
    // w[k, c, r-1-r', s-1-s'] (the fetch-time rotation of Fig 2b).
    let mut wrot = scratch.take_any(c * krs);
    let ws = w.data();
    for ci in 0..c {
        for ki in 0..k {
            for rr in 0..r {
                for ss in 0..s {
                    wrot[ci * krs + (ki * r + rr) * s + ss] =
                        ws[((ki * c + ci) * r + (r - 1 - rr)) * s + (s - 1 - ss)];
                }
            }
        }
    }

    // cols[(k, r', s')][(n, hi, wi)] = the dilated, padded dy at
    // (hi + r', wi + s') of plane (n, k).
    let dyp = PaddedPlanes::of_upstream(dy, r, s, h, wdt, stride, pad, scratch);
    let mut dxmat = scratch.take_any(c * nhw);
    kernel::gemm_cols(
        &Blueprint::nn(c, krs, nhw).with_threads(kernel::default_threads()),
        &mut dxmat,
        &wrot,
        &dyp.view(),
        scratch,
    );
    scratch.recycle_vec(wrot);
    dyp.recycle(scratch);

    let mut dx = scratch.take_any(c * nhw);
    permute_group_pair(&mut dx, &dxmat, c, n, h * wdt);
    scratch.recycle_vec(dxmat);
    Tensor::from_vec(&[n, c, h, wdt], dx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{conv2d_backward_input, conv2d_backward_weights, matmul_ikj};
    use procrustes_prng::Xorshift64;

    #[test]
    fn out_dim_formula() {
        assert_eq!(conv_out_dim(5, 3, 1, 0), 3);
        assert_eq!(conv_out_dim(5, 3, 1, 1), 5);
        assert_eq!(conv_out_dim(8, 3, 2, 1), 4);
        assert_eq!(conv_out_dim(1, 1, 1, 0), 1);
    }

    /// The closed form counts exactly the window positions that fit.
    #[test]
    fn out_dim_counts_window_positions() {
        for input in 1..20 {
            for filter in 1..5 {
                for stride in 1..4 {
                    for pad in 0..3 {
                        if input + 2 * pad < filter {
                            continue;
                        }
                        let walked = (0..)
                            .take_while(|p| p * stride + filter <= input + 2 * pad)
                            .count();
                        assert_eq!(
                            conv_out_dim(input, filter, stride, pad),
                            walked,
                            "input {input} filter {filter} stride {stride} pad {pad}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "filter 7 larger")]
    fn out_dim_rejects_oversized_filter() {
        conv_out_dim(3, 7, 1, 1);
    }

    /// Mixed-density tensors (exact zeros included) over odd geometries:
    /// stride 2, pad 0/1, 1×1 filters, non-square filters, ragged
    /// spatial extents.
    fn sparse4(dims: &[usize], keep: f64, seed: u64) -> Tensor {
        use procrustes_prng::UniformRng;
        let mut rng = Xorshift64::new(seed);
        Tensor::from_fn(dims, |_| {
            if rng.next_f64() < keep {
                rng.next_f32() * 2.0 - 1.0
            } else {
                0.0
            }
        })
    }

    /// `(n, c, k, h, w, kernel, stride, pad)` test geometries.
    type Geometry = (usize, usize, usize, usize, usize, usize, usize, usize);

    const GEOMETRIES: &[Geometry] = &[
        // (n, c, k, h, w, kernel_r, stride, pad)
        (2, 3, 4, 8, 8, 3, 1, 1),
        (1, 2, 3, 7, 5, 3, 2, 1),
        (2, 1, 2, 6, 6, 3, 2, 0),
        (1, 3, 2, 5, 5, 1, 1, 0),
        (1, 2, 2, 9, 4, 1, 2, 0),
        (2, 2, 5, 4, 4, 3, 1, 0),
    ];

    #[test]
    fn im2col_into_matches_allocating_path() {
        let x = sparse4(&[2, 3, 6, 5], 0.6, 51);
        let want = im2col(&x, 3, 3, 2, 1);
        let mut dst = vec![7.0f32; want.len()]; // stale garbage
        im2col_into(&x, 3, 3, 2, 1, &mut dst);
        assert_eq!(&dst, want.data());
    }

    /// `reference::conv2d_im2col` is itself built on `conv2d_from_cols`,
    /// so the forward oracle is one level down: the naive matmul of the
    /// weight matrix against the columns, read back plane by plane.
    #[test]
    fn forward_from_cols_is_equal_to_naive_matmul_of_the_columns() {
        let mut scratch = Scratch::new();
        for &(n, c, k, h, wd, kr, stride, pad) in GEOMETRIES {
            let x = sparse4(&[n, c, h, wd], 0.7, (n * 7 + h) as u64);
            let w = sparse4(&[k, c, kr, kr], 0.4, (k * 13 + kr) as u64);
            let p = conv_out_dim(h, kr, stride, pad);
            let q = conv_out_dim(wd, kr, stride, pad);
            let cols = im2col(&x, kr, kr, stride, pad);
            let got = conv2d_from_cols(&w, cols.data(), n, p, q, &mut scratch);
            assert_eq!(got.shape().dims(), &[n, k, p, q]);
            let ymat = matmul_ikj(w.data(), cols.data(), k, c * kr * kr, n * p * q);
            for ni in 0..n {
                for ki in 0..k {
                    assert_eq!(
                        got.data()[(ni * k + ki) * p * q..][..p * q],
                        ymat[(ki * n + ni) * p * q..][..p * q],
                        "geometry {n},{c},{k},{h},{wd} plane ({ni},{ki})"
                    );
                }
            }
            scratch.recycle(got);
        }
    }

    #[test]
    fn backward_weights_from_cols_is_equal_to_scatter() {
        let mut scratch = Scratch::new();
        for &(n, c, k, h, wd, kr, stride, pad) in GEOMETRIES {
            let x = sparse4(&[n, c, h, wd], 0.5, (h * 3 + wd) as u64);
            let p = conv_out_dim(h, kr, stride, pad);
            let q = conv_out_dim(wd, kr, stride, pad);
            let dy = sparse4(&[n, k, p, q], 0.6, (k * 5 + p) as u64);
            let cols = im2col(&x, kr, kr, stride, pad);
            let got = conv2d_backward_weights_from_cols(&dy, cols.data(), c, kr, kr, &mut scratch);
            let want = conv2d_backward_weights(&x, &dy, kr, kr, stride, pad);
            assert_eq!(got.shape(), want.shape());
            assert_eq!(got.data(), want.data(), "geometry {n},{c},{k},{h},{wd}");
            scratch.recycle(got);
        }
    }

    /// A seeded tensor whose values are a third exact `+0.0` (what ReLU
    /// leaves), a sixth `-0.0` and the rest nonzero, with channel 0 of
    /// every sample all `fill` — a dead channel of `x` (`+0.0`) or an
    /// all-negative channel of `dy`.
    fn signed_zeros(dims: &[usize], fill: f32, seed: u64) -> Tensor {
        use procrustes_prng::UniformRng;
        let mut rng = Xorshift64::new(seed);
        let mut t = Tensor::from_fn(dims, |_| match rng.next_f64() {
            u if u < 1.0 / 3.0 => 0.0,
            u if u < 0.5 => -0.0,
            _ => rng.next_f32() * 2.0 - 1.0,
        });
        let plane = dims[2] * dims[3];
        for sample in t.data_mut().chunks_exact_mut(dims[1] * plane) {
            sample[..plane].fill(fill);
        }
        t
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// The tap-split weight update at 1/2/3/4/8 workers against the GEMM
    /// over the columns and the scatter oracle, bit for bit: output
    /// channels that fill one 16-lane group, part of one, or spill into
    /// the next; fewer taps than one 8-tap tile (a 1×1 conv over three
    /// channels), ragged tiles, stride 2, pad 0 and 2, a single sample.
    /// `dw[0, 0, ..]` sums only `-0.0` terms (a dead input channel
    /// against an all-negative gradient channel), so it must come out
    /// `+0.0`.
    #[test]
    fn weight_update_by_taps_is_bitwise_equal_at_every_worker_count() {
        let mut scratch = Scratch::new();
        // (n, c, h, w, kernel, stride, pad)
        let geometries = [
            (2, 3, 7, 6, 3, 1, 1),
            (1, 3, 5, 5, 1, 1, 0),
            (1, 2, 9, 7, 3, 2, 0),
            (2, 4, 6, 6, 3, 2, 2),
            (3, 5, 5, 4, 3, 1, 1),
        ];
        for (gi, &(n, c, h, wd, kr, stride, pad)) in geometries.iter().enumerate() {
            let x = signed_zeros(&[n, c, h, wd], 0.0, 40 + gi as u64);
            let planes = PaddedPlanes::of_input(&x, kr, kr, stride, pad, &mut scratch);
            let cols = im2col(&x, kr, kr, stride, pad);
            let (p, q) = planes.out_dims();
            for k in [1, 6, 8, 16, 17, 40, 64] {
                let dy = signed_zeros(&[n, k, p, q], -0.5, (50 + gi * 64 + k) as u64);
                let what = format!("geometry {gi}, k {k}");
                let want = conv2d_backward_weights(&x, &dy, kr, kr, stride, pad);
                let oracle =
                    conv2d_backward_weights_from_cols(&dy, cols.data(), c, kr, kr, &mut scratch);
                assert_eq!(bits(&oracle), bits(&want), "{what}: columns vs scatter");
                assert_eq!(want.data()[0].to_bits(), 0, "{what}: dead tap is +0.0");
                for workers in [1, 2, 3, 4, 8] {
                    let got = backward_weights_by_taps(&dy, &planes, workers, &mut scratch);
                    assert_eq!(got.shape(), want.shape(), "{what}");
                    assert_eq!(bits(&got), bits(&want), "{what}: {workers} workers");
                    scratch.recycle(got);
                }
                scratch.recycle(oracle);
            }
            planes.recycle(&mut scratch);
        }
    }

    #[test]
    fn backward_input_gemm_is_equal_to_scatter() {
        let mut scratch = Scratch::new();
        for &(n, c, k, h, wd, kr, stride, pad) in GEOMETRIES {
            let w = sparse4(&[k, c, kr, kr], 0.4, (c * 11 + kr) as u64);
            let p = conv_out_dim(h, kr, stride, pad);
            let q = conv_out_dim(wd, kr, stride, pad);
            let dy = sparse4(&[n, k, p, q], 0.6, (k * 9 + q) as u64);
            let got = conv2d_backward_input_gemm(&dy, &w, h, wd, stride, pad, &mut scratch);
            let want = conv2d_backward_input(&dy, &w, h, wd, stride, pad);
            assert_eq!(got.shape(), want.shape());
            assert_eq!(got.data(), want.data(), "geometry {n},{c},{k},{h},{wd}");
            scratch.recycle(got);
        }
    }

    #[test]
    fn backward_input_gemm_handles_non_square_filters() {
        let mut scratch = Scratch::new();
        let w = sparse4(&[2, 2, 3, 2], 0.8, 91);
        let p = conv_out_dim(7, 3, 2, 1);
        let q = conv_out_dim(6, 2, 2, 1);
        let dy = sparse4(&[1, 2, p, q], 0.9, 92);
        let got = conv2d_backward_input_gemm(&dy, &w, 7, 6, 2, 1, &mut scratch);
        let want = conv2d_backward_input(&dy, &w, 7, 6, 2, 1);
        assert_eq!(got.data(), want.data());
    }
}
