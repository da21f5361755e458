//! CSB-backed compute kernels: the sparse fast path of the training loop.
//!
//! These are the software analogues of the Procrustes PE datapath: the
//! forward and backward convolutions and the fully-connected products,
//! consuming weights directly in the [`CsbTensor`] format so that every
//! elided (zero) weight is also an elided multiply-accumulate — the
//! *computation sparsity* of §III-A turned into actual work savings, the
//! same way SparseTrain exploits dataflow sparsity inside the kernels.
//!
//! # Numerical contract
//!
//! Each kernel accumulates partial products in exactly the order the
//! corresponding dense kernel in `procrustes-tensor` does (zero terms are
//! skipped, which cannot change an IEEE-754 sum), so outputs match the
//! dense path *bitwise*, not merely within a tolerance. Training under
//! either backend therefore produces identical loss curves; the
//! equivalence suite in `tests/` pins this down.

use procrustes_tensor::{conv_out_dim, Scratch, Tensor};

use crate::{CsbLayout, CsbTensor};

/// One decoded nonzero of a conv block: `(r, s, value)`.
type BlockNz = Vec<(usize, usize, f32)>;

/// Decodes every `(k, c)` block of a conv-layout tensor into its nonzero
/// `(r, s, value)` triples, in ascending `(r, s)` order.
///
/// The decode goes through [`CsbTensor::block_dense_rotated180`] — the
/// fetch-time rotation the backward pass uses (§IV-B) — and un-rotates
/// the coordinates, so both the forward and backward kernels share one
/// decode path that exercises the hardware's fetch transform.
fn decode_conv_blocks(w: &CsbTensor) -> (usize, usize, usize, usize, Vec<BlockNz>) {
    let CsbLayout::Conv { k, c, r, s } = w.layout() else {
        panic!("csb conv kernel: weights must have a conv layout");
    };
    let mut blocks = Vec::with_capacity(k * c);
    for ki in 0..k {
        for ci in 0..c {
            let rot = w.block_dense_rotated180(ki, ci);
            let mut nz: BlockNz = Vec::with_capacity(w.block_nnz(ki, ci));
            // Walking the rotated fetch backwards restores ascending
            // (r, s) order: rot[j] = w[k, c, r-1-j/s, s-1-j%s].
            for j in (0..rot.len()).rev() {
                if rot[j] != 0.0 {
                    let flat = r * s - 1 - j;
                    nz.push((flat / s, flat % s, rot[j]));
                }
            }
            blocks.push(nz);
        }
    }
    (k, c, r, s, blocks)
}

fn check_activations(x: &Tensor, c: usize) -> (usize, usize, usize) {
    assert_eq!(x.shape().rank(), 4, "csb conv: activations must be NCHW");
    assert_eq!(
        x.shape().dim(1),
        c,
        "csb conv: input channels {} != weight input channels {c}",
        x.shape().dim(1)
    );
    (x.shape().dim(0), x.shape().dim(2), x.shape().dim(3))
}

/// Forward convolution with CSB weights: the sparse counterpart of
/// `conv2d_from_cols`, skipping every zero weight.
///
/// Bitwise-equal to the dense forward path for the same operands.
///
/// # Panics
///
/// Panics if `w` is not conv-layout, `x` is not `NCHW`, channels
/// mismatch, or the filter does not fit.
///
/// # Examples
///
/// ```
/// use procrustes_sparse::{csb_conv2d, CsbTensor};
/// use procrustes_tensor::{reference::conv2d, Tensor};
///
/// let w = Tensor::from_vec(&[1, 1, 3, 3],
///     vec![0.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0]);
/// let x = Tensor::ones(&[1, 1, 3, 3]);
/// let y = csb_conv2d(&x, &CsbTensor::from_dense_conv(&w), 1, 0);
/// assert_eq!(y.data(), conv2d(&x, &w, 1, 0).data());
/// ```
pub fn csb_conv2d(x: &Tensor, w: &CsbTensor, stride: usize, pad: usize) -> Tensor {
    let (k, c, r, s, blocks) = decode_conv_blocks(w);
    let (n, h, wdt) = check_activations(x, c);
    let p = conv_out_dim(h, r, stride, pad);
    let q = conv_out_dim(wdt, s, stride, pad);
    let mut y = Tensor::zeros(&[n, k, p, q]);
    let xs = x.data();
    let ys = y.data_mut();
    // Nonzeros drive the outer loop, output positions the inner one, so
    // the work is `nnz · P · Q` with a contiguous inner walk. For any
    // fixed output element the (c, r, s) contributions still arrive in
    // ascending order — the im2col matmul's reduction order — so the
    // result stays bitwise-equal to the dense path.
    for ni in 0..n {
        for ki in 0..k {
            let yrow = &mut ys[(ni * k + ki) * p * q..(ni * k + ki + 1) * p * q];
            for ci in 0..c {
                let xplane = &xs[(ni * c + ci) * h * wdt..(ni * c + ci + 1) * h * wdt];
                for &(ri, si, v) in &blocks[ki * c + ci] {
                    // Hoist the padding bounds: the valid output range for
                    // this filter tap, so the inner loops are branch-free.
                    let (Some((p_lo, p_hi)), Some((q_lo, q_hi))) = (
                        valid_out_range(p, h, ri, stride, pad),
                        valid_out_range(q, wdt, si, stride, pad),
                    ) else {
                        continue;
                    };
                    for pi in p_lo..=p_hi {
                        let xrow = (pi * stride + ri - pad) * wdt;
                        if stride == 1 {
                            // Contiguous in qi: a slice zip the compiler
                            // can vectorize.
                            let xline = &xplane[xrow + q_lo + si - pad..=xrow + q_hi + si - pad];
                            let yline = &mut yrow[pi * q + q_lo..=pi * q + q_hi];
                            for (slot, &xv) in yline.iter_mut().zip(xline) {
                                *slot += v * xv;
                            }
                        } else {
                            for qi in q_lo..=q_hi {
                                yrow[pi * q + qi] += v * xplane[xrow + qi * stride + si - pad];
                            }
                        }
                    }
                }
            }
        }
    }
    y
}

/// Output positions `o` with `pad <= o·stride + tap < extent + pad`,
/// as an inclusive range (`None` when empty).
fn valid_out_range(
    out: usize,
    extent: usize,
    tap: usize,
    stride: usize,
    pad: usize,
) -> Option<(usize, usize)> {
    if tap >= extent + pad {
        return None;
    }
    let lo = pad.saturating_sub(tap).div_ceil(stride);
    let hi = ((extent + pad - tap - 1) / stride).min(out - 1);
    (lo <= hi).then_some((lo, hi))
}

/// Backward-input convolution with CSB weights (Fig 2b): propagates
/// `∂L/∂y` through 180°-rotated sparse filters, skipping every zero
/// weight *and* every zero upstream gradient.
///
/// The filters are decoded through the CSB fetch-time rotation
/// ([`CsbTensor::block_dense_rotated180`]); `h`/`wdt` are the input
/// spatial extents. Bitwise-equal to `reference::conv2d_backward_input`.
///
/// # Panics
///
/// Panics if `w` is not conv-layout or `dy` is inconsistent with the
/// `(h, wdt, stride, pad)` geometry.
pub fn csb_conv2d_backward_input(
    dy: &Tensor,
    w: &CsbTensor,
    h: usize,
    wdt: usize,
    stride: usize,
    pad: usize,
) -> Tensor {
    let (k, c, r, s, blocks) = decode_conv_blocks(w);
    assert_eq!(dy.shape().rank(), 4, "csb conv bw: dy must be NKPQ");
    let (n, kd, p, q) = (
        dy.shape().dim(0),
        dy.shape().dim(1),
        dy.shape().dim(2),
        dy.shape().dim(3),
    );
    assert_eq!(
        k, kd,
        "csb conv bw: dy channels {kd} != weight out-channels {k}"
    );
    assert_eq!(
        p,
        conv_out_dim(h, r, stride, pad),
        "csb conv bw: dy height inconsistent with input geometry"
    );
    assert_eq!(
        q,
        conv_out_dim(wdt, s, stride, pad),
        "csb conv bw: dy width inconsistent with input geometry"
    );
    let mut dx = Tensor::zeros(&[n, c, h, wdt]);
    let dys = dy.data();
    let dxs = dx.data_mut();
    // Scatter form with the dense kernel's exact nesting, so each dx
    // element receives its contributions in the same order.
    for ni in 0..n {
        for ki in 0..k {
            for pi in 0..p {
                for qi in 0..q {
                    let g = dys[((ni * k + ki) * p + pi) * q + qi];
                    if g == 0.0 {
                        continue;
                    }
                    for ci in 0..c {
                        let xbase = (ni * c + ci) * h;
                        for &(ri, si, v) in &blocks[ki * c + ci] {
                            let hi = pi * stride + ri;
                            if hi < pad || hi - pad >= h {
                                continue;
                            }
                            let wi = qi * stride + si;
                            if wi < pad || wi - pad >= wdt {
                                continue;
                            }
                            dxs[(xbase + hi - pad) * wdt + wi - pad] += g * v;
                        }
                    }
                }
            }
        }
    }
    dx
}

/// Weight-update convolution restricted to the CSB mask: accumulates
/// `∂L/∂w[k,c,r,s]` **only** at positions where `mask` stores a nonzero,
/// leaving every pruned position exactly zero.
///
/// This is the fixed-mask (SparseTrain-style) weight update; Dropback
/// training instead needs the full dense gradient (any weight may be
/// re-admitted), which the layers keep computing with the dense kernel.
/// At mask positions the result is bitwise-equal to
/// `conv2d_backward_weights`.
///
/// # Panics
///
/// Panics if `mask` is not conv-layout or the geometries are
/// inconsistent.
pub fn csb_conv2d_backward_weights_masked(
    x: &Tensor,
    dy: &Tensor,
    mask: &CsbTensor,
    stride: usize,
    pad: usize,
) -> Tensor {
    let (k, c, r, s, blocks) = decode_conv_blocks(mask);
    let (n, h, wdt) = check_activations(x, c);
    assert_eq!(dy.shape().rank(), 4, "csb conv wu: dy must be NKPQ");
    assert_eq!(
        dy.shape().dim(0),
        n,
        "csb conv wu: batch mismatch {} != {n}",
        dy.shape().dim(0)
    );
    assert_eq!(dy.shape().dim(1), k, "csb conv wu: dy channel mismatch");
    let (p, q) = (dy.shape().dim(2), dy.shape().dim(3));
    assert_eq!(
        p,
        conv_out_dim(h, r, stride, pad),
        "csb conv wu: bad dy height"
    );
    assert_eq!(
        q,
        conv_out_dim(wdt, s, stride, pad),
        "csb conv wu: bad dy width"
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
                        let xbase = (ni * c + ci) * h;
                        for &(ri, si, _) in &blocks[ki * c + ci] {
                            let hi = pi * stride + ri;
                            if hi < pad || hi - pad >= h {
                                continue;
                            }
                            let wi = qi * stride + si;
                            if wi < pad || wi - pad >= wdt {
                                continue;
                            }
                            dws[((ki * c + ci) * r + ri) * s + si] +=
                                g * xs[(xbase + hi - pad) * wdt + wi - pad];
                        }
                    }
                }
            }
        }
    }
    dw
}

/// A flat CSR-style decode of an fc-layout [`CsbTensor`]: per output
/// row, the `(column, value)` pairs in ascending column order.
///
/// The fc matvec previously rebuilt a nested per-row decode on every
/// call — a heap-allocation storm in the training hot loop. Layers now
/// build an `FcDecode` once per weight resync and run every
/// forward/backward matvec through [`FcDecode::matvec_into`] with a
/// pooled output buffer, so the steady-state sparse fc path performs no
/// allocation and no repeated mask decoding.
///
/// # Examples
///
/// ```
/// use procrustes_sparse::{CsbTensor, FcDecode};
/// use procrustes_tensor::Tensor;
///
/// let w = Tensor::from_vec(&[2, 3], vec![1.0, 0.0, 2.0, 0.0, 3.0, 0.0]);
/// let decode = FcDecode::from_csb(&CsbTensor::from_dense_fc(&w, 2));
/// let mut y = [0.0f32; 2];
/// decode.matvec_into(&[10.0, 20.0, 30.0], 1, &mut y);
/// assert_eq!(y, [70.0, 60.0]);
/// ```
#[derive(Debug, Clone)]
pub struct FcDecode {
    out: usize,
    inp: usize,
    /// `row_ptr[o]..row_ptr[o+1]` indexes the entries of output row `o`.
    row_ptr: Vec<u32>,
    idx: Vec<u32>,
    val: Vec<f32>,
}

impl FcDecode {
    /// Decodes an fc-layout CSB tensor.
    ///
    /// Blocks are visited in grid order so each row's entries arrive
    /// with ascending column index — the ikj matmul's reduction order.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not fc-layout.
    pub fn from_csb(w: &CsbTensor) -> Self {
        let CsbLayout::Fc { out, inp, edge } = w.layout() else {
            panic!("FcDecode: weights must have an fc layout");
        };
        let (gr, gc) = w.layout().grid();
        let nnz = w.nnz();
        let mut counts = vec![0u32; out + 1];
        for gi in 0..gr {
            for gj in 0..gc {
                let (_, bc) = w.layout().block_extent(gi, gj);
                for slot in w.block_mask(gi, gj).iter_ones() {
                    counts[gi * edge + slot / bc + 1] += 1;
                }
            }
        }
        for o in 0..out {
            counts[o + 1] += counts[o];
        }
        let row_ptr = counts;
        let mut cursor: Vec<u32> = row_ptr[..out].to_vec();
        let mut idx = vec![0u32; nnz];
        let mut val = vec![0.0f32; nnz];
        for gi in 0..gr {
            for gj in 0..gc {
                let (_, bc) = w.layout().block_extent(gi, gj);
                let mask = w.block_mask(gi, gj);
                let vals = w.block_values(gi, gj);
                for (slot, &v) in mask.iter_ones().zip(vals) {
                    let o = gi * edge + slot / bc;
                    let at = cursor[o] as usize;
                    idx[at] = (gj * edge + slot % bc) as u32;
                    val[at] = v;
                    cursor[o] += 1;
                }
            }
        }
        Self {
            out,
            inp,
            row_ptr,
            idx,
            val,
        }
    }

    /// Output features (rows of `W`).
    pub fn out_features(&self) -> usize {
        self.out
    }

    /// Input features (columns of `W`).
    pub fn in_features(&self) -> usize {
        self.inp
    }

    /// Stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.val.len()
    }

    /// `dst = x·Wᵀ` for row-major `x: [n, in]`, `dst: [n, out]` —
    /// allocation-free. Per output element the stored nonzeros reduce in
    /// ascending column order, so the result is bitwise-equal to the
    /// dense `x.matmul(&w.transpose2d())`.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree with `n` and the decode's
    /// feature counts.
    pub fn matvec_into(&self, x: &[f32], n: usize, dst: &mut [f32]) {
        assert_eq!(x.len(), n * self.inp, "FcDecode: input length mismatch");
        assert_eq!(dst.len(), n * self.out, "FcDecode: output length mismatch");
        for ni in 0..n {
            let xrow = &x[ni * self.inp..(ni + 1) * self.inp];
            let yrow = &mut dst[ni * self.out..(ni + 1) * self.out];
            for (o, slot) in yrow.iter_mut().enumerate() {
                let lo = self.row_ptr[o] as usize;
                let hi = self.row_ptr[o + 1] as usize;
                let mut acc = 0.0f32;
                for (&i, &v) in self.idx[lo..hi].iter().zip(&self.val[lo..hi]) {
                    acc += v * xrow[i as usize];
                }
                *slot = acc;
            }
        }
    }

    /// `dst = x·Wᵀ` like [`FcDecode::matvec_into`], but batched through
    /// `scratch`: the input is transposed into a pooled column-major
    /// staging buffer so each stored nonzero updates a contiguous run of
    /// `n` accumulators — the autovectorizable form of the same
    /// reduction, in place of the per-sample gather loop. Per output
    /// element the nonzeros still reduce in ascending column order from
    /// `0.0`, so the result is bitwise-identical to
    /// [`FcDecode::matvec_into`] (and to the dense
    /// `x.matmul(&w.transpose2d())`).
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree with `n` and the decode's
    /// feature counts.
    pub fn matvec_scratch(&self, x: &[f32], n: usize, dst: &mut [f32], scratch: &mut Scratch) {
        if n <= 1 {
            // A single sample is already column-contiguous; the scalar
            // loop is the batched loop without the staging copies.
            return self.matvec_into(x, n, dst);
        }
        assert_eq!(x.len(), n * self.inp, "FcDecode: input length mismatch");
        assert_eq!(dst.len(), n * self.out, "FcDecode: output length mismatch");
        let mut xt = scratch.take_any(n * self.inp);
        for ni in 0..n {
            let xrow = &x[ni * self.inp..(ni + 1) * self.inp];
            for (i, &v) in xrow.iter().enumerate() {
                xt[i * n + ni] = v;
            }
        }
        let mut acc = scratch.take_any(n);
        for o in 0..self.out {
            acc.fill(0.0);
            let lo = self.row_ptr[o] as usize;
            let hi = self.row_ptr[o + 1] as usize;
            for (&i, &v) in self.idx[lo..hi].iter().zip(&self.val[lo..hi]) {
                let col = &xt[i as usize * n..i as usize * n + n];
                for (slot, &xv) in acc.iter_mut().zip(col) {
                    *slot += v * xv;
                }
            }
            for (ni, &a) in acc.iter().enumerate() {
                dst[ni * self.out + o] = a;
            }
        }
        scratch.recycle_vec(acc);
        scratch.recycle_vec(xt);
    }
}

/// Fully-connected product with CSB weights: `y = x·Wᵀ` for
/// `x: [N, in]`, `W: [out, in]` in fc layout — the sparse matvec of the
/// PE decode path, skipping every zero weight.
///
/// Convenience wrapper that decodes on every call; steady-state callers
/// (the `Linear` layer) cache an [`FcDecode`] instead and use
/// [`FcDecode::matvec_scratch`] with pooled buffers.
///
/// The backward pass reuses this same kernel on the piecewise-transposed
/// tensor: `dx = csb_fc_forward(dy, &w.transposed_fc())` computes
/// `dy·W`. Bitwise-equal to the dense `x.matmul(&w.transpose2d())`.
///
/// # Panics
///
/// Panics if `w` is not fc-layout or the feature dimensions mismatch.
///
/// # Examples
///
/// ```
/// use procrustes_sparse::{csb_fc_forward, CsbTensor};
/// use procrustes_tensor::Tensor;
///
/// let w = Tensor::from_vec(&[2, 3], vec![1.0, 0.0, 2.0, 0.0, 3.0, 0.0]);
/// let csb = CsbTensor::from_dense_fc(&w, 2);
/// let x = Tensor::from_vec(&[1, 3], vec![10.0, 20.0, 30.0]);
/// let y = csb_fc_forward(&x, &csb);
/// assert_eq!(y.data(), &[70.0, 60.0]);
/// // Backward: dx = dy·W through the transposed fetch.
/// let dy = Tensor::from_vec(&[1, 2], vec![1.0, 1.0]);
/// let dx = csb_fc_forward(&dy, &csb.transposed_fc());
/// assert_eq!(dx.data(), &[1.0, 3.0, 2.0]);
/// ```
pub fn csb_fc_forward(x: &Tensor, w: &CsbTensor) -> Tensor {
    let CsbLayout::Fc { out, inp, .. } = w.layout() else {
        panic!("csb_fc_forward: weights must have an fc layout");
    };
    assert_eq!(x.shape().rank(), 2, "csb fc: input must be [N, features]");
    assert_eq!(
        x.shape().dim(1),
        inp,
        "csb fc: input features {} != weight in-features {inp}",
        x.shape().dim(1)
    );
    let n = x.shape().dim(0);
    let decode = FcDecode::from_csb(w);
    let mut y = Tensor::zeros(&[n, out]);
    decode.matvec_scratch(x.data(), n, y.data_mut(), &mut Scratch::new());
    y
}

/// Fc weight update restricted to the CSB mask: `∂L/∂w[o,i] =
/// Σ_n dy[n,o]·x[n,i]` **only** where `mask` stores a nonzero.
///
/// At mask positions the result is bitwise-equal to the dense
/// `dy.transpose2d().matmul(x)`.
///
/// # Panics
///
/// Panics if `mask` is not fc-layout or the shapes are inconsistent.
pub fn csb_fc_backward_weights_masked(x: &Tensor, dy: &Tensor, mask: &CsbTensor) -> Tensor {
    let CsbLayout::Fc { out, inp, edge } = mask.layout() else {
        panic!("csb_fc_backward_weights_masked: mask must have an fc layout");
    };
    assert_eq!(x.shape().rank(), 2, "csb fc wu: x must be [N, in]");
    assert_eq!(dy.shape().rank(), 2, "csb fc wu: dy must be [N, out]");
    let n = x.shape().dim(0);
    assert_eq!(dy.shape().dim(0), n, "csb fc wu: batch mismatch");
    assert_eq!(x.shape().dim(1), inp, "csb fc wu: in-features mismatch");
    assert_eq!(dy.shape().dim(1), out, "csb fc wu: out-features mismatch");
    let (gr, gc) = mask.layout().grid();
    let mut dw = Tensor::zeros(&[out, inp]);
    let xs = x.data();
    let dys = dy.data();
    let dws = dw.data_mut();
    for gi in 0..gr {
        for gj in 0..gc {
            let (_, bc) = mask.layout().block_extent(gi, gj);
            for slot in mask.block_mask(gi, gj).iter_ones() {
                let o = gi * edge + slot / bc;
                let i = gj * edge + slot % bc;
                let mut acc = 0.0f32;
                for ni in 0..n {
                    acc += dys[ni * out + o] * xs[ni * inp + i];
                }
                dws[o * inp + i] = acc;
            }
        }
    }
    dw
}

#[cfg(test)]
mod tests {
    use super::*;
    use procrustes_prng::{UniformRng, Xorshift64};
    use procrustes_tensor::reference::{
        conv2d_backward_input, conv2d_backward_weights, conv2d_im2col,
    };

    fn sparse_tensor(dims: &[usize], keep: f64, seed: u64) -> Tensor {
        let mut rng = Xorshift64::new(seed);
        Tensor::from_fn(dims, |_| {
            if rng.next_f64() < keep {
                rng.next_f32() * 2.0 - 1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn conv_forward_is_bitwise_equal_to_im2col() {
        for (keep, stride, pad, seed) in [
            (0.3, 1, 1, 1u64),
            (0.05, 2, 1, 2),
            (1.0, 1, 0, 3),
            (0.0, 1, 1, 4),
        ] {
            let w = sparse_tensor(&[4, 3, 3, 3], keep, seed);
            let x = sparse_tensor(&[2, 3, 8, 8], 0.7, seed + 100);
            let csb = CsbTensor::from_dense_conv(&w);
            let got = csb_conv2d(&x, &csb, stride, pad);
            let want = conv2d_im2col(&x, &w, stride, pad);
            assert_eq!(got.data(), want.data(), "keep={keep} stride={stride}");
        }
    }

    #[test]
    fn conv_backward_input_is_bitwise_equal_to_dense() {
        for (keep, stride, pad, seed) in [(0.25, 1, 1, 5u64), (0.1, 2, 1, 6), (1.0, 1, 0, 7)] {
            let w = sparse_tensor(&[3, 2, 3, 3], keep, seed);
            let csb = CsbTensor::from_dense_conv(&w);
            let (h, wdt) = (8, 8);
            let p = conv_out_dim(h, 3, stride, pad);
            let q = conv_out_dim(wdt, 3, stride, pad);
            let dy = sparse_tensor(&[2, 3, p, q], 0.6, seed + 200);
            let got = csb_conv2d_backward_input(&dy, &csb, h, wdt, stride, pad);
            let want = conv2d_backward_input(&dy, &w, h, wdt, stride, pad);
            assert_eq!(got.data(), want.data(), "keep={keep} stride={stride}");
        }
    }

    #[test]
    fn conv_masked_weight_grad_matches_dense_under_mask() {
        let w = sparse_tensor(&[3, 2, 3, 3], 0.4, 8);
        let csb = CsbTensor::from_dense_conv(&w);
        let x = sparse_tensor(&[2, 2, 6, 6], 0.8, 9);
        let dy = sparse_tensor(&[2, 3, 6, 6], 0.7, 10);
        let got = csb_conv2d_backward_weights_masked(&x, &dy, &csb, 1, 1);
        let dense = conv2d_backward_weights(&x, &dy, 3, 3, 1, 1);
        for i in 0..w.len() {
            if w.data()[i] != 0.0 {
                assert_eq!(got.data()[i], dense.data()[i], "masked position {i}");
            } else {
                assert_eq!(got.data()[i], 0.0, "pruned position {i} must stay zero");
            }
        }
    }

    #[test]
    fn fc_forward_is_bitwise_equal_to_matmul() {
        // Ragged (10x7, edge 4), exact-multiple (8x8, edge 4), edge larger
        // than the matrix, and the degenerate densities.
        for (dims, edge, keep, seed) in [
            ([10usize, 7], 4usize, 0.35, 11u64),
            ([8, 8], 4, 0.5, 12),
            ([3, 5], 8, 0.6, 13),
            ([6, 6], 3, 1.0, 14),
            ([6, 6], 3, 0.0, 15),
        ] {
            let w = sparse_tensor(&dims, keep, seed);
            let csb = CsbTensor::from_dense_fc(&w, edge);
            let x = sparse_tensor(&[3, dims[1]], 0.8, seed + 300);
            let got = csb_fc_forward(&x, &csb);
            let want = x.matmul(&w.transpose2d());
            assert_eq!(got.data(), want.data(), "dims={dims:?} edge={edge}");
        }
    }

    #[test]
    fn fc_backward_via_transpose_is_bitwise_equal() {
        for (dims, edge, seed) in [([9usize, 6], 4usize, 16u64), ([5, 11], 3, 17)] {
            let w = sparse_tensor(&dims, 0.4, seed);
            let csb = CsbTensor::from_dense_fc(&w, edge);
            let dy = sparse_tensor(&[4, dims[0]], 0.6, seed + 400);
            let got = csb_fc_forward(&dy, &csb.transposed_fc());
            let want = dy.matmul(&w);
            assert_eq!(got.data(), want.data(), "dims={dims:?}");
        }
    }

    #[test]
    fn fc_masked_weight_grad_matches_dense_under_mask() {
        let w = sparse_tensor(&[7, 5], 0.45, 18);
        let csb = CsbTensor::from_dense_fc(&w, 3);
        let x = sparse_tensor(&[4, 5], 0.9, 19);
        let dy = sparse_tensor(&[4, 7], 0.9, 20);
        let got = csb_fc_backward_weights_masked(&x, &dy, &csb);
        let dense = dy.transpose2d().matmul(&x);
        for i in 0..w.len() {
            if w.data()[i] != 0.0 {
                assert_eq!(got.data()[i], dense.data()[i], "masked position {i}");
            } else {
                assert_eq!(got.data()[i], 0.0, "pruned position {i} must stay zero");
            }
        }
    }

    #[test]
    #[should_panic(expected = "conv layout")]
    fn conv_kernel_rejects_fc_layout() {
        let w = Tensor::ones(&[4, 4]);
        let csb = CsbTensor::from_dense_fc(&w, 2);
        csb_conv2d(&Tensor::ones(&[1, 1, 4, 4]), &csb, 1, 0);
    }

    #[test]
    #[should_panic(expected = "fc layout")]
    fn fc_kernel_rejects_conv_layout() {
        let w = Tensor::ones(&[1, 1, 3, 3]);
        let csb = CsbTensor::from_dense_conv(&w);
        csb_fc_forward(&Tensor::ones(&[1, 9]), &csb);
    }
}
