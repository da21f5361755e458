//! CSB-backed compute kernels: the sparse fast path of the training loop.
//!
//! These are the software analogues of the Procrustes PE datapath: the
//! forward and backward convolutions and the fully-connected products,
//! consuming weights directly in the [`CsbTensor`] format so that every
//! elided (zero) weight is also an elided multiply-accumulate — the
//! *computation sparsity* of §III-A turned into actual work savings, the
//! same way SparseTrain exploits dataflow sparsity inside the kernels.
//!
//! The stored nonzeros drive every loop nest and the innermost loop is a
//! contiguous `f32` run. Layers flatten a [`CsbTensor`] once per weight
//! resync into a [`ConvDecode`] or an [`FcDecode`], each a pair of CSRs
//! (the weight matrix in the order each pass fetches it), and two loop
//! nests consume them:
//!
//! - **The gather** serves both convolutions. Like the PEs of Fig 2 it
//!   never unfolds an activation: it runs over the zero-padded planes
//!   ([`PaddedPlanes`]) the dense kernels read too, where at stride 1
//!   every stored weight is one contiguous shifted run of a `Wp`-wide
//!   view of the output. The forward pass streams the `[K, C·R·S]` rows
//!   over the padded input; the backward-input pass streams the rotated
//!   `[C, K·R·S]` rows over the dilated, padded upstream gradient — one
//!   loop nest, two tap orders.
//! - **The SpMM** over a materialised column matrix serves the
//!   fully-connected products (`xᵀ`, and `dyᵀ` against the CSR of `Wᵀ`:
//!   a fully-connected layer is a convolution at `P = Q = 1`) and
//!   [`ConvDecode::forward_from_cols`], the im2col oracle the gather is
//!   tested against.
//!
//! The `csb_*` functions are the decode-per-call convenience wrappers.
//!
//! # Numerical contract
//!
//! Each kernel reduces every output element in exactly the order the
//! corresponding dense kernel in `procrustes-tensor` does — the
//! accumulation-order contract of `procrustes_tensor::kernel` — so
//! outputs match the dense path *bitwise*, not merely within a
//! tolerance. The two operands are treated differently:
//!
//! - A zero **weight** is skipped: it is simply not stored. The dense
//!   kernels either skip it too or add its `±0.0` product, and every sum
//!   starts at `+0.0`.
//! - A zero **upstream gradient** is multiplied, not tested for: the
//!   backward-input kernel streams whole rows of `dy`, where the scatter
//!   oracle skips `dy == 0.0` element by element. The extra terms are
//!   `v·(±0.0) = ±0.0` for any finite weight `v`, added to a sum that
//!   started at `+0.0`. Under round-to-nearest `x + ±0.0 == x` for every
//!   nonzero `x`, `+0.0 + ±0.0 = +0.0`, and a sum that starts at `+0.0`
//!   can never become `-0.0` (that needs both addends to be `-0.0`), so
//!   no bit of the result can differ on finite data.
//!
//! Training under either backend therefore produces identical loss
//! curves; the equivalence suites in `tests/` pin this down.

use procrustes_tensor::{conv_out_dim, im2col_into, PaddedPlanes, Scratch, Tensor};

use crate::{CsbLayout, CsbTensor};

/// Accumulator-block width of the SpMM and the gather:
/// this many output positions stay in registers while one row's nonzeros
/// stream through them — eight 512-bit vectors, the register budget of
/// the dense GEMM's 2×64 tile (64 and 256 both measured slower on the
/// tiny-VGG stack).
const NR: usize = 128;

/// A sparse matrix by rows: `row_ptr[r]..row_ptr[r + 1]` indexes row
/// `r`'s `(column, value)` pairs, ascending by column — the order the
/// dense kernels reduce in.
#[derive(Debug, Clone)]
struct Csr {
    cols: usize,
    row_ptr: Vec<u32>,
    idx: Vec<u32>,
    val: Vec<f32>,
}

impl Csr {
    /// Counting sort by row of the `(row, column, value)` entries that
    /// `for_each` feeds its visitor, the same ones on each of its two
    /// calls. Stable: a row keeps its entries in arrival order, so each
    /// row's columns must arrive ascending.
    fn from_entries(
        rows: usize,
        cols: usize,
        for_each: impl Fn(&mut dyn FnMut(usize, usize, f32)),
    ) -> Self {
        let mut row_ptr = vec![0u32; rows + 1];
        for_each(&mut |r, _, _| row_ptr[r + 1] += 1);
        for r in 0..rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        let mut cursor = row_ptr[..rows].to_vec();
        let nnz = row_ptr[rows] as usize;
        let (mut idx, mut val) = (vec![0u32; nnz], vec![0.0f32; nnz]);
        for_each(&mut |r, c, v| {
            let at = cursor[r] as usize;
            idx[at] = c as u32;
            val[at] = v;
            cursor[r] += 1;
        });
        Self {
            cols,
            row_ptr,
            idx,
            val,
        }
    }

    fn rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    fn row(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let span = self.row_ptr[r] as usize..self.row_ptr[r + 1] as usize;
        let pairs = self.idx[span.clone()].iter().zip(&self.val[span]);
        pairs.map(|(&i, &v)| (i as usize, v))
    }

    /// The CSR of the transpose, O(nnz): rows are read in order, so each
    /// row of the result keeps ascending columns.
    fn transposed(&self) -> Self {
        Self::from_entries(self.cols, self.rows(), |visit| {
            for r in 0..self.rows() {
                self.row(r).for_each(|(c, v)| visit(c, r, v));
            }
        })
    }

    /// `y = A·B` for a row-major `b: [cols, npq]` whose columns are
    /// `(n, p, q)`-major; `y` is laid out `[N, rows, P·Q]`.
    ///
    /// Per row an `NR`-wide (128) block of accumulators stays in
    /// registers while that row's stored entries stream their runs of `b`
    /// through it, then the block is stored once. Per output element the
    /// terms arrive in ascending column order from `0.0` — the dense
    /// GEMM's reduction order.
    fn spmm(&self, b: &[f32], npq: usize, pq: usize, y: &mut [f32]) {
        let rows = self.rows();
        assert_eq!(b.len(), self.cols * npq, "csb spmm: input length mismatch");
        assert_eq!(y.len(), rows * npq, "csb spmm: output length mismatch");
        let mut acc = [0.0f32; NR];
        // Column blocks outermost: the `[cols, NR]` panel of `b` a block
        // reads stays cached while every row visits it.
        for j in (0..npq).step_by(NR) {
            let width = NR.min(npq - j);
            for r in 0..rows {
                let runs = self.row(r).map(|(i, v)| (i * npq + j, v));
                if width == NR {
                    // Constant width: the block lives in registers.
                    stream_runs(&mut acc, b, runs);
                } else {
                    stream_runs(&mut acc[..width], b, runs);
                }
                // Sample rows of `y` are `rows·pq` apart.
                store_rows(&acc[..width], j, pq, pq, &mut y[r * pq..], rows * pq);
            }
        }
    }

    /// `x·Aᵀ` for `x: [n, cols]`, as a pooled `[n, rows]` tensor: the
    /// SpMM at `P = Q = 1` over `xᵀ`, which is staged in a pooled buffer
    /// (a single sample is its own transpose).
    fn spmm_transposed(&self, x: &Tensor, scratch: &mut Scratch) -> Tensor {
        assert_eq!(x.shape().rank(), 2, "csb fc: input must be [N, features]");
        let (n, cols) = (x.shape().dim(0), x.shape().dim(1));
        assert_eq!(
            cols, self.cols,
            "csb fc: input features {cols} != weight features {}",
            self.cols
        );
        let mut y = scratch.take_any(n * self.rows());
        if n == 1 {
            self.spmm(x.data(), 1, 1, &mut y);
        } else {
            let mut xt = scratch.take_any(x.len());
            for (ni, row) in x.data().chunks_exact(cols).enumerate() {
                for (i, &v) in row.iter().enumerate() {
                    xt[i * n + ni] = v;
                }
            }
            self.spmm(&xt, n, 1, &mut y);
            scratch.recycle_vec(xt);
        }
        Tensor::from_vec(&[n, self.rows()], y)
    }

    /// The convolution of `planes` with this matrix's rows as filters:
    /// `y[n][o][p][q] = Σ v · window i of sample n at (p, q)` over row
    /// `o`'s entries `(i, v)` in order, `i` a `(channel, r, s)` tap of
    /// the planes' tables; `y` is laid out `[N, rows, P, Q]`.
    ///
    /// At stride 1 a sample's output is walked as a `Wp`-wide view —
    /// position `p·Wp + q` — in which every tap is the contiguous run of
    /// the planes that starts at its `row_base`: an `NR`-wide (128)
    /// block of that view stays in registers while a row's entries
    /// stream their shifted runs through it, and the view's surplus
    /// columns (`q >= Q`, which read the next row's head or the next
    /// sample) are dropped at the store. A strided convolution reads the
    /// same tables element by element (`col_off`), with no surplus.
    /// Either way each output element sees its row's entries in order
    /// from `0.0` — the dense GEMM's reduction order.
    fn gather(&self, planes: &PaddedPlanes, y: &mut [f32]) {
        let view = planes.view();
        let [n, c, hp, wp] = planes.dims();
        let (p, q) = planes.out_dims();
        let rows = self.rows();
        assert_eq!(self.cols, view.rows(), "csb gather: tap count mismatch");
        assert_eq!(y.len(), n * rows * p * q, "csb gather: output length");
        let mut acc = [0.0f32; NR];
        if view.step != 1 {
            let (npq, pq) = (n * p * q, p * q);
            for j in (0..npq).step_by(NR) {
                let width = NR.min(npq - j);
                let offsets = &view.col_off[j..j + width];
                for o in 0..rows {
                    acc[..width].fill(0.0);
                    for (i, v) in self.row(o) {
                        let base = view.row_base[i];
                        for (a, &off) in acc[..width].iter_mut().zip(offsets) {
                            *a += v * view.src[base + off];
                        }
                    }
                    store_rows(&acc[..width], j, pq, pq, &mut y[o * pq..], rows * pq);
                }
            }
            return;
        }
        // The view ends with the last kept column of the last row; a tap
        // reaches at most `reach` past a position.
        let len = (p - 1) * wp + q;
        let reach = view.row_base.last().copied().unwrap_or(0);
        for ni in 0..n {
            let src = &view.src[ni * c * hp * wp..];
            for j in (0..len).step_by(NR) {
                let width = NR.min(len - j);
                // A full block may run into the next sample (dropped at
                // the store); only the last sample's last block cannot.
                let full = reach + j + NR <= src.len();
                for o in 0..rows {
                    let runs = self.row(o).map(|(i, v)| (view.row_base[i] + j, v));
                    if full {
                        // Constant width: the block lives in registers.
                        stream_runs(&mut acc, src, runs);
                    } else {
                        stream_runs(&mut acc[..width], src, runs);
                    }
                    let out = &mut y[(ni * rows + o) * p * q..][..p * q];
                    store_rows(&acc[..width], j, wp, q, out, q);
                }
            }
        }
    }
}

/// A flat decode of a conv-layout [`CsbTensor`] in the two orders the
/// training step reads it, so the kernels never touch masks or
/// pointers:
///
/// - by output channel `k`: `(c·R·S + r·S + s, value)` ascending — the
///   rows of the `[K, C·R·S]` weight matrix, for the forward pass;
/// - by input channel `c`: `(k·R·S + r'·S + s', value)` ascending with
///   `(r', s') = (R-1-r, S-1-s)` — the rows of the 180°-rotated,
///   channel-swapped `[C, K·R·S]` matrix, the fetch order of the
///   backward pass (Fig 2b).
///
/// Layers build one per weight resync (see `WeightStore` in
/// `procrustes-nn`) and run every forward and backward-input
/// convolution through it with pooled outputs, so the steady-state
/// sparse conv path decodes once per step and allocates nothing.
///
/// # Examples
///
/// ```
/// use procrustes_sparse::{ConvDecode, CsbTensor};
/// use procrustes_tensor::{reference::conv2d, PaddedPlanes, Scratch, Tensor};
///
/// let w = Tensor::from_vec(&[1, 1, 3, 3],
///     vec![0.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 1.0]);
/// let decode = ConvDecode::from_csb(&CsbTensor::from_dense_conv(&w));
/// assert_eq!(decode.nnz(), 2);
/// let x = Tensor::ones(&[1, 1, 4, 4]);
/// let mut scratch = Scratch::new();
/// let xp = PaddedPlanes::of_input(&x, 3, 3, 1, 1, &mut scratch);
/// let y = decode.forward(&xp, &mut scratch);
/// assert_eq!(y.data(), conv2d(&x, &w, 1, 1).data());
/// ```
#[derive(Debug, Clone)]
pub struct ConvDecode {
    k: usize,
    c: usize,
    r: usize,
    s: usize,
    /// The `[K, C·R·S]` weight matrix.
    rows: Csr,
    /// The rotated, channel-swapped `[C, K·R·S]` weight matrix.
    rot: Csr,
}

impl ConvDecode {
    /// Decodes a conv-layout CSB tensor: one scan of the masks and
    /// packed values per order.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not conv-layout.
    pub fn from_csb(w: &CsbTensor) -> Self {
        let CsbLayout::Conv { k, c, r, s } = w.layout() else {
            panic!("csb conv kernel: weights must have a conv layout");
        };
        let nnz = w.nnz();
        let mut row_ptr = Vec::with_capacity(k + 1);
        let mut idx = Vec::with_capacity(nnz);
        let mut val = Vec::with_capacity(nnz);
        let mut chan_ptr = vec![0u32; c + 1];
        row_ptr.push(0);
        for ki in 0..k {
            for ci in 0..c {
                let slots = w.block_mask(ki, ci).iter_ones();
                for (slot, &v) in slots.zip(w.block_values(ki, ci)) {
                    idx.push((ci * r * s + slot) as u32);
                    val.push(v);
                }
                chan_ptr[ci + 1] += w.block_nnz(ki, ci) as u32;
            }
            row_ptr.push(idx.len() as u32);
        }
        for ci in 0..c {
            chan_ptr[ci + 1] += chan_ptr[ci];
        }
        let mut cursor = chan_ptr[..c].to_vec();
        let (mut rot_idx, mut rot_val) = (vec![0u32; nnz], vec![0.0f32; nnz]);
        for ki in 0..k {
            for (ci, cursor) in cursor.iter_mut().enumerate() {
                // The rotated fetch: a block's last slot comes first.
                let end = *cursor as usize + w.block_nnz(ki, ci);
                let slots = w.block_mask(ki, ci).iter_ones();
                for (i, (slot, &v)) in slots.zip(w.block_values(ki, ci)).enumerate() {
                    rot_idx[end - 1 - i] = ((ki + 1) * r * s - 1 - slot) as u32;
                    rot_val[end - 1 - i] = v;
                }
                *cursor = end as u32;
            }
        }
        let rows = Csr {
            cols: c * r * s,
            row_ptr,
            idx,
            val,
        };
        let rot = Csr {
            cols: k * r * s,
            row_ptr: chan_ptr,
            idx: rot_idx,
            val: rot_val,
        };
        Self {
            k,
            c,
            r,
            s,
            rows,
            rot,
        }
    }

    /// `[K, C, R, S]` of the decoded weights.
    fn dims(&self) -> [usize; 4] {
        [self.k, self.c, self.r, self.s]
    }

    /// Stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.rows.val.len()
    }

    /// Forward convolution over the padded input planes (the ones the
    /// dense `conv2d_from_planes` and the weight update read): the
    /// gather with the `[K, C·R·S]` weight rows as filters. The result
    /// tensor `[N, K, P, Q]` comes from `scratch`.
    ///
    /// Per output element the terms arrive in ascending `(c, r, s)` from
    /// `0.0` — the dense GEMM's reduction order — so the result is
    /// bitwise-equal to `conv2d_from_planes`, `conv2d_from_cols` and
    /// [`forward_from_cols`](Self::forward_from_cols) at any stride and
    /// padding.
    ///
    /// # Panics
    ///
    /// Panics if the planes were not built for these weights' channels
    /// and filter extents.
    pub fn forward(&self, xp: &PaddedPlanes, scratch: &mut Scratch) -> Tensor {
        let [n, c, ..] = xp.dims();
        assert_eq!(
            (c, xp.filter_dims()),
            (self.c, (self.r, self.s)),
            "csb conv: planes do not match the weights"
        );
        let (p, q) = xp.out_dims();
        let mut y = scratch.take_any(n * self.k * p * q);
        self.rows.gather(xp, &mut y);
        Tensor::from_vec(&[n, self.k, p, q], y)
    }

    /// Forward convolution from precomputed im2col columns
    /// (`[C·R·S, N·P·Q]`, as `im2col_into` lays them out): the oracle of
    /// [`forward`](Self::forward), an SpMM of the `[K, C·R·S]` weight
    /// rows against the materialised columns. The result tensor
    /// `[N, K, P, Q]` comes from `scratch`.
    ///
    /// Per output element the terms arrive in ascending `(c, r, s)` from
    /// `0.0` — the dense GEMM's reduction order — so the result is
    /// bitwise-equal to `conv2d_from_cols` at any stride and padding.
    ///
    /// # Panics
    ///
    /// Panics if `cols` has the wrong length.
    pub fn forward_from_cols(
        &self,
        cols: &[f32],
        n: usize,
        p: usize,
        q: usize,
        scratch: &mut Scratch,
    ) -> Tensor {
        let mut y = scratch.take_any(n * self.k * p * q);
        self.rows.spmm(cols, n * p * q, p * q, &mut y);
        Tensor::from_vec(&[n, self.k, p, q], y)
    }

    /// Backward-input convolution (Fig 2b): propagates `∂L/∂y` through
    /// the 180°-rotated sparse filters. `h`/`wdt` are the input spatial
    /// extents; the result tensor `[N, C, H, W]` comes from `scratch`.
    ///
    /// The same gather as [`forward`](Self::forward), over the planes of
    /// the upstream gradient — dilated by `stride` and zero-padded by
    /// `(R-1-pad, S-1-pad)` into a pooled buffer
    /// (`PaddedPlanes::of_upstream`) — with the rotated `[C, K·R·S]` rows
    /// as filters sliding at stride 1. For a fixed `dx` element ascending
    /// `(k, r', s')` is ascending `(k, p, q)`, so terms arrive in the
    /// scatter oracle's order from `0.0` and the result is bitwise-equal
    /// to `reference::conv2d_backward_input` (zero `dy` elements and the
    /// padding are multiplied, not skipped — see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `dy` is inconsistent with the `(h, wdt, stride, pad)`
    /// geometry.
    pub fn backward_input(
        &self,
        dy: &Tensor,
        h: usize,
        wdt: usize,
        stride: usize,
        pad: usize,
        scratch: &mut Scratch,
    ) -> Tensor {
        let (n, _, _) = check_upstream(dy, self.dims(), h, wdt, stride, pad);
        let dyp = PaddedPlanes::of_upstream(dy, self.r, self.s, h, wdt, stride, pad, scratch);
        let mut dx = scratch.take_any(n * self.c * h * wdt);
        self.rot.gather(&dyp, &mut dx);
        dyp.recycle(scratch);
        Tensor::from_vec(&[n, self.c, h, wdt], dx)
    }
}

/// `acc = Σ v · src[at..at + acc.len()]` over `runs` in order, from
/// `0.0` — the one inner loop of the SpMM and the gather.
#[inline(always)]
fn stream_runs(acc: &mut [f32], src: &[f32], runs: impl Iterator<Item = (usize, f32)>) {
    acc.fill(0.0);
    let width = acc.len();
    for (at, v) in runs {
        for (a, &x) in acc.iter_mut().zip(&src[at..][..width]) {
            *a += v * x;
        }
    }
}

/// Stores `acc`, the flat positions `j..j + acc.len()` of a row-major
/// view with `pitch`-wide rows, into `dst`, whose rows start `dst_pitch`
/// apart and hold only the first `keep` positions of each view row.
fn store_rows(acc: &[f32], j: usize, pitch: usize, keep: usize, dst: &mut [f32], dst_pitch: usize) {
    let end = j + acc.len();
    let mut pos = j;
    while pos < end {
        let (row, col) = (pos / pitch, pos % pitch);
        let len = (pitch - col).min(end - pos);
        if col < keep {
            let kept = len.min(keep - col);
            dst[row * dst_pitch + col..][..kept].copy_from_slice(&acc[pos - j..][..kept]);
        }
        pos += len;
    }
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

/// Checks `dy: [N, K, P, Q]` against the weights' `[K, C, R, S]` and the
/// input geometry; returns `(n, p, q)`.
fn check_upstream(
    dy: &Tensor,
    [k, _, r, s]: [usize; 4],
    h: usize,
    wdt: usize,
    stride: usize,
    pad: usize,
) -> (usize, usize, usize) {
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
    (n, p, q)
}

/// Forward convolution with CSB weights: the sparse counterpart of
/// `conv2d_from_cols`, skipping every zero weight.
///
/// The im2col oracle: decodes, unfolds and runs
/// [`ConvDecode::forward_from_cols`] on every call. Steady-state
/// callers (the `Conv2d` layer) cache a [`ConvDecode`] and run
/// [`ConvDecode::forward`] over the padded planes they already hold,
/// which never unfolds. Bitwise-equal to it and to the dense forward
/// path for the same operands.
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
    let decode = ConvDecode::from_csb(w);
    let [_, c, r, s] = decode.dims();
    let (n, h, wdt) = check_activations(x, c);
    let p = conv_out_dim(h, r, stride, pad);
    let q = conv_out_dim(wdt, s, stride, pad);
    let mut cols = vec![0.0f32; c * r * s * n * p * q];
    im2col_into(x, r, s, stride, pad, &mut cols);
    decode.forward_from_cols(&cols, n, p, q, &mut Scratch::new())
}

/// Backward-input convolution with CSB weights (Fig 2b): propagates
/// `∂L/∂y` through 180°-rotated sparse filters, skipping every zero
/// weight.
///
/// Convenience wrapper that decodes on every call; steady-state callers
/// cache a [`ConvDecode`] and use [`ConvDecode::backward_input`].
/// `h`/`wdt` are the input spatial extents. Bitwise-equal to
/// `reference::conv2d_backward_input`.
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
    ConvDecode::from_csb(w).backward_input(dy, h, wdt, stride, pad, &mut Scratch::new())
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
    let decode = ConvDecode::from_csb(mask);
    let [k, c, r, s] = decode.dims();
    let (n, h, wdt) = check_activations(x, c);
    let (nd, p, q) = check_upstream(dy, decode.dims(), h, wdt, stride, pad);
    assert_eq!(nd, n, "csb conv wu: batch mismatch {nd} != {n}");
    let mut dw = Tensor::zeros(&[k, c, r, s]);
    let xs = x.data();
    let dys = dy.data();
    let dws = dw.data_mut();
    // One dot product per stored position, over (n, p, q) ascending —
    // the scatter kernel's reduction order for that element.
    for ki in 0..k {
        for (tap, _) in decode.rows.row(ki) {
            let (ci, ri, si) = (tap / (r * s), tap / s % r, tap % s);
            let (Some((p_lo, p_hi)), Some((q_lo, q_hi))) = (
                valid_out_range(p, h, ri, stride, pad),
                valid_out_range(q, wdt, si, stride, pad),
            ) else {
                continue;
            };
            let mut acc = 0.0f32;
            for ni in 0..n {
                let xplane = &xs[(ni * c + ci) * h * wdt..][..h * wdt];
                let dyplane = &dys[(ni * k + ki) * p * q..][..p * q];
                for pi in p_lo..=p_hi {
                    let dyrow = &dyplane[pi * q + q_lo..=pi * q + q_hi];
                    let x0 = (pi * stride + ri - pad) * wdt + q_lo * stride + si - pad;
                    for (i, &g) in dyrow.iter().enumerate() {
                        acc += g * xplane[x0 + i * stride];
                    }
                }
            }
            dws[((ki * c + ci) * r + ri) * s + si] = acc;
        }
    }
    dw
}

/// A flat decode of an fc-layout [`CsbTensor`] in the two orders the
/// training step reads it: the CSR of `W` (per output `o`, ascending
/// input `i`) for the forward product and the CSR of `Wᵀ` (per input
/// `i`, ascending `o`) for the backward one — the transposed fetch of
/// the one stored tensor, obtained by a counting sort of the first CSR.
///
/// Layers build one per weight resync (see `WeightStore` in
/// `procrustes-nn`) and run both products through the SpMM the conv
/// forward uses, with pooled buffers.
///
/// # Examples
///
/// ```
/// use procrustes_sparse::{CsbTensor, FcDecode};
/// use procrustes_tensor::{Scratch, Tensor};
///
/// let w = Tensor::from_vec(&[2, 3], vec![1.0, 0.0, 2.0, 0.0, 3.0, 0.0]);
/// let decode = FcDecode::from_csb(&CsbTensor::from_dense_fc(&w, 2));
/// let mut scratch = Scratch::new();
/// let x = Tensor::from_vec(&[1, 3], vec![10.0, 20.0, 30.0]);
/// assert_eq!(decode.forward(&x, &mut scratch).data(), &[70.0, 60.0]);
/// let dy = Tensor::from_vec(&[1, 2], vec![1.0, 1.0]);
/// assert_eq!(decode.backward_input(&dy, &mut scratch).data(), &[1.0, 3.0, 2.0]);
/// ```
#[derive(Debug, Clone)]
pub struct FcDecode {
    w: Csr,
    wt: Csr,
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
        let w = Csr::from_entries(out, inp, |visit| {
            w.iter_nonzeros().for_each(|e| {
                let (o, i) = (e.grid_row * edge + e.in_row, e.grid_col * edge + e.in_col);
                visit(o, i, e.value)
            })
        });
        let wt = w.transposed();
        Self { w, wt }
    }

    /// Stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.w.val.len()
    }

    /// `y = x·Wᵀ` for `x: [N, in]`; the result tensor `[N, out]` comes
    /// from `scratch`. Per output element the stored nonzeros reduce in
    /// ascending `i` from `0.0`, so the result is bitwise-equal to the
    /// dense `x.matmul(&w.transpose2d())`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[N, in]`.
    pub fn forward(&self, x: &Tensor, scratch: &mut Scratch) -> Tensor {
        self.w.spmm_transposed(x, scratch)
    }

    /// `dx = dy·W` for `dy: [N, out]`; the result tensor `[N, in]` comes
    /// from `scratch`. Per output element the stored nonzeros reduce in
    /// ascending `o` from `0.0`, so the result is bitwise-equal to the
    /// dense `dy.matmul(&w)`.
    ///
    /// # Panics
    ///
    /// Panics if `dy` is not `[N, out]`.
    pub fn backward_input(&self, dy: &Tensor, scratch: &mut Scratch) -> Tensor {
        self.wt.spmm_transposed(dy, scratch)
    }
}

/// Fully-connected product with CSB weights: `y = x·Wᵀ` for
/// `x: [N, in]`, `W: [out, in]` in fc layout — the sparse matvec of the
/// PE decode path, skipping every zero weight.
///
/// Convenience wrapper that decodes on every call; steady-state callers
/// (the `Linear` layer) cache an [`FcDecode`] instead. On the
/// piecewise-transposed tensor it computes the backward product,
/// `csb_fc_forward(dy, &w.transposed_fc()) = dy·W`, which is what
/// [`FcDecode::backward_input`] returns without the second tensor.
/// Bitwise-equal to the dense `x.matmul(&w.transpose2d())`.
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
    FcDecode::from_csb(w).forward(x, &mut Scratch::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use procrustes_prng::{UniformRng, Xorshift64};
    use procrustes_tensor::reference::{
        conv2d, conv2d_backward_input, conv2d_backward_weights, matmul_ikj,
    };
    use procrustes_tensor::{conv2d_backward_input_gemm, conv2d_from_cols, im2col};

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

    /// A tensor with exactly `nnz` nonzeros (magnitude in `[0.25, 1.25)`,
    /// seeded sign and position), so a case holds the density it names.
    fn with_nnz(dims: &[usize], nnz: usize, seed: u64) -> Tensor {
        let mut rng = Xorshift64::new(seed);
        let len: usize = dims.iter().product();
        let mut slots: Vec<usize> = (0..len).collect();
        procrustes_prng::shuffle(&mut slots, &mut rng);
        let mut data = vec![0.0f32; len];
        for &slot in &slots[..nnz] {
            let mag = 0.25 + rng.next_f32();
            data[slot] = if rng.next_f64() < 0.5 { -mag } else { mag };
        }
        Tensor::from_vec(dims, data)
    }

    /// `(n, c, k, h, w, r, s, stride, pad)`: the dense trio's own test
    /// geometries (`procrustes-tensor`'s `conv.rs`: stride 2, pad 0/1,
    /// 1×1 filters, ragged extents), then a non-square 3×2 filter, an
    /// `N·P·Q` of 243 (one full block and a ragged one), and a 1×1 filter
    /// padded past its own extent (border outputs see only padding).
    /// Every other `N·P·Q` is below `NR` except the first, which is
    /// exactly `NR`.
    const GEOMETRIES: &[[usize; 9]] = &[
        [2, 3, 4, 8, 8, 3, 3, 1, 1],
        [1, 2, 3, 7, 5, 3, 3, 2, 1],
        [2, 1, 2, 6, 6, 3, 3, 2, 0],
        [1, 3, 2, 5, 5, 1, 1, 1, 0],
        [1, 2, 2, 9, 4, 1, 1, 2, 0],
        [2, 2, 5, 4, 4, 3, 3, 1, 0],
        [1, 2, 2, 7, 6, 3, 2, 2, 1],
        [3, 2, 3, 9, 9, 3, 3, 1, 1],
        [2, 2, 2, 3, 3, 1, 1, 1, 1],
    ];

    /// The weight tensors of one geometry at densities `{0, 0.1, 1}`,
    /// each checked to store the nonzero count it claims: conv layout
    /// for `KCRS` dims, fc layout at the layers' block edge (64) for
    /// `[out, in]`.
    fn weight_cases(dims: &[usize], seed: u64) -> Vec<(Tensor, CsbTensor)> {
        let len: usize = dims.iter().product();
        [0, len.div_ceil(10), len]
            .into_iter()
            .map(|nnz| {
                let w = with_nnz(dims, nnz, seed + nnz as u64);
                let csb = if dims.len() == 4 {
                    let csb = CsbTensor::from_dense_conv(&w);
                    assert_eq!(ConvDecode::from_csb(&csb).nnz(), nnz);
                    csb
                } else {
                    let csb = CsbTensor::from_dense_fc(&w, 64);
                    assert_eq!(FcDecode::from_csb(&csb).nnz(), nnz);
                    csb
                };
                assert_eq!(csb.nnz(), nnz, "case must hold the nnz it claims");
                (w, csb)
            })
            .collect()
    }

    /// `[out, in]` of tiny-VGG's two heads and a shape ragged against the
    /// 64-edge on both sides.
    const FC_SHAPES: [[usize; 2]; 3] = [[64, 1024], [10, 64], [70, 130]];
    /// Batch sizes that take the SpMM with no staging, through one
    /// ragged block, and through a full block plus a ragged one.
    const FC_BATCHES: [usize; 3] = [1, 8, NR + 2];

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn conv_forward_is_bitwise_equal_to_the_dense_gemm_and_the_naive_matmul() {
        let mut scratch = Scratch::new();
        for (gi, &[n, c, k, h, wd, r, s, stride, pad]) in GEOMETRIES.iter().enumerate() {
            let x = sparse_tensor(&[n, c, h, wd], 0.7, 100 + gi as u64);
            let (p, q) = (
                conv_out_dim(h, r, stride, pad),
                conv_out_dim(wd, s, stride, pad),
            );
            let cols = im2col(&x, r, s, stride, pad);
            for (w, csb) in weight_cases(&[k, c, r, s], 10 * gi as u64) {
                let what = format!("geometry {gi}, nnz {}", csb.nnz());
                let decode = ConvDecode::from_csb(&csb);
                let got = decode.forward_from_cols(cols.data(), n, p, q, &mut scratch);
                assert_eq!(got.shape().dims(), &[n, k, p, q], "{what}");
                // The dense trio's forward, on the same columns.
                let dense = conv2d_from_cols(&w, cols.data(), n, p, q, &mut scratch);
                assert_eq!(bits(&got), bits(&dense), "{what}: vs conv2d_from_cols");
                // The naive ikj product of the weight matrix and the
                // columns, read back plane by plane.
                let ymat = matmul_ikj(w.data(), cols.data(), k, c * r * s, n * p * q);
                for ni in 0..n {
                    for ki in 0..k {
                        assert_eq!(
                            got.data()[(ni * k + ki) * p * q..][..p * q],
                            ymat[(ki * n + ni) * p * q..][..p * q],
                            "{what}: vs matmul_ikj, plane ({ni},{ki})"
                        );
                    }
                }
                // The scatter oracle associates per input channel, so it
                // bounds the result without pinning its bits.
                let direct = conv2d(&x, &w, stride, pad);
                for (a, b) in got.data().iter().zip(direct.data()) {
                    assert!(
                        (a - b).abs() <= 1e-5 * (1.0 + a.abs()),
                        "{what}: {a} vs {b}"
                    );
                }
                // The decode-per-call wrapper runs the same kernel.
                assert_eq!(
                    bits(&csb_conv2d(&x, &csb, stride, pad)),
                    bits(&got),
                    "{what}"
                );
                // The gather over the padded planes — what the layers
                // run — never sees the columns and gives the same bits.
                let xp = PaddedPlanes::of_input(&x, r, s, stride, pad, &mut scratch);
                let gathered = decode.forward(&xp, &mut scratch);
                assert_eq!(gathered.shape(), got.shape(), "{what}");
                assert_eq!(bits(&gathered), bits(&got), "{what}: gather vs SpMM");
                xp.recycle(&mut scratch);
                scratch.recycle(gathered);
                scratch.recycle(got);
                scratch.recycle(dense);
            }
        }
    }

    #[test]
    fn conv_backward_input_is_bitwise_equal_to_the_scatter_oracle_and_the_dense_gemm() {
        let mut scratch = Scratch::new();
        for (gi, &[n, c, k, h, wd, r, s, stride, pad]) in GEOMETRIES.iter().enumerate() {
            let (p, q) = (
                conv_out_dim(h, r, stride, pad),
                conv_out_dim(wd, s, stride, pad),
            );
            // A mixed dy, one with whole zero planes (what ReLU leaves of
            // a dead channel) and one with negative zeros: the kernel
            // multiplies all of them where the oracle skips them.
            let mixed = sparse_tensor(&[n, k, p, q], 0.6, 200 + gi as u64);
            let mut dead_planes = mixed.clone();
            dead_planes.data_mut()[..p * q].fill(0.0);
            dead_planes.data_mut()[(n * k - 1) * p * q..].fill(0.0);
            let mut negative_zeros = mixed.clone();
            for v in negative_zeros.data_mut().iter_mut().step_by(3) {
                *v = -0.0;
            }
            assert!(negative_zeros.data()[0].is_sign_negative());
            for (w, csb) in weight_cases(&[k, c, r, s], 10 * gi as u64) {
                let decode = ConvDecode::from_csb(&csb);
                for (di, dy) in [&mixed, &dead_planes, &negative_zeros]
                    .into_iter()
                    .enumerate()
                {
                    let what = format!("geometry {gi}, nnz {}, dy {di}", csb.nnz());
                    let got = decode.backward_input(dy, h, wd, stride, pad, &mut scratch);
                    let want = conv2d_backward_input(dy, &w, h, wd, stride, pad);
                    assert_eq!(got.shape(), want.shape(), "{what}");
                    assert_eq!(bits(&got), bits(&want), "{what}: vs scatter oracle");
                    let dense =
                        conv2d_backward_input_gemm(dy, &w, h, wd, stride, pad, &mut scratch);
                    assert_eq!(got.data(), dense.data(), "{what}: vs dense gemm");
                    let wrapped = csb_conv2d_backward_input(dy, &csb, h, wd, stride, pad);
                    assert_eq!(bits(&wrapped), bits(&got), "{what}: wrapper");
                    scratch.recycle(got);
                    scratch.recycle(dense);
                }
            }
        }
    }

    #[test]
    fn conv_decode_orders_match_the_two_passes() {
        // One block with slots 0, 4 and 8 set, one with slot 2.
        let mut w = Tensor::zeros(&[2, 1, 3, 3]);
        w.data_mut()[0] = 1.0;
        w.data_mut()[4] = 2.0;
        w.data_mut()[8] = 3.0;
        w.data_mut()[9 + 2] = 4.0;
        let d = ConvDecode::from_csb(&CsbTensor::from_dense_conv(&w));
        assert_eq!(d.dims(), [2, 1, 3, 3]);
        assert_eq!(d.rows.row_ptr, [0, 3, 4]);
        assert_eq!(d.rows.idx, [0, 4, 8, 2], "forward: ascending (c, r, s)");
        assert_eq!(d.rows.val, [1.0, 2.0, 3.0, 4.0]);
        assert_eq!((d.rot.rows(), d.rot.cols), (1, 18));
        assert_eq!(d.rot.row_ptr, [0, 4]);
        // Slots 8, 4, 0 of filter 0 rotate to 0, 4, 8; slot 2 of filter
        // 1 to 9 + 6.
        assert_eq!(
            d.rot.idx,
            [0, 4, 8, 15],
            "backward: k ascending, each block's taps rotated"
        );
        assert_eq!(d.rot.val, [3.0, 2.0, 1.0, 4.0]);
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
    fn fc_decode_orders_match_the_two_passes() {
        // Rows 0 and 2 of a 3×5 matrix, split across 2-edge blocks.
        let mut w = Tensor::zeros(&[3, 5]);
        w.data_mut()[1] = 1.0;
        w.data_mut()[4] = 2.0;
        w.data_mut()[10] = 3.0;
        w.data_mut()[11] = 4.0;
        w.data_mut()[14] = 5.0;
        let d = FcDecode::from_csb(&CsbTensor::from_dense_fc(&w, 2));
        assert_eq!((d.w.rows(), d.w.cols), (3, 5));
        assert_eq!(d.w.row_ptr, [0, 2, 2, 5]);
        assert_eq!(d.w.idx, [1, 4, 0, 1, 4], "forward: ascending i per o");
        assert_eq!(d.w.val, [1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((d.wt.rows(), d.wt.cols), (5, 3));
        assert_eq!(d.wt.row_ptr, [0, 1, 3, 3, 3, 5]);
        assert_eq!(d.wt.idx, [2, 0, 2, 0, 2], "backward: ascending o per i");
        assert_eq!(d.wt.val, [3.0, 1.0, 4.0, 2.0, 5.0]);
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
        let mut scratch = Scratch::new();
        for (si, dims) in FC_SHAPES.into_iter().enumerate() {
            for (w, csb) in weight_cases(&dims, 500 + 10 * si as u64) {
                let decode = FcDecode::from_csb(&csb);
                let wt = w.transpose2d();
                for n in FC_BATCHES {
                    let what = format!("dims {dims:?}, nnz {}, n {n}", csb.nnz());
                    let x = sparse_tensor(&[n, dims[1]], 0.8, 600 + n as u64);
                    let got = decode.forward(&x, &mut scratch);
                    assert_eq!(got.shape().dims(), &[n, dims[0]], "{what}");
                    let want = matmul_ikj(x.data(), wt.data(), n, dims[1], dims[0]);
                    let want = Tensor::from_vec(&[n, dims[0]], want);
                    assert_eq!(bits(&got), bits(&want), "{what}: vs matmul_ikj");
                    scratch.recycle(got);
                }
            }
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
        let mut scratch = Scratch::new();
        for (si, dims) in FC_SHAPES.into_iter().enumerate() {
            for (w, csb) in weight_cases(&dims, 700 + 10 * si as u64) {
                let decode = FcDecode::from_csb(&csb);
                let transposed = csb.transposed_fc();
                for n in FC_BATCHES {
                    let what = format!("dims {dims:?}, nnz {}, n {n}", csb.nnz());
                    let dy = sparse_tensor(&[n, dims[0]], 0.6, 800 + n as u64);
                    let got = decode.backward_input(&dy, &mut scratch);
                    assert_eq!(got.shape().dims(), &[n, dims[1]], "{what}");
                    let want = matmul_ikj(dy.data(), w.data(), n, dims[0], dims[1]);
                    let want = Tensor::from_vec(&[n, dims[1]], want);
                    assert_eq!(bits(&got), bits(&want), "{what}: vs matmul_ikj");
                    // The format-level oracle: the forward product on the
                    // piecewise-transposed tensor.
                    let oracle = csb_fc_forward(&dy, &transposed);
                    assert_eq!(bits(&got), bits(&oracle), "{what}: vs transposed_fc");
                    scratch.recycle(got);
                }
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
