//! CSB-backed compute kernels: the sparse fast path of the training loop.
//!
//! These are the software analogues of the Procrustes PE datapath: the
//! forward and backward convolutions and the fully-connected products,
//! reading only the nonzero weights so that every elided (zero) weight
//! is also an elided multiply-accumulate — the *computation sparsity* of
//! §III-A turned into actual work savings, the same way SparseTrain
//! exploits dataflow sparsity inside the kernels.
//!
//! [`CsbTensor`] is the format the accelerator stores, the one the
//! simulator charges and Fig 8 shows. The kernels here do not read it:
//! layers encode their dense master once per weight resync, straight
//! into a [`ConvDecode`] or an [`FcDecode`], each a pair of CSRs (the
//! weight matrix in the order each pass fetches it). The stored nonzeros drive
//! every loop nest, the innermost loop is a contiguous `f32` run, and
//! two loop nests consume the CSRs:
//!
//! - **The gather** serves both convolutions. Like the PEs of Fig 2 it
//!   never unfolds an activation: it runs over the zero-padded planes
//!   ([`PaddedPlanes`]) the dense kernels read too, where at stride 1
//!   every stored weight is one contiguous shifted run of a `Wp`-wide
//!   view of the output. The forward pass streams the `[K, C·R·S]` rows
//!   over the padded input; the backward-input pass streams the rotated
//!   `[C, K·R·S]` rows over the dilated, padded upstream gradient — one
//!   loop nest, two tap orders. Its samples are split over the worker
//!   pool of `procrustes-tensor` (`min(default_threads(), N)` workers,
//!   a static cut), each worker writing its own slab of the output, so
//!   every output element is still reduced on one thread, in one order.
//! - **The SpMM** over a materialised column matrix serves the
//!   fully-connected products (`xᵀ`, and `dyᵀ` against the CSR of `Wᵀ`:
//!   a fully-connected layer is a convolution at `P = Q = 1`) and
//!   [`ConvDecode::forward_from_cols`], the im2col oracle the gather is
//!   tested against.
//!
//! The three `csb_conv2d*` functions are decode-per-call wrappers: each
//! decompresses a [`CsbTensor`] and encodes a [`ConvDecode`] from it.
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
//!   no bit of the result can differ on finite data. The dense weight
//!   update (`conv2d_backward_weights_from_planes`) rests on the same
//!   argument: it multiplies every `dy`, zero or not, where the GEMM
//!   over the columns and the scatter oracle skip the zeros.
//!
//! Training under either backend therefore produces identical loss
//! curves; the equivalence suites in `tests/` pin this down.

use procrustes_tensor::kernel::{self, thread::run_split};
use procrustes_tensor::{conv_out_dim, im2col_into, PaddedPlanes, Scratch, Tensor};

use crate::CsbTensor;

/// Accumulator-block width of the SpMM and the gather:
/// this many output positions stay in registers while one row's nonzeros
/// stream through them — eight 512-bit vectors, the register budget of
/// the dense GEMM's 2×64 tile (64 and 256 both measured slower on the
/// tiny-VGG stack).
const NR: usize = 128;

/// A sparse matrix by rows: `row_ptr[r]..row_ptr[r + 1]` indexes row
/// `r`'s `(column, value)` pairs, ascending by column — the order the
/// dense kernels reduce in.
#[derive(Debug, Clone, Default)]
struct Csr {
    cols: usize,
    row_ptr: Vec<u32>,
    idx: Vec<u32>,
    val: Vec<f32>,
}

impl Csr {
    /// Re-encodes the matrix, in the vectors it already holds, as the
    /// nonzeros of the row-major `data` with `cols`-wide rows: one read
    /// of `data`, each row's columns ascending. `-0.0 == 0.0`, so a
    /// signed zero is not stored.
    fn set_from_dense(&mut self, data: &[f32], cols: usize) {
        self.cols = cols;
        self.row_ptr.clear();
        self.idx.clear();
        self.val.clear();
        self.row_ptr.push(0);
        for row in data.chunks_exact(cols.max(1)) {
            for (c, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    self.idx.push(c as u32);
                    self.val.push(v);
                }
            }
            self.row_ptr.push(self.idx.len() as u32);
        }
    }

    /// Re-encodes the matrix, in the vectors it already holds, as the
    /// counting sort by row of the `(row, column, value)` entries that
    /// `for_each` feeds its visitor, the same ones on each of its two
    /// calls. Stable: a row keeps its entries in arrival order, so each
    /// row's columns must arrive ascending.
    fn set_from_entries(
        &mut self,
        rows: usize,
        cols: usize,
        for_each: impl Fn(&mut dyn FnMut(usize, usize, f32)),
    ) {
        self.cols = cols;
        let Self {
            row_ptr, idx, val, ..
        } = self;
        row_ptr.clear();
        row_ptr.resize(rows + 1, 0);
        for_each(&mut |r, _, _| row_ptr[r + 1] += 1);
        for r in 0..rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        let nnz = row_ptr[rows] as usize;
        idx.resize(nnz, 0);
        val.resize(nnz, 0.0);
        // `row_ptr[r]` is row `r`'s cursor: it ends at row `r + 1`'s
        // start, and the shift below restores every start.
        for_each(&mut |r, c, v| {
            let at = row_ptr[r] as usize;
            idx[at] = c as u32;
            val[at] = v;
            row_ptr[r] += 1;
        });
        row_ptr.copy_within(0..rows, 1);
        row_ptr[0] = 0;
    }

    fn rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    fn row(&self, r: usize) -> impl DoubleEndedIterator<Item = (usize, f32)> + '_ {
        let span = self.row_ptr[r] as usize..self.row_ptr[r + 1] as usize;
        let pairs = self.idx[span.clone()].iter().zip(&self.val[span]);
        pairs.map(|(&i, &v)| (i as usize, v))
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
    /// The samples are split over `workers` workers of the pool (the
    /// layers pass `default_threads()`; clamped to `1..=MAX_WORKERS` and
    /// to `N`): `run_split` deals each worker a static cut of whole
    /// samples and their slab of `y`, and each sample is computed
    /// exactly as a serial gather would, so the result does not depend
    /// on `workers`.
    ///
    /// At stride 1 a sample's output is walked as a `Wp`-wide view —
    /// position `p·Wp + q` — in which every tap is the contiguous run of
    /// the planes that starts at its `row_base`: an `NR`-wide (128)
    /// block of that view stays in registers while a row's entries
    /// stream their shifted runs through it, and the view's surplus
    /// columns (`q >= Q`, which read the next row's head or the next
    /// sample) are dropped at the store. A strided convolution reads the
    /// same tables element by element (`col_off`), in `NR`-wide blocks
    /// of one sample's positions, with no surplus. Either way each
    /// output element sees its row's entries in order from `0.0` — the
    /// dense GEMM's reduction order.
    fn gather(&self, planes: &PaddedPlanes, y: &mut [f32], workers: usize, scratch: &mut Scratch) {
        let n = planes.dims()[0];
        let (p, q) = planes.out_dims();
        let (rows, pq) = (self.rows(), p * q);
        assert_eq!(
            self.cols,
            planes.view().rows(),
            "csb gather: tap count mismatch"
        );
        assert_eq!(y.len(), n * rows * pq, "csb gather: output length");
        run_split(workers, n, 1, y, scratch, &|samples, slab| {
            for (ni, y) in samples.zip(slab.chunks_exact_mut(rows * pq)) {
                self.gather_sample(planes, ni, y);
            }
        });
    }

    /// Sample `ni` of the gather into its `[rows, P, Q]` output `y`.
    fn gather_sample(&self, planes: &PaddedPlanes, ni: usize, y: &mut [f32]) {
        let view = planes.view();
        let [_, c, hp, wp] = planes.dims();
        let (p, q) = planes.out_dims();
        let pq = p * q;
        let mut acc = [0.0f32; NR];
        if view.step != 1 {
            let offsets = &view.col_off[ni * pq..(ni + 1) * pq];
            for j in (0..pq).step_by(NR) {
                let width = NR.min(pq - j);
                for (o, y) in y.chunks_exact_mut(pq).enumerate() {
                    acc[..width].fill(0.0);
                    for (i, v) in self.row(o) {
                        let base = view.row_base[i];
                        for (a, &off) in acc[..width].iter_mut().zip(&offsets[j..]) {
                            *a += v * view.src[base + off];
                        }
                    }
                    y[j..j + width].copy_from_slice(&acc[..width]);
                }
            }
            return;
        }
        // The view ends with the last kept column of the last row; a tap
        // reaches at most `reach` past a position.
        let len = (p - 1) * wp + q;
        let reach = view.row_base.last().copied().unwrap_or(0);
        let src = &view.src[ni * c * hp * wp..];
        for j in (0..len).step_by(NR) {
            let width = NR.min(len - j);
            // A full block may run into the next sample (dropped at the
            // store); only the last sample's last block cannot.
            let full = reach + j + NR <= src.len();
            for (o, y) in y.chunks_exact_mut(pq).enumerate() {
                let runs = self.row(o).map(|(i, v)| (view.row_base[i] + j, v));
                if full {
                    // Constant width: the block lives in registers.
                    stream_runs(&mut acc, src, runs);
                } else {
                    stream_runs(&mut acc[..width], src, runs);
                }
                store_rows(&acc[..width], j, wp, q, y, q);
            }
        }
    }
}

/// A `KCRS` weight tensor as the two CSRs the training step reads, so
/// the kernels touch only stored nonzeros:
///
/// - by output channel `k`: `(c·R·S + r·S + s, value)` ascending — the
///   rows of the `[K, C·R·S]` weight matrix, for the forward pass;
/// - by input channel `c`: `(k·R·S + r'·S + s', value)` ascending with
///   `(r', s') = (R-1-r, S-1-s)` — the rows of the 180°-rotated,
///   channel-swapped `[C, K·R·S]` matrix, the fetch order of the
///   backward pass (Fig 2b).
///
/// Layers re-encode one per weight resync (see `WeightStore` in
/// `procrustes-nn`) into the buffers it already holds, and run every
/// forward and backward-input convolution through it with pooled
/// outputs, so the steady-state sparse conv path allocates nothing.
///
/// # Examples
///
/// ```
/// use procrustes_sparse::ConvDecode;
/// use procrustes_tensor::{reference::conv2d, PaddedPlanes, Scratch, Tensor};
///
/// let w = Tensor::from_vec(&[1, 1, 3, 3],
///     vec![0.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 1.0]);
/// let decode = ConvDecode::from_dense(&w);
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
    /// Encodes the nonzeros of a `KCRS` weight tensor in both orders.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not rank 4.
    pub fn from_dense(w: &Tensor) -> Self {
        let mut decode = Self {
            k: 0,
            c: 0,
            r: 0,
            s: 0,
            rows: Csr::default(),
            rot: Csr::default(),
        };
        decode.encode(w);
        decode
    }

    /// Re-encodes both orders from `w` into this decode's buffers, which
    /// grow only when `w` stores more nonzeros than they have held.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not rank 4.
    pub fn encode(&mut self, w: &Tensor) {
        let shape = w.shape();
        assert_eq!(
            shape.rank(),
            4,
            "csb conv kernel: weights must have a conv layout (KCRS)"
        );
        let [k, c, r, s] = [0, 1, 2, 3].map(|d| shape.dim(d));
        let (crs, rs) = (c * r * s, r * s);
        self.rows.set_from_dense(w.data(), crs);
        // The rotated fetch reads a filter's last tap first, so each
        // forward row is read backwards: per channel, `k` ascending and
        // the rotated taps ascending.
        let rows = &self.rows;
        self.rot.set_from_entries(c, k * rs, |visit| {
            for ki in 0..k {
                for (i, v) in rows.row(ki).rev() {
                    visit(i / rs, (ki + 1) * rs - 1 - i % rs, v);
                }
            }
        });
        (self.k, self.c, self.r, self.s) = (k, c, r, s);
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
        self.rows
            .gather(xp, &mut y, kernel::default_threads(), scratch);
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
        self.rot
            .gather(&dyp, &mut dx, kernel::default_threads(), scratch);
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
/// Panics if `x` is not `NCHW`, channels mismatch, or the filter does
/// not fit.
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
    let decode = ConvDecode::from_dense(&w.to_dense());
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
/// Panics if `dy` is inconsistent with the `(h, wdt, stride, pad)`
/// geometry.
pub fn csb_conv2d_backward_input(
    dy: &Tensor,
    w: &CsbTensor,
    h: usize,
    wdt: usize,
    stride: usize,
    pad: usize,
) -> Tensor {
    let decode = ConvDecode::from_dense(&w.to_dense());
    decode.backward_input(dy, h, wdt, stride, pad, &mut Scratch::new())
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
/// Panics if the geometries are inconsistent.
pub fn csb_conv2d_backward_weights_masked(
    x: &Tensor,
    dy: &Tensor,
    mask: &CsbTensor,
    stride: usize,
    pad: usize,
) -> Tensor {
    let decode = ConvDecode::from_dense(&mask.to_dense());
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

/// An `[out, in]` weight matrix as the two CSRs the training step
/// reads: the CSR of `W` (per output `o`, ascending input `i`) for the
/// forward product and the CSR of `Wᵀ` (per input `i`, ascending `o`) for
/// the backward one.
///
/// Layers re-encode one per weight resync (see `WeightStore` in
/// `procrustes-nn`) into the buffers it already holds, and run both
/// products through the SpMM the conv forward uses, with pooled buffers.
///
/// # Examples
///
/// ```
/// use procrustes_sparse::FcDecode;
/// use procrustes_tensor::{Scratch, Tensor};
///
/// let w = Tensor::from_vec(&[2, 3], vec![1.0, 0.0, 2.0, 0.0, 3.0, 0.0]);
/// let decode = FcDecode::from_dense(&w);
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
    /// Encodes the nonzeros of an `[out, in]` weight matrix in both
    /// orders.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not rank 2.
    pub fn from_dense(w: &Tensor) -> Self {
        let mut decode = Self {
            w: Csr::default(),
            wt: Csr::default(),
        };
        decode.encode(w);
        decode
    }

    /// Re-encodes both orders from `w` into this decode's buffers, which
    /// grow only when `w` stores more nonzeros than they have held.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not rank 2.
    pub fn encode(&mut self, w: &Tensor) {
        let shape = w.shape();
        assert_eq!(
            shape.rank(),
            2,
            "FcDecode: weights must have an fc layout ([out, in])"
        );
        let (out, inp) = (shape.dim(0), shape.dim(1));
        self.w.set_from_dense(w.data(), inp);
        // Rows of `W` read in order give each row of `Wᵀ` ascending `o`.
        let rows = &self.w;
        self.wt.set_from_entries(inp, out, |visit| {
            for o in 0..out {
                rows.row(o).for_each(|(i, v)| visit(i, o, v));
            }
        });
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
    /// each checked to store the nonzero count it claims: a `KCRS` conv
    /// weight or an `[out, in]` fc one.
    fn weight_cases(dims: &[usize], seed: u64) -> Vec<Tensor> {
        let len: usize = dims.iter().product();
        [0, len.div_ceil(10), len]
            .into_iter()
            .map(|nnz| {
                let w = with_nnz(dims, nnz, seed + nnz as u64);
                let stored = if dims.len() == 4 {
                    ConvDecode::from_dense(&w).nnz()
                } else {
                    FcDecode::from_dense(&w).nnz()
                };
                assert_eq!(stored, nnz, "case must hold the nnz it claims");
                w
            })
            .collect()
    }

    /// `[out, in]` of tiny-VGG's two heads and a shape that is no
    /// multiple of the SpMM's block width on either side.
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
            for w in weight_cases(&[k, c, r, s], 10 * gi as u64) {
                let decode = ConvDecode::from_dense(&w);
                let what = format!("geometry {gi}, nnz {}", decode.nnz());
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
                let csb = CsbTensor::from_dense_conv(&w);
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
            for w in weight_cases(&[k, c, r, s], 10 * gi as u64) {
                let decode = ConvDecode::from_dense(&w);
                let csb = CsbTensor::from_dense_conv(&w);
                for (di, dy) in [&mixed, &dead_planes, &negative_zeros]
                    .into_iter()
                    .enumerate()
                {
                    let what = format!("geometry {gi}, nnz {}, dy {di}", decode.nnz());
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

    /// `(c, k, h, w, r, stride, pad)` of the worker-count sweeps: a
    /// stride-1 3×3, a stride-2 3×3 and a stride-2 1×1, each over
    /// ragged extents.
    const SPLIT_GEOMETRIES: [[usize; 7]; 3] = [
        [3, 5, 9, 7, 3, 1, 1],
        [2, 4, 9, 8, 3, 2, 1],
        [3, 2, 6, 7, 1, 2, 0],
    ];
    const SPLIT_BATCHES: [usize; 3] = [1, 3, 8];
    const SPLIT_WORKERS: [usize; 5] = [1, 2, 3, 4, 8];

    /// `csr.gather(planes, ..)` on `workers` workers, into a
    /// NaN-filled buffer so an unwritten element shows.
    fn gathered(csr: &Csr, planes: &PaddedPlanes, len: usize, workers: usize) -> Vec<u32> {
        let mut y = vec![f32::NAN; len];
        csr.gather(planes, &mut y, workers, &mut Scratch::new());
        y.iter().map(|v| v.to_bits()).collect()
    }

    /// The forward gather split over 1/2/3/4/8 workers — more workers
    /// than samples included — is bitwise the serial gather and the
    /// SpMM over the im2col columns.
    #[test]
    fn gather_forward_is_bitwise_equal_at_every_worker_count() {
        let mut scratch = Scratch::new();
        for (gi, [c, k, h, wd, r, stride, pad]) in SPLIT_GEOMETRIES.into_iter().enumerate() {
            for n in SPLIT_BATCHES {
                let what = format!("geometry {gi}, n {n}");
                let x = sparse_tensor(&[n, c, h, wd], 0.6, 900 + (gi * 8 + n) as u64);
                let w = sparse_tensor(&[k, c, r, r], 0.3, 950 + gi as u64);
                let decode = ConvDecode::from_dense(&w);
                let (p, q) = (
                    conv_out_dim(h, r, stride, pad),
                    conv_out_dim(wd, r, stride, pad),
                );
                let cols = im2col(&x, r, r, stride, pad);
                let want = decode.forward_from_cols(cols.data(), n, p, q, &mut scratch);
                let xp = PaddedPlanes::of_input(&x, r, r, stride, pad, &mut scratch);
                let serial = gathered(&decode.rows, &xp, want.len(), 1);
                assert_eq!(serial, bits(&want), "{what}: serial gather vs SpMM");
                for workers in SPLIT_WORKERS {
                    let got = gathered(&decode.rows, &xp, want.len(), workers);
                    assert_eq!(got, serial, "{what}: {workers} workers");
                }
                xp.recycle(&mut scratch);
            }
        }
    }

    /// The backward-input gather split over 1/2/3/4/8 workers is
    /// bitwise the serial gather and the scatter oracle, zero `dy`
    /// elements of both signs included.
    #[test]
    fn gather_backward_input_is_bitwise_equal_at_every_worker_count() {
        let mut scratch = Scratch::new();
        for (gi, [c, k, h, wd, r, stride, pad]) in SPLIT_GEOMETRIES.into_iter().enumerate() {
            for n in SPLIT_BATCHES {
                let what = format!("geometry {gi}, n {n}");
                let w = sparse_tensor(&[k, c, r, r], 0.3, 960 + gi as u64);
                let decode = ConvDecode::from_dense(&w);
                let (p, q) = (
                    conv_out_dim(h, r, stride, pad),
                    conv_out_dim(wd, r, stride, pad),
                );
                let mut dy = sparse_tensor(&[n, k, p, q], 0.6, 970 + (gi * 8 + n) as u64);
                for v in dy.data_mut().iter_mut().step_by(5) {
                    *v = -0.0;
                }
                let want = conv2d_backward_input(&dy, &w, h, wd, stride, pad);
                let dyp = PaddedPlanes::of_upstream(&dy, r, r, h, wd, stride, pad, &mut scratch);
                let serial = gathered(&decode.rot, &dyp, want.len(), 1);
                assert_eq!(serial, bits(&want), "{what}: serial gather vs scatter");
                for workers in SPLIT_WORKERS {
                    let got = gathered(&decode.rot, &dyp, want.len(), workers);
                    assert_eq!(got, serial, "{what}: {workers} workers");
                }
                dyp.recycle(&mut scratch);
            }
        }
    }

    #[test]
    fn conv_decode_orders_match_the_two_passes() {
        // One filter with taps 0, 4 and 8 set, one with tap 2 and a
        // negative zero at tap 5, which is not stored.
        let mut w = Tensor::zeros(&[2, 1, 3, 3]);
        w.data_mut()[0] = 1.0;
        w.data_mut()[4] = 2.0;
        w.data_mut()[8] = 3.0;
        w.data_mut()[9 + 2] = 4.0;
        w.data_mut()[9 + 5] = -0.0;
        assert!(w.data()[9 + 5].is_sign_negative());
        // Re-encoded over the buffers of a larger, denser tensor.
        let mut d = ConvDecode::from_dense(&Tensor::ones(&[3, 2, 3, 3]));
        d.encode(&w);
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
        // Rows 0 and 2 of a 3×5 matrix hold the nonzeros.
        let mut w = Tensor::zeros(&[3, 5]);
        w.data_mut()[1] = 1.0;
        w.data_mut()[4] = 2.0;
        w.data_mut()[10] = 3.0;
        w.data_mut()[11] = 4.0;
        w.data_mut()[14] = 5.0;
        // A negative zero in row 1, which is not stored.
        w.data_mut()[7] = -0.0;
        assert!(w.data()[7].is_sign_negative());
        // Re-encoded over the buffers of a larger, denser matrix.
        let mut d = FcDecode::from_dense(&Tensor::ones(&[4, 6]));
        d.encode(&w);
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
        let mut scratch = Scratch::new();
        // Small shapes against the dense GEMM, the degenerate densities
        // included.
        for (dims, keep, seed) in [
            ([10usize, 7], 0.35, 11u64),
            ([8, 8], 0.5, 12),
            ([3, 5], 0.6, 13),
            ([6, 6], 1.0, 14),
            ([6, 6], 0.0, 15),
        ] {
            let w = sparse_tensor(&dims, keep, seed);
            let x = sparse_tensor(&[3, dims[1]], 0.8, seed + 300);
            let got = FcDecode::from_dense(&w).forward(&x, &mut scratch);
            let want = x.matmul(&w.transpose2d());
            assert_eq!(got.data(), want.data(), "dims={dims:?}");
        }
        for (si, dims) in FC_SHAPES.into_iter().enumerate() {
            for w in weight_cases(&dims, 500 + 10 * si as u64) {
                let decode = FcDecode::from_dense(&w);
                let wt = w.transpose2d();
                for n in FC_BATCHES {
                    let what = format!("dims {dims:?}, nnz {}, n {n}", decode.nnz());
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
        let mut scratch = Scratch::new();
        for (dims, seed) in [([9usize, 6], 16u64), ([5, 11], 17)] {
            let w = sparse_tensor(&dims, 0.4, seed);
            let dy = sparse_tensor(&[4, dims[0]], 0.6, seed + 400);
            let got = FcDecode::from_dense(&w).backward_input(&dy, &mut scratch);
            let want = dy.matmul(&w);
            assert_eq!(got.data(), want.data(), "dims={dims:?}");
        }
        for (si, dims) in FC_SHAPES.into_iter().enumerate() {
            for w in weight_cases(&dims, 700 + 10 * si as u64) {
                let decode = FcDecode::from_dense(&w);
                let transposed = FcDecode::from_dense(&w.transpose2d());
                for n in FC_BATCHES {
                    let what = format!("dims {dims:?}, nnz {}, n {n}", decode.nnz());
                    let dy = sparse_tensor(&[n, dims[0]], 0.6, 800 + n as u64);
                    let got = decode.backward_input(&dy, &mut scratch);
                    assert_eq!(got.shape().dims(), &[n, dims[1]], "{what}");
                    let want = matmul_ikj(dy.data(), w.data(), n, dims[0], dims[1]);
                    let want = Tensor::from_vec(&[n, dims[1]], want);
                    assert_eq!(bits(&got), bits(&want), "{what}: vs matmul_ikj");
                    // The transposed oracle: the forward product of `Wᵀ`.
                    let oracle = transposed.forward(&dy, &mut scratch);
                    assert_eq!(bits(&got), bits(&oracle), "{what}: vs Wᵀ forward");
                    scratch.recycle(got);
                    scratch.recycle(oracle);
                }
            }
        }
    }
}
