//! The layered GEMM kernel subsystem: blueprint → selector → routine.
//!
//! Every dense matrix product in the workspace flows through this
//! module but one: the convolution weight update over the padded planes
//! (`conv2d_backward_weights_from_planes`) runs its own pack-free
//! kernel, split by filter taps over the same pool and bound by the
//! same accumulation-order contract. The layers, bottom-up:
//!
//! - [`blueprint`] — a plain-data key describing a GEMM problem
//!   ([`Blueprint`]: extents, operand layout, worker budget).
//! - [`routine`] — the one executable kernel: a 2×64 register-tiled
//!   microkernel over 128-row rhs panels packed through the [`Scratch`]
//!   pool, for every op.
//! - [`cols`] — the rhs of a convolution product as a *view*
//!   ([`ColsView`]): the im2col matrix read through two offset tables
//!   out of the padded input planes, so the packed kernel's pack step
//!   ([`gemm_cols`], the `Nn` products) and the weight-update kernel
//!   are the only code that ever sees it.
//! - [`selector`] — the policy mapping blueprints to plans: the worker
//!   count, ranked at call time by the deterministic cost model.
//! - [`autotune`] — that cost model, and the pinned shapes the
//!   equality suites cover.
//! - [`thread`] — the threaded tier: splits one product's *output*
//!   (j-panels, or m-tiles for wide-m / narrow-n shapes) across the
//!   workers of [`crate::pool`]. Chosen by the same cost model;
//!   bitwise-identical to the serial tier at every worker count.
//!
//! [`gemm`] is the one entry point every caller uses; [`gemm_cols`] is
//! the same entry with a [`ColsView`] for its rhs.
//!
//! # The accumulation-order contract
//!
//! Every kernel in this workspace — the dense conv/fc paths built on
//! this module, and the CSB sparse kernels in `procrustes-sparse` —
//! must produce results that compare equal (`f32 ==`) whichever path
//! computes them, so that training runs are reproducible across compute
//! backends. IEEE-754 addition is not associative, so that contract is
//! really a contract on the *order* in which partial products are
//! reduced:
//!
//! > For each output element `dst[i][j]`, the products
//! > `a[i][p]·b[p][j]` are accumulated **left-to-right in ascending
//! > `p`**, starting from `0.0`. Terms whose `a`-operand is exactly
//! > zero may be skipped (adding `±0.0` never changes the comparison
//! > class of a finite sum).
//!
//! The [`routine`] tiles `i` and `j` so an `MR×NR` block of
//! accumulators lives in registers, and blocks `p` into `KC`-sized
//! panels — but per output element the `p` reduction is never
//! reordered: blocks are consumed in ascending order, each accumulator
//! sees its terms one at a time, carried through memory between
//! blocks. Blocking therefore changes *which* elements are in flight,
//! never how any one element's sum associates — results are identical
//! to the naive ikj loop ([`crate::reference::matmul_ikj`]), just much
//! faster. The selector may therefore switch tiers and worker counts
//! freely across shapes and machines without perturbing a single
//! training run.
//!
//! The `a == 0.0` skip is kept from the naive kernel:
//! conv/fc weights under Dropback-style training are mostly exact
//! zeros, so the skip converts weight sparsity into elided
//! multiply-accumulates on the dense path too. It is not a per-call
//! choice — the CSB kernels skip zero weights by construction (they are
//! not stored), so a dense product that multiplied them would break the
//! dense == CSB contract on non-finite data (`0·inf = NaN`).

pub mod autotune;
pub mod blueprint;
pub mod cols;
pub mod routine;
pub mod selector;
pub mod thread;

pub use blueprint::{Blueprint, Op};
pub use cols::ColsView;
pub use selector::{explain, select, Plan};
pub use thread::default_threads;

pub(crate) use routine::Rhs;

use crate::scratch::Scratch;

/// Computes the product described by `bp` into `dst`, letting the
/// selector pick the tier.
///
/// `dst` is overwritten entirely (stale contents permitted). Packing
/// buffers are taken from and recycled into `scratch` (each pool
/// worker owns its own scratch), so steady-state callers allocate
/// nothing here. A blueprint with `threads > 1` *permits* the threaded
/// tier; whether it is used is the selector's per-shape decision, and
/// either way the result bytes are identical.
///
/// # Panics
///
/// Panics if a slice length disagrees with the blueprint.
///
/// # Examples
///
/// ```
/// use procrustes_tensor::kernel::{gemm, Blueprint};
/// use procrustes_tensor::Scratch;
/// let a = [1.0, 2.0, 3.0, 4.0]; // [2, 2]
/// let b = [1.0, 0.0, 0.0, 1.0]; // identity
/// let mut dst = [0.0f32; 4];
/// gemm(&Blueprint::nn(2, 2, 2), &mut dst, &a, &b, &mut Scratch::new());
/// assert_eq!(dst, a);
/// ```
pub fn gemm(bp: &Blueprint, dst: &mut [f32], lhs: &[f32], rhs: &[f32], scratch: &mut Scratch) {
    gemm_rhs(bp, dst, lhs, Rhs::Slice(rhs), scratch);
}

/// [`gemm`] with the columns of a convolution for its rhs, read out of
/// the padded planes instead of a materialised matrix: `cols` stands
/// for the `[k, n]` operand of an `Nn` blueprint (the forward and
/// backward-input products). Same tiers, same reduction order, same
/// result bytes and the same plan as `gemm` over the unfolded matrix.
/// The weight update reads the planes too, but through its own
/// pack-free kernel (`conv2d_backward_weights_from_planes`), not here.
///
/// # Panics
///
/// Panics if the view's extents or a slice length disagree with the
/// blueprint, or on an `Nt` or `Tn` blueprint.
///
/// # Examples
///
/// ```
/// use procrustes_tensor::kernel::{gemm_cols, Blueprint, ColsView};
/// use procrustes_tensor::Scratch;
/// // A 1×2 filter sliding over [1, 2, 3]: columns [[1, 2], [2, 3]].
/// let cols = ColsView { src: &[1.0, 2.0, 3.0], row_base: &[0, 1], col_off: &[0, 1], step: 1 };
/// let mut y = [0.0f32; 2];
/// gemm_cols(&Blueprint::nn(1, 2, 2), &mut y, &[10.0, 1.0], &cols, &mut Scratch::new());
/// assert_eq!(y, [12.0, 23.0]);
/// ```
pub fn gemm_cols(
    bp: &Blueprint,
    dst: &mut [f32],
    lhs: &[f32],
    cols: &ColsView<'_>,
    scratch: &mut Scratch,
) {
    gemm_rhs(bp, dst, lhs, Rhs::Cols(*cols), scratch);
}

/// [`gemm`] or [`gemm_cols`], by the kind of `rhs`.
pub(crate) fn gemm_rhs(
    bp: &Blueprint,
    dst: &mut [f32],
    lhs: &[f32],
    rhs: Rhs<'_>,
    scratch: &mut Scratch,
) {
    if let Rhs::Cols(cols) = rhs {
        cols.check();
    }
    let plan = selector::select(bp);
    if plan.workers > 1 {
        thread::run(bp, plan.workers, dst, lhs, rhs, scratch);
    } else {
        let dst = routine::SlabMut::full(bp, dst);
        routine::execute_slab(bp, dst, lhs, rhs, scratch);
    }
}
