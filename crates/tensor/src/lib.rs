//! Dense `f32` tensors and the convolution kernels of DNN training.
//!
//! This crate is the numeric substrate of the Procrustes reproduction. It
//! deliberately implements exactly what the paper's workloads need — no
//! more:
//!
//! * [`Tensor`] — an owned, row-major, N-dimensional `f32` array with
//!   elementwise ops, axis reductions, and [`Tensor::matmul`];
//! * the [`kernel`] subsystem — the layered GEMM stack (blueprint →
//!   selector → routine) every dense training kernel routes through:
//!   one register-tiled microkernel over packed panels, its worker
//!   count chosen per problem shape by a deterministic cost model, with
//!   a documented
//!   accumulation-order contract (see the [`kernel`] module docs) that
//!   keeps results exactly equal to the naive seed loops in
//!   [`mod@reference`] and to the CSB sparse kernels;
//! * [`PaddedPlanes`] — convolution as a *layout*: an `NCHW` tensor
//!   copied once into zero-padded planes, plus the two offset tables
//!   through which those planes read as the `[C·R·S, N·P·Q]` column
//!   matrix of a convolution ([`kernel::ColsView`]) — so no training
//!   step builds, stores or re-reads an im2col matrix;
//! * the three convolution kernels of CNN training (Fig 2 of the paper),
//!   each reading that view: [`conv2d_from_planes`] (forward) and
//!   [`conv2d_backward_input_gemm`] (backward pass — the
//!   180°-rotated-filter convolution over the padded planes of the
//!   upstream gradient), each one GEMM, and
//!   [`conv2d_backward_weights_from_planes`] (weight update), a
//!   pack-free kernel split by filter taps over the [`pool`];
//! * [`im2col`] / [`im2col_into`], [`conv2d_from_cols`] and
//!   [`conv2d_backward_weights_from_cols`] — the same products over a
//!   materialised column matrix: the oracles of the view-fed kernels
//!   (`tests/cols_view_equality.rs`), not called by any layer;
//! * [`mod@reference`] — the seed scatter-loop convolutions and the naive
//!   matmul, kept as the oracles every optimized kernel must equal
//!   (`f32 ==`);
//! * [`Scratch`] — the pooled-buffer workspace the layers and trainers
//!   thread through the hot path for its zero-allocation steady state;
//! * [`pool`] — the workspace's one worker pool, which the threaded
//!   GEMM tier and the evaluation engine both dispatch through;
//! * [`Tensor::rotate180`] / transposes — the weight-access-order
//!   transformations that motivate the paper's CSB storage format;
//! * [`gradcheck`] — a numerical-gradient harness used throughout the
//!   workspace's test suites.
//!
//! Layouts follow the paper's loop nest (Alg 1): activations are `NCHW`,
//! weights are `KCRS` (output channel, input channel, filter row, filter
//! column).
//!
//! # Examples
//!
//! ```
//! use procrustes_tensor::{conv2d_from_cols, conv2d_from_planes, im2col};
//! use procrustes_tensor::{PaddedPlanes, Scratch, Tensor};
//!
//! let x = Tensor::from_fn(&[1, 1, 4, 4], |i| i[2] as f32 + i[3] as f32);
//! let w = Tensor::ones(&[1, 1, 3, 3]);
//! let mut scratch = Scratch::new();
//! let planes = PaddedPlanes::of_input(&x, 3, 3, 1, 0, &mut scratch);
//! let y = conv2d_from_planes(&w, &planes, &mut scratch);
//! assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
//! // 3x3 box filter over an (h + w) ramp: sum of h+w over the window.
//! assert_eq!(y.at(&[0, 0, 0, 0]), 18.0);
//! // The oracle: the same GEMM over the unfolded columns.
//! let cols = im2col(&x, 3, 3, 1, 0);
//! assert_eq!(y, conv2d_from_cols(&w, cols.data(), 1, 2, 2, &mut scratch));
//! ```

// `deny`, not `forbid`: two sites allow the lint for one block each,
// and `tests/unsafe_budget.rs` fails if a third appears anywhere in
// the workspace.
// 1. `pool::run` erases the lifetime of the job closure so long-lived
//    helper threads can call it; it never returns, panic or not, while
//    a helper can still reach the closure.
// 2. `kernel::routine::SlabMut::row` builds a `&mut [f32]` over one
//    row segment it has asserted to lie inside the view's slab; the
//    pieces of one product are checked disjoint and each is claimed
//    once, so no two references ever cover the same element.
#![deny(unsafe_code)]
#![deny(missing_docs)]

mod conv;
pub mod gradcheck;
mod init;
pub mod kernel;
mod planes;
pub mod pool;
pub mod reference;
mod scratch;
mod shape;
mod tensor;

pub use conv::{
    conv2d_backward_input_gemm, conv2d_backward_weights_from_cols,
    conv2d_backward_weights_from_planes, conv2d_from_cols, conv2d_from_planes, conv_out_dim,
    im2col, im2col_into,
};
pub use init::{kaiming_std, xavier_std, Init};
pub use planes::PaddedPlanes;
pub use scratch::Scratch;
pub use shape::{Shape, MAX_RANK};
pub use tensor::{transpose_into, Tensor};
