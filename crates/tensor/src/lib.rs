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
//!   register-tiled microkernels over packed panels, chosen per problem
//!   shape by a deterministic cost model, with a documented
//!   accumulation-order contract (see the [`kernel`] module docs) that
//!   keeps results exactly equal to the naive seed loops in
//!   [`mod@reference`] and to the CSB sparse kernels;
//! * the three convolution kernels of CNN training (Fig 2 of the paper),
//!   each as one GEMM over [`im2col`] columns: [`conv2d_from_cols`]
//!   (forward), [`conv2d_backward_input_gemm`] (backward pass — the
//!   180°-rotated-filter convolution), and
//!   [`conv2d_backward_weights_from_cols`] (weight update);
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
//! use procrustes_tensor::{conv2d_from_cols, im2col, Scratch, Tensor};
//!
//! let x = Tensor::from_fn(&[1, 1, 4, 4], |i| i[2] as f32 + i[3] as f32);
//! let w = Tensor::ones(&[1, 1, 3, 3]);
//! let cols = im2col(&x, 3, 3, 1, 0);
//! let y = conv2d_from_cols(&w, cols.data(), 1, 2, 2, &mut Scratch::new());
//! assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
//! // 3x3 box filter over an (h + w) ramp: sum of h+w over the window.
//! assert_eq!(y.at(&[0, 0, 0, 0]), 18.0);
//! ```

// `deny`, not `forbid`: two sites allow the lint for one block each,
// and `tests/unsafe_budget.rs` fails if a third appears anywhere in
// the workspace.
// 1. `pool::run` erases the lifetime of the job closure so long-lived
//    helper threads can call it; it never returns, panic or not, while
//    a helper can still reach the closure.
// 2. `kernel::routine::SlabMut::row` builds a `&mut [f32]` over one
//    row segment it has asserted to lie inside the view's slab; the
//    slabs dealt to the workers of one product are checked disjoint, so
//    no two references ever cover the same element.
#![deny(unsafe_code)]
#![deny(missing_docs)]

mod conv;
pub mod gradcheck;
mod init;
pub mod kernel;
pub mod pool;
pub mod reference;
mod scratch;
mod shape;
mod tensor;

pub use conv::{
    conv2d_backward_input_gemm, conv2d_backward_weights_from_cols, conv2d_from_cols, conv_out_dim,
    im2col, im2col_into,
};
pub use init::{kaiming_std, xavier_std, Init};
pub use scratch::Scratch;
pub use shape::{Shape, MAX_RANK};
pub use tensor::{transpose_into, Tensor};
