//! The Procrustes compressed sparse block (CSB) weight representation.
//!
//! Inference accelerators couple their sparse weight format to a single
//! dataflow (CSC in EIE, per-input-channel blocks in SCNN), which makes the
//! *other* access orders needed during training impossible to address
//! (§II-D of the paper). Procrustes instead stores weights in a
//! block-compressed format (§IV-B, Fig 8) with three decoupled components:
//!
//! * a **weight array** of variable-size packed nonzero blocks,
//! * a **pointer array** indexed by *dense* tensor coordinates, and
//! * a **mask array** of one bit per dense slot identifying the nonzeros.
//!
//! Because the pointer array is indexed in the dense operation space,
//! kernel addresses are computable in any loop order; blocks are fetched at
//! filter granularity so they can be rotated 180° (backward pass) *while
//! being fetched*; and the density of any contiguous block range is one
//! pointer subtraction — the query the load balancer builds on (§IV-C).
//!
//! This crate provides [`CsbTensor`] — the format as the simulator
//! charges it, one block per conv filter, with one packed [`BitMask`] as
//! its mask array (an fc layer is stored as the 1×1 conv it is) — and
//! the [`kernels`] module: sparse conv and fc compute kernels over the
//! CSRs of one [`ConvDecode`] encoded from the dense weights (an fc
//! layer's as the 1×1 conv it is), whose work scales with the number of
//! stored nonzeros rather than the dense volume.
//!
//! # Examples
//!
//! ```
//! use procrustes_sparse::CsbTensor;
//! use procrustes_tensor::Tensor;
//!
//! // A 2-filter, 1-channel, 2x2-kernel weight tensor with zeros.
//! let w = Tensor::from_vec(&[2, 1, 2, 2], vec![1.0, 0.0, 2.0, 0.0, 0.0, 3.0, 0.0, 4.0]);
//! let csb = CsbTensor::from_dense_conv(&w);
//! assert_eq!(csb.nnz(), 4);
//! assert_eq!(csb.block_nnz(0, 0), 2);
//! assert_eq!(csb.to_dense(), w); // lossless round-trip
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitmask;
mod csb;
pub mod kernels;

pub use bitmask::{BitMask, IterOnes};
pub use csb::CsbTensor;
pub use kernels::{
    csb_conv2d, csb_conv2d_backward_input, csb_conv2d_backward_weights_masked, ConvDecode,
};
