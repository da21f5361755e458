//! A compact DNN training framework — the workload substrate of the
//! Procrustes reproduction.
//!
//! The paper evaluates sparse training on five CNNs (VGG-S, ResNet18,
//! MobileNet v2, WRN-28-10, DenseNet) trained with PyTorch. This crate
//! replaces that substrate with a from-scratch implementation providing:
//!
//! * [`Layer`] — the forward/backward module interface, with parameter
//!   visitation ([`Layer::visit_params`]) that gives sparse-training
//!   algorithms flat, deterministic access to every prunable weight;
//! * the layer zoo the paper's networks need: [`Conv2d`],
//!   [`DepthwiseConv2d`], [`Linear`], [`BatchNorm2d`], [`ReLU`],
//!   [`MaxPool2d`], [`GlobalAvgPool`], [`Flatten`], plus
//!   the composite [`Residual`], [`DenseBlock`], and [`DwSeparable`]
//!   blocks;
//! * [`Sequential`] — the container all models here are built from;
//! * [`ComputeBackend`] / [`WeightStore`] — the sparse execution path:
//!   conv and fc layers can run their weights through CSB-compressed
//!   kernels (`procrustes-sparse`) instead of dense ones, with bitwise
//!   identical results, so training-time weight sparsity becomes skipped
//!   work rather than multiplied zeros;
//! * [`SoftmaxCrossEntropy`] and [`Sgd`] — loss and baseline optimizer;
//! * [`data`] — seeded synthetic image classification datasets standing in
//!   for CIFAR-10/ImageNet (see docs/PAPER_MAP.md "Substitutions" for the
//!   rationale);
//! * [`arch`] — small trainable variants of each of the paper's five
//!   network families (the full-size geometries the accelerator model
//!   evaluates are `LayerTask` tables in `procrustes_core::arch`).
//!
//! # Examples
//!
//! Train a tiny CNN on a synthetic batch for one step:
//!
//! ```
//! use procrustes_nn::{arch, data, Layer, Sgd, SoftmaxCrossEntropy};
//! use procrustes_prng::Xorshift64;
//!
//! let mut rng = Xorshift64::new(0);
//! let mut model = arch::tiny_vgg(10, &mut rng);
//! let dataset = data::SyntheticImages::cifar_like(10, 1);
//! let (x, labels) = dataset.batch(8, &mut rng);
//!
//! let logits = model.forward(&x, true);
//! let loss = SoftmaxCrossEntropy;
//! let (value, dlogits) = loss.loss_and_grad(&logits, &labels);
//! assert!(value > 0.0);
//! model.backward(&dlogits);
//! Sgd::new(0.05).step(&mut model);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arch;
mod batchnorm;
mod blocks;
mod conv;
pub mod data;
mod layer;
mod linear;
mod loss;
mod pool;
mod sequential;
mod sgd;
mod store;
mod util;

pub use batchnorm::BatchNorm2d;
pub use blocks::{DenseBlock, DwSeparable, Residual};
pub use conv::{Conv2d, DepthwiseConv2d};
pub use layer::{Layer, ParamKind, ParamTensor};
pub use linear::{Flatten, Linear, ReLU};
pub use loss::{accuracy, SoftmaxCrossEntropy};
pub use pool::{GlobalAvgPool, MaxPool2d};
pub use sequential::Sequential;
pub use sgd::Sgd;
pub use store::{ComputeBackend, Decode, WeightStore};
pub use util::{concat_channels_with, slice_channels, slice_channels_with};

// The scratch workspace threaded through `Layer::forward_with` /
// `backward_with`; re-exported so trainers need not depend on
// `procrustes-tensor` directly.
pub use procrustes_tensor::Scratch;
