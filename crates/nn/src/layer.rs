//! The module interface: forward, backward, and parameter visitation.

use std::ops::{Deref, DerefMut};

use procrustes_tensor::{Scratch, Tensor};

use crate::{ComputeBackend, WeightStore};

/// Classification of a parameter tensor for sparse training.
///
/// Dropback-style algorithms prune only the large weight tensors of conv
/// and fc layers; biases and normalization parameters are tiny and stay
/// dense (they are a negligible fraction of the footprint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamKind {
    /// A conv/fc weight tensor — subject to pruning.
    Prunable,
    /// Bias, batch-norm scale/shift, … — never pruned.
    Auxiliary,
}

/// A borrowed view of one parameter tensor and its gradient, yielded by
/// [`Layer::visit_params`].
#[derive(Debug)]
pub struct ParamTensor<'a> {
    /// Human-readable parameter name (diagnostics only).
    pub name: &'static str,
    /// Pruning classification.
    pub kind: ParamKind,
    /// The parameter values.
    pub values: Values<'a>,
    /// The gradient accumulated by the latest `backward`.
    pub grads: &'a mut Tensor,
}

/// The values of a [`ParamTensor`]: a tensor the layer holds as is, or
/// the [`WeightStore`] of a conv or fc weight.
///
/// It derefs to the values, and a store goes stale only when they are
/// borrowed mutably ([`DerefMut`]), so a visitor that only reads leaves
/// every compressed encoding valid. Matching [`Values::Store`] hands out
/// the store itself and marks nothing: the store's own methods keep its
/// dirty bit.
#[derive(Debug)]
pub enum Values<'a> {
    /// A tensor without a compute representation (bias, batch norm,
    /// depthwise weights).
    Plain(&'a mut Tensor),
    /// A weight store's dense master.
    Store(&'a mut WeightStore),
}

impl Deref for Values<'_> {
    type Target = Tensor;

    fn deref(&self) -> &Tensor {
        match self {
            Values::Plain(t) => t,
            Values::Store(store) => store.tensor(),
        }
    }
}

impl DerefMut for Values<'_> {
    /// Marks a store stale until its next sync.
    fn deref_mut(&mut self) -> &mut Tensor {
        match self {
            Values::Plain(t) => t,
            Values::Store(store) => store.tensor_mut(),
        }
    }
}

/// A differentiable module.
///
/// The contract mirrors classic define-by-run frameworks:
///
/// 1. [`forward`](Layer::forward) caches whatever the backward pass needs;
/// 2. [`backward`](Layer::backward) consumes the upstream gradient `dy`
///    and returns `dx`, accumulating parameter gradients internally;
/// 3. [`visit_params`](Layer::visit_params) exposes `(values, grads)`
///    pairs in a **deterministic order** — sparse trainers rely on this
///    order to assign stable global weight indices (the WR unit of the
///    paper regenerates initial values keyed by exactly these indices).
///
/// # Examples
///
/// ```
/// use procrustes_nn::{Layer, ReLU};
/// use procrustes_tensor::Tensor;
/// let mut relu = ReLU::new();
/// let y = relu.forward(&Tensor::from_vec(&[1, 3], vec![-1.0, 0.0, 2.0]), true);
/// assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
/// let dx = relu.backward(&Tensor::ones(&[1, 3]));
/// assert_eq!(dx.data(), &[0.0, 0.0, 1.0]);
/// ```
pub trait Layer {
    /// Computes the layer output, drawing every transient buffer — the
    /// output tensor included — from `scratch`. `train` selects training
    /// behaviour (batch statistics in
    /// [`BatchNorm2d`](crate::BatchNorm2d), caching for backward).
    ///
    /// Callers that keep a `Scratch` alive across steps (the trainers
    /// do) get an allocation-free steady state: once shapes stabilize,
    /// every buffer request is served from the pool. Recycle the
    /// returned tensor into the same scratch when done with it.
    fn forward_with(&mut self, x: &Tensor, train: bool, scratch: &mut Scratch) -> Tensor;

    /// Back-propagates `dy`, returning `dx` drawn from `scratch`.
    ///
    /// # Panics
    ///
    /// Implementations panic if called before a training-mode forward.
    fn backward_with(&mut self, dy: &Tensor, scratch: &mut Scratch) -> Tensor;

    /// Back-propagates `dy` into the parameter gradients only, for a
    /// layer nothing upstream of which needs `dx` — the first layer of
    /// a model, whose input is the data. The default runs
    /// [`backward_with`](Layer::backward_with) and recycles `dx`; layers
    /// whose input gradient is a product of its own ([`Conv2d`],
    /// [`Linear`]) skip it, and [`Sequential`] passes the call to its
    /// first layer. Parameter gradients are the same either way.
    ///
    /// [`Conv2d`]: crate::Conv2d
    /// [`Linear`]: crate::Linear
    /// [`Sequential`]: crate::Sequential
    ///
    /// # Panics
    ///
    /// Implementations panic if called before a training-mode forward.
    fn backward_params_with(&mut self, dy: &Tensor, scratch: &mut Scratch) {
        let dx = self.backward_with(dy, scratch);
        scratch.recycle(dx);
    }

    /// Computes the layer output with a throwaway workspace.
    ///
    /// Convenience wrapper over [`forward_with`](Layer::forward_with)
    /// for tests, examples, and other cold paths; hot loops should hold
    /// a [`Scratch`] and call `forward_with` so buffers are reused.
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut scratch = Scratch::new();
        self.forward_with(x, train, &mut scratch)
    }

    /// Back-propagates `dy` with a throwaway workspace (see
    /// [`backward_with`](Layer::backward_with)).
    ///
    /// # Panics
    ///
    /// Implementations panic if called before a training-mode forward.
    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let mut scratch = Scratch::new();
        self.backward_with(dy, &mut scratch)
    }

    /// Visits every parameter tensor in a fixed, deterministic order.
    /// A visit marks a weight store stale only if the visitor borrows
    /// its values mutably (see [`Values`]).
    ///
    /// The default is a no-op for parameter-free layers. A container
    /// visits its children in order; that one walk is all it implements
    /// — the backend switch and the CSB count below ride it.
    fn visit_params(&mut self, visitor: &mut dyn FnMut(ParamTensor<'_>)) {
        let _ = visitor;
    }

    /// Sets all parameter gradients to zero.
    fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.grads.map_inplace(|_| 0.0));
    }

    /// Selects which compute backend the weight kernels of every store
    /// [`visit_params`](Layer::visit_params) reaches run on (see
    /// [`ComputeBackend`]); each store resyncs at its next forward.
    /// Results are identical under every backend — only the kernels
    /// (and their cost) change.
    fn set_compute_backend(&mut self, backend: ComputeBackend) {
        self.visit_params(&mut |p| {
            if let Values::Store(store) = p.values {
                store.set_backend(backend);
            }
        });
    }

    /// Number of weight stores [`visit_params`](Layer::visit_params)
    /// reaches whose compressed CSB representation is currently active —
    /// diagnostics for backend promotion, e.g. after an `Auto` resync.
    /// Counting reads no values, so it marks no store stale.
    fn csb_store_count(&mut self) -> usize {
        let mut count = 0;
        self.visit_params(&mut |p| {
            count += usize::from(matches!(p.values, Values::Store(s) if s.is_csb()));
        });
        count
    }

    /// A short human-readable description (for model summaries).
    fn name(&self) -> String;
}
