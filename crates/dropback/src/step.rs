//! The step skeleton the trainers share: the forward/loss/backward pass,
//! the walk over prunable weights by global index, the plain SGD step of
//! the auxiliary parameters, and the materialization of WR-backed
//! weights.

use procrustes_nn::{
    accuracy, Layer, ParamKind, ParamTensor, Scratch, Sequential, SoftmaxCrossEntropy,
};
use procrustes_tensor::Tensor;

use crate::WeightRecompute;

/// Forward, loss and backward on one minibatch: returns the mean loss
/// and leaves the gradients in the model.
pub(crate) fn forward_backward(
    model: &mut Sequential,
    x: &Tensor,
    labels: &[usize],
    scratch: &mut Scratch,
) -> f32 {
    let logits = model.forward_with(x, true, scratch);
    let (loss, dlogits) = SoftmaxCrossEntropy.loss_and_grad_with(&logits, labels, scratch);
    scratch.recycle(logits);
    // Nothing reads the gradient of the data: the first layer skips it.
    model.backward_params_with(&dlogits, scratch);
    scratch.recycle(dlogits);
    loss
}

/// `(mean loss, top-1 accuracy)` of an eval-mode forward.
pub(crate) fn evaluate_model(
    model: &mut Sequential,
    x: &Tensor,
    labels: &[usize],
    scratch: &mut Scratch,
) -> (f32, f64) {
    let logits = model.forward_with(x, false, scratch);
    let (loss, grad) = SoftmaxCrossEntropy.loss_and_grad_with(&logits, labels, scratch);
    let acc = accuracy(&logits, labels);
    scratch.recycle(logits);
    scratch.recycle(grad);
    (loss, acc)
}

/// Visits the prunable tensors in `visit_params` order, each with the
/// global index of its first weight — the index space the WR unit, the
/// tracked sets and the pruning masks are keyed by. Returns the number
/// of prunable weights.
pub(crate) fn for_each_prunable(
    model: &mut Sequential,
    mut visit: impl FnMut(usize, ParamTensor<'_>),
) -> usize {
    let mut offset = 0;
    model.visit_params(&mut |p| {
        if p.kind == ParamKind::Prunable {
            let len = p.values.len();
            visit(offset, p);
            offset += len;
        }
    });
    offset
}

/// One plain SGD step on the auxiliary parameters (biases, batch norm);
/// zeroes their gradients.
pub(crate) fn sgd_auxiliary(model: &mut Sequential, lr: f32) {
    model.visit_params(&mut |p| {
        if p.kind == ParamKind::Auxiliary {
            let grads = p.grads.data_mut().iter_mut();
            for (w, g) in p.values.data_mut().iter_mut().zip(grads) {
                *w -= lr * *g;
                *g = 0.0;
            }
        }
    });
}

/// Writes the materialized weights `w_i = λᵗ·w⁰_i + accumulated(i)` into
/// the model and returns the fraction of them that is exactly zero.
pub(crate) fn materialize(
    model: &mut Sequential,
    wr: &WeightRecompute,
    t: u64,
    accumulated: impl Fn(usize) -> f32,
) -> f64 {
    let mut zeros = 0;
    let n = for_each_prunable(model, |offset, p| {
        for (j, w) in p.values.data_mut().iter_mut().enumerate() {
            *w = wr.decayed_value((offset + j) as u64, t) + accumulated(offset + j);
        }
        zeros += p.values.count_zeros();
    });
    zeros as f64 / n as f64
}
