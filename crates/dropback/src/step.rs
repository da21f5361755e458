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
    model.visit_params(&mut |mut p| {
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
///
/// Each weight is bitwise `wr.decayed_value(i, t) + accumulated(i)`,
/// with λᵗ read once per call instead of once per weight; past the
/// flush every weight is `0.0 + acc`, so `−0.0` still writes `+0.0`.
/// This is the whole-model walk exact Dropback takes after its
/// selection; the Procrustes step calls [`materialize_tensor`] on each
/// tensor as soon as its tracking is done.
pub(crate) fn materialize(
    model: &mut Sequential,
    wr: &WeightRecompute,
    t: u64,
    accumulated: impl Fn(usize) -> f32,
) -> f64 {
    let factor = wr.decay_factor(t);
    let mut zeros = 0;
    let n = for_each_prunable(model, |offset, mut p| {
        let acc = (offset..offset + p.values.len()).map(&accumulated);
        zeros += materialize_tensor(p.values.data_mut(), offset, wr, factor, acc);
    });
    zeros as f64 / n as f64
}

/// [`materialize`] over one prunable tensor whose first weight has
/// global index `offset`, at decay factor `factor = wr.decay_factor(t)`,
/// with `acc` yielding the tensor's accumulations in order; returns the
/// number of weights written as exactly zero.
///
/// The flush test is hoisted out of the loop: past it the loop is
/// `0.0 + acc` and a zero count, which vectorizes over a slice.
pub(crate) fn materialize_tensor(
    values: &mut [f32],
    offset: usize,
    wr: &WeightRecompute,
    factor: f32,
    acc: impl IntoIterator<Item = f32>,
) -> usize {
    let mut zeros = 0;
    if factor == 0.0 {
        for (w, a) in values.iter_mut().zip(acc) {
            *w = 0.0 + a;
            zeros += usize::from(*w == 0.0);
        }
    } else {
        for ((j, w), a) in values.iter_mut().enumerate().zip(acc) {
            *w = factor * wr.initial_value((offset + j) as u64) + a;
            zeros += usize::from(*w == 0.0);
        }
    }
    zeros
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::init_from_wr;
    use crate::testutil::micro_model;

    /// Every fifth accumulator is `−0.0` (past the flush, `0.0 + −0.0`
    /// must write `+0.0`), every fifth a nonzero value.
    fn acc(i: usize) -> f32 {
        match i % 5 {
            0 => -0.0,
            1 => i as f32 * 1e-4 - 0.3,
            _ => 0.0,
        }
    }

    #[test]
    fn materialize_matches_decayed_value_bitwise_across_the_flush() {
        let horizon = WeightRecompute::new(1, &[(1, 1.0)], 0.9)
            .zero_iteration()
            .unwrap();
        for lambda in [0.9, 1.0] {
            let mut model = micro_model(4, 5);
            let (wr, n) = init_from_wr(&mut model, 13, lambda);
            for t in [1, horizon - 1, horizon, horizon + 1] {
                let sparsity = materialize(&mut model, &wr, t, acc);
                let mut zeros = 0;
                for_each_prunable(&mut model, |offset, p| {
                    for (j, w) in p.values.data().iter().enumerate() {
                        let i = offset + j;
                        let want = wr.decayed_value(i as u64, t) + acc(i);
                        assert_eq!(w.to_bits(), want.to_bits(), "λ={lambda} t={t} i={i}");
                        zeros += usize::from(*w == 0.0);
                    }
                });
                assert_eq!(sparsity, zeros as f64 / n as f64, "λ={lambda} t={t}");
            }
        }
    }
}
