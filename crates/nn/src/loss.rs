//! Softmax cross-entropy loss and classification metrics.

use procrustes_tensor::{Scratch, Tensor};

/// Softmax + cross-entropy over logits `[N, classes]`.
///
/// # Examples
///
/// ```
/// use procrustes_nn::SoftmaxCrossEntropy;
/// use procrustes_tensor::Tensor;
/// let logits = Tensor::from_vec(&[1, 3], vec![2.0, 0.0, 0.0]);
/// let (loss, grad) = SoftmaxCrossEntropy.loss_and_grad(&logits, &[0]);
/// assert!(loss > 0.0 && loss < 1.0); // confident, correct prediction
/// assert_eq!(grad.shape().dims(), &[1, 3]);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SoftmaxCrossEntropy;

impl SoftmaxCrossEntropy {
    /// Mean cross-entropy loss and its gradient w.r.t. the logits.
    ///
    /// # Panics
    ///
    /// Panics if `logits` is not `[N, classes]`, `labels.len() != N`, or a
    /// label is out of range.
    pub fn loss_and_grad(&self, logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
        self.loss_and_grad_with(logits, labels, &mut Scratch::new())
    }

    /// [`loss_and_grad`](Self::loss_and_grad) drawing the gradient and
    /// per-row exponent buffer from a scratch pool (the hot-loop form
    /// the trainers use; recycle the returned gradient when done).
    ///
    /// # Panics
    ///
    /// Same conditions as [`loss_and_grad`](Self::loss_and_grad).
    pub fn loss_and_grad_with(
        &self,
        logits: &Tensor,
        labels: &[usize],
        scratch: &mut Scratch,
    ) -> (f32, Tensor) {
        assert_eq!(
            logits.shape().rank(),
            2,
            "loss: logits must be [N, classes]"
        );
        let (n, classes) = (logits.shape().dim(0), logits.shape().dim(1));
        assert_eq!(
            labels.len(),
            n,
            "loss: {} labels for batch {n}",
            labels.len()
        );
        let mut grad = scratch.take_tensor_any(&[n, classes]);
        let mut exps = scratch.take_any(classes);
        let ld = logits.data();
        let gd = grad.data_mut();
        let mut total = 0.0f32;
        for (ni, &label) in labels.iter().enumerate() {
            assert!(label < classes, "loss: label {label} out of {classes}");
            let row = &ld[ni * classes..(ni + 1) * classes];
            let maxv = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            for (e, &v) in exps.iter_mut().zip(row) {
                *e = (v - maxv).exp();
            }
            let z: f32 = exps.iter().sum();
            let p_label = exps[label] / z;
            total += -p_label.max(1e-30).ln();
            for ci in 0..classes {
                let p = exps[ci] / z;
                gd[ni * classes + ci] = (p - if ci == label { 1.0 } else { 0.0 }) / n as f32;
            }
        }
        scratch.recycle_vec(exps);
        (total / n as f32, grad)
    }
}

/// Top-1 classification accuracy of `logits` against `labels`, in `[0, 1]`.
///
/// # Panics
///
/// Panics if shapes disagree.
///
/// # Examples
///
/// ```
/// use procrustes_nn::accuracy;
/// use procrustes_tensor::Tensor;
/// let logits = Tensor::from_vec(&[2, 2], vec![3.0, 1.0, 0.0, 2.0]);
/// assert_eq!(accuracy(&logits, &[0, 1]), 1.0);
/// assert_eq!(accuracy(&logits, &[1, 1]), 0.5);
/// ```
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f64 {
    assert_eq!(
        logits.shape().rank(),
        2,
        "accuracy: logits must be [N, classes]"
    );
    let (n, classes) = (logits.shape().dim(0), logits.shape().dim(1));
    assert_eq!(labels.len(), n, "accuracy: label count mismatch");
    let mut correct = 0;
    for (ni, &label) in labels.iter().enumerate() {
        let row = &logits.data()[ni * classes..(ni + 1) * classes];
        let mut best = 0;
        for (ci, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = ci;
            }
        }
        if best == label {
            correct += 1;
        }
    }
    correct as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_classes() {
        let logits = Tensor::zeros(&[4, 10]);
        let (loss, _) = SoftmaxCrossEntropy.loss_and_grad(&logits, &[0, 1, 2, 3]);
        assert!((loss - (10.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn gradient_sums_to_zero_per_row() {
        let logits = Tensor::from_vec(&[2, 3], vec![1.0, -2.0, 0.5, 3.0, 0.0, -1.0]);
        let (_, grad) = SoftmaxCrossEntropy.loss_and_grad(&logits, &[2, 0]);
        for ni in 0..2 {
            let s: f32 = grad.data()[ni * 3..(ni + 1) * 3].iter().sum();
            assert!(s.abs() < 1e-6, "row {ni} sums to {s}");
        }
    }

    #[test]
    fn gradient_matches_numerical() {
        let logits = Tensor::from_vec(&[2, 3], vec![0.5, -1.0, 2.0, 1.0, 1.0, -0.5]);
        let labels = [2usize, 0];
        let (_, grad) = SoftmaxCrossEntropy.loss_and_grad(&logits, &labels);
        let eps = 1e-3;
        for i in 0..6 {
            let mut lp = logits.clone();
            lp.data_mut()[i] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[i] -= eps;
            let (fp, _) = SoftmaxCrossEntropy.loss_and_grad(&lp, &labels);
            let (fm, _) = SoftmaxCrossEntropy.loss_and_grad(&lm, &labels);
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - grad.data()[i]).abs() < 1e-3,
                "coord {i}: {num} vs {}",
                grad.data()[i]
            );
        }
    }

    #[test]
    fn loss_decreases_with_confidence() {
        let weak = Tensor::from_vec(&[1, 2], vec![0.1, 0.0]);
        let strong = Tensor::from_vec(&[1, 2], vec![5.0, 0.0]);
        let (l_weak, _) = SoftmaxCrossEntropy.loss_and_grad(&weak, &[0]);
        let (l_strong, _) = SoftmaxCrossEntropy.loss_and_grad(&strong, &[0]);
        assert!(l_strong < l_weak);
    }

    #[test]
    fn numerical_stability_with_large_logits() {
        let logits = Tensor::from_vec(&[1, 2], vec![1000.0, -1000.0]);
        let (loss, grad) = SoftmaxCrossEntropy.loss_and_grad(&logits, &[0]);
        assert!(loss.is_finite());
        assert!(grad.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "label 5 out of 3")]
    fn out_of_range_label_panics() {
        let logits = Tensor::zeros(&[1, 3]);
        SoftmaxCrossEntropy.loss_and_grad(&logits, &[5]);
    }

    #[test]
    fn accuracy_counts_argmax_matches() {
        let logits = Tensor::from_vec(&[3, 2], vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0]);
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(accuracy(&logits, &[0, 1, 0]), 1.0);
        assert_eq!(accuracy(&logits, &[1, 0, 1]), 0.0);
    }
}
