//! Fully-connected, activation, and reshaping layers.

use procrustes_prng::UniformRng;
use procrustes_tensor::kernel::{self, Blueprint};
use procrustes_tensor::{Init, Scratch, Tensor};

use crate::store::{WeightCore, WeightStore};
use crate::{Layer, ParamTensor};

/// A fully-connected layer: `y = x·Wᵀ + b` with `x: [N, in]`,
/// `W: [out, in]`.
///
/// # Examples
///
/// ```
/// use procrustes_nn::{Layer, Linear};
/// use procrustes_prng::Xorshift64;
/// use procrustes_tensor::Tensor;
/// let mut fc = Linear::new(4, 2, true, &mut Xorshift64::new(1));
/// let y = fc.forward(&Tensor::ones(&[3, 4]), true);
/// assert_eq!(y.shape().dims(), &[3, 2]);
/// ```
pub struct Linear {
    /// The weights, with a store synced at every forward, which
    /// re-derives its decode only after a write or a backend switch.
    core: WeightCore,
    cached_x: Option<Tensor>,
}

impl Linear {
    /// Creates an `in_features → out_features` layer with Xavier init.
    pub fn new<R: UniformRng + ?Sized>(
        in_features: usize,
        out_features: usize,
        bias: bool,
        rng: &mut R,
    ) -> Self {
        let weight = Init::Xavier.fc_weights(out_features, in_features, rng);
        Self {
            core: WeightCore::new(weight, bias),
            cached_x: None,
        }
    }

    /// The `[out, in]` weight matrix.
    pub fn weight(&self) -> &Tensor {
        self.core.store.tensor()
    }

    /// Mutable weight access. Marks the compute representation stale.
    pub fn weight_mut(&mut self) -> &mut Tensor {
        self.core.store.tensor_mut()
    }

    /// The weight store in its active representation.
    pub fn weight_store(&self) -> &WeightStore {
        &self.core.store
    }
}

impl Layer for Linear {
    fn forward_with(&mut self, x: &Tensor, train: bool, scratch: &mut Scratch) -> Tensor {
        assert_eq!(x.shape().rank(), 2, "Linear: input must be [N, features]");
        self.core.store.sync();
        let n = x.shape().dim(0);
        let w = self.core.store.tensor();
        let (out, inp) = (w.shape().dim(0), w.shape().dim(1));
        let mut y = match self.core.store.decode() {
            Some(decode) => decode.fc_forward(x, scratch),
            // y = x·Wᵀ as a transposed-rhs blueprint: no materialized
            // `w.transpose2d()` round-trip, same reduction order.
            None => {
                let mut y = scratch.take_tensor_any(&[n, out]);
                kernel::gemm(
                    &Blueprint::nt(n, inp, out).with_threads(kernel::default_threads()),
                    y.data_mut(),
                    x.data(),
                    w.data(),
                    scratch,
                );
                y
            }
        };
        self.core.add_bias(&mut y);
        if train {
            x.clone_into_slot(&mut self.cached_x);
        }
        y
    }

    fn backward_with(&mut self, dy: &Tensor, scratch: &mut Scratch) -> Tensor {
        self.backward_params_with(dy, scratch);
        let (n, o) = (dy.shape().dim(0), dy.shape().dim(1));
        let inp = self.core.store.tensor().shape().dim(1);
        // dx = dy · W, through the transposed fetch of the decode when
        // the store is compressed.
        match self.core.store.decode() {
            Some(decode) => decode.fc_backward_input(dy, scratch),
            None => {
                let mut dx = scratch.take_tensor_any(&[n, inp]);
                kernel::gemm(
                    &Blueprint::nn(n, o, inp).with_threads(kernel::default_threads()),
                    dx.data_mut(),
                    dy.data(),
                    self.core.store.tensor().data(),
                    scratch,
                );
                dx
            }
        }
    }

    fn backward_params_with(&mut self, dy: &Tensor, scratch: &mut Scratch) {
        let x = self
            .cached_x
            .as_ref()
            .expect("Linear::backward called before training-mode forward");
        let (n, o) = (dy.shape().dim(0), dy.shape().dim(1));
        let inp = x.shape().dim(1);
        // dW = dyᵀ · x (dense: any weight may be re-admitted by sparse
        // trainers) as a transposed-lhs blueprint: the kernel reads dy
        // through its [n, o] layout directly, so the old materialized
        // `transpose_into` copy is gone. Same per-element reduction
        // order, bitwise-equal result.
        let mut dw = scratch.take_tensor_any(&[o, inp]);
        kernel::gemm(
            &Blueprint::tn(o, n, inp).with_threads(kernel::default_threads()),
            dw.data_mut(),
            dy.data(),
            x.data(),
            scratch,
        );
        self.core.accumulate(&dw, dy);
        scratch.recycle(dw);
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(ParamTensor<'_>)) {
        self.core.visit_params(["fc.weight", "fc.bias"], visitor);
    }

    fn name(&self) -> String {
        let s = self.core.store.tensor().shape();
        format!("Linear({}→{})", s.dim(1), s.dim(0))
    }
}

/// Rectified linear unit, `y = max(x, 0)` — the activation-sparsity source
/// the weight-update phase exploits (§II-B of the paper). A NaN input
/// stays NaN, so it reaches the loss, and routes no gradient.
#[derive(Default)]
pub struct ReLU {
    mask: Option<Vec<bool>>,
}

impl ReLU {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for ReLU {
    fn forward_with(&mut self, x: &Tensor, train: bool, scratch: &mut Scratch) -> Tensor {
        // `max` drops a NaN; pass it on to the loss instead.
        let relu = |v: f32| if v.is_nan() { v } else { v.max(0.0) };
        let mut y = scratch.take_tensor_any(x.shape().dims());
        let pairs = y.data_mut().iter_mut().zip(x.data());
        if train {
            // One walk writes both; a mask of the same length is reused
            // as it stands.
            let mask = self.mask.get_or_insert_with(Vec::new);
            mask.resize(x.len(), false);
            for ((o, &v), keep) in pairs.zip(mask.iter_mut()) {
                *o = relu(v);
                *keep = v > 0.0;
            }
        } else {
            for (o, &v) in pairs {
                *o = relu(v);
            }
        }
        y
    }

    fn backward_with(&mut self, dy: &Tensor, scratch: &mut Scratch) -> Tensor {
        let mask = self
            .mask
            .as_ref()
            .expect("ReLU::backward called before training-mode forward");
        assert_eq!(mask.len(), dy.len(), "ReLU: gradient shape changed");
        let mut dx = scratch.take_tensor_any(dy.shape().dims());
        for ((o, &v), &keep) in dx.data_mut().iter_mut().zip(dy.data()).zip(mask) {
            *o = if keep { v } else { 0.0 };
        }
        dx
    }

    fn name(&self) -> String {
        "ReLU".to_string()
    }
}

/// Flattens `NCHW` activations into `[N, C·H·W]` rows for fc heads.
#[derive(Default)]
pub struct Flatten {
    cached_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn forward_with(&mut self, x: &Tensor, train: bool, scratch: &mut Scratch) -> Tensor {
        let dims = x.shape().dims();
        assert!(!dims.is_empty());
        let n = dims[0];
        let rest: usize = dims[1..].iter().product();
        if train {
            let cached = self.cached_dims.get_or_insert_with(Vec::new);
            cached.clear();
            cached.extend_from_slice(dims);
        }
        // One pooled copy instead of the old clone-then-reshape
        // round-trip (the data is shared layout; only the shape view
        // changes).
        let mut y = scratch.take_any(x.len());
        y.copy_from_slice(x.data());
        Tensor::from_vec(&[n, rest], y)
    }

    fn backward_with(&mut self, dy: &Tensor, scratch: &mut Scratch) -> Tensor {
        let dims = self
            .cached_dims
            .as_ref()
            .expect("Flatten::backward called before training-mode forward");
        let mut dx = scratch.take_any(dy.len());
        dx.copy_from_slice(dy.data());
        Tensor::from_vec(dims, dx)
    }

    fn name(&self) -> String {
        "Flatten".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use procrustes_prng::Xorshift64;
    use procrustes_tensor::gradcheck;

    #[test]
    fn linear_matches_manual() {
        let mut fc = Linear::new(2, 2, true, &mut Xorshift64::new(1));
        *fc.weight_mut() = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let y = fc.forward(&Tensor::from_vec(&[1, 2], vec![5.0, 6.0]), false);
        // y = [5*1+6*2, 5*3+6*4] = [17, 39]
        assert_eq!(y.data(), &[17.0, 39.0]);
    }

    #[test]
    fn linear_weight_gradcheck() {
        let mut rng = Xorshift64::new(2);
        let mut fc = Linear::new(3, 2, true, &mut rng);
        let x = Tensor::randn(&[4, 3], 1.0, &mut rng);
        let y = fc.forward(&x, true);
        fc.backward(&Tensor::ones(y.shape().dims()));
        let weight = fc.weight().clone();
        let mut grad = None;
        fc.visit_params(&mut |p| {
            if p.name == "fc.weight" {
                grad = Some(p.grads.clone());
            }
        });
        let report = gradcheck::check(&weight, &grad.unwrap(), 6, 1e-2, |w| {
            let mut probe = Linear::new(3, 2, true, &mut Xorshift64::new(2));
            *probe.weight_mut() = w.clone();
            probe.forward(&x, false).sum()
        });
        assert!(report.passes(1e-2), "err {}", report.max_rel_err);
    }

    #[test]
    fn linear_input_gradcheck() {
        let mut rng = Xorshift64::new(3);
        let mut fc = Linear::new(3, 2, false, &mut rng);
        let x = Tensor::randn(&[2, 3], 1.0, &mut rng);
        let y = fc.forward(&x, true);
        let dx = fc.backward(&Tensor::ones(y.shape().dims()));
        let report = gradcheck::check(&x, &dx, 6, 1e-2, |xt| fc.forward(xt, false).sum());
        assert!(report.passes(1e-2), "err {}", report.max_rel_err);
    }

    #[test]
    fn relu_zeroes_negative_gradients() {
        let mut relu = ReLU::new();
        let x = Tensor::from_vec(&[1, 4], vec![-2.0, -0.5, 0.5, 2.0]);
        let y = relu.forward(&x, true);
        assert_eq!(y.data(), &[0.0, 0.0, 0.5, 2.0]);
        let dx = relu.backward(&Tensor::ones(&[1, 4]));
        assert_eq!(dx.data(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn relu_passes_nan_on_and_routes_no_gradient_through_it() {
        let mut relu = ReLU::new();
        let nan = f32::from_bits(0xffc0_0005);
        let x = Tensor::from_vec(&[1, 5], vec![nan, -1.0, -0.0, 0.0, 3.0]);
        let y = relu.forward(&x, true);
        assert_eq!(y.data()[0].to_bits(), nan.to_bits(), "the NaN itself");
        assert_eq!(&y.data()[1..], &[0.0, 0.0, 0.0, 3.0]);
        assert_eq!(relu.forward(&x, false).data()[0].to_bits(), nan.to_bits());
        let dx = relu.backward(&Tensor::from_vec(&[1, 5], vec![2.0; 5]));
        assert_eq!(dx.data(), &[0.0, 0.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_creates_activation_sparsity() {
        let mut relu = ReLU::new();
        let x = Tensor::randn(&[1, 1000], 1.0, &mut Xorshift64::new(4));
        let y = relu.forward(&x, false);
        // Roughly half of standard normal samples are negative.
        let sparsity = y.sparsity();
        assert!((0.4..0.6).contains(&sparsity), "sparsity {sparsity}");
    }

    #[test]
    fn flatten_roundtrip() {
        let mut fl = Flatten::new();
        let x = Tensor::from_fn(&[2, 3, 2, 2], |i| (i[0] + i[1] + i[2] + i[3]) as f32);
        let y = fl.forward(&x, true);
        assert_eq!(y.shape().dims(), &[2, 12]);
        let dx = fl.backward(&y);
        assert_eq!(dx, x);
    }
}
