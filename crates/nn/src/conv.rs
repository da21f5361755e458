//! Convolution layers: standard and depthwise.

use procrustes_prng::UniformRng;
use procrustes_tensor::{
    conv2d_backward_input_gemm, conv2d_backward_weights_from_planes, conv2d_from_planes,
    conv_out_dim, Init, PaddedPlanes, Scratch, Tensor,
};

use crate::store::{WeightCore, WeightStore};
use crate::{Layer, ParamKind, ParamTensor, Values};

/// Replaces `slot` with a fresh tensor of `dims` unless it already has
/// that shape; returns the tensor for in-place (re)filling. Allocation
/// only happens when the shape actually changes.
pub(crate) fn ensure_cached<'a>(slot: &'a mut Option<Tensor>, dims: &[usize]) -> &'a mut Tensor {
    let stale = slot.as_ref().is_none_or(|t| t.shape().dims() != dims);
    if stale {
        *slot = Some(Tensor::zeros(dims));
    }
    slot.as_mut().expect("just ensured")
}

/// A 2-D convolution layer (`NCHW` activations, `KCRS` weights).
///
/// # Examples
///
/// ```
/// use procrustes_nn::{Conv2d, Layer};
/// use procrustes_prng::Xorshift64;
/// use procrustes_tensor::Tensor;
///
/// let mut conv = Conv2d::new(3, 8, 3, 1, 1, false, &mut Xorshift64::new(7));
/// let y = conv.forward(&Tensor::ones(&[2, 3, 8, 8]), true);
/// assert_eq!(y.shape().dims(), &[2, 8, 8, 8]);
/// ```
pub struct Conv2d {
    /// The weights, with a store synced at every forward, which
    /// re-derives its decode only after a write or a backend switch.
    core: WeightCore,
    stride: usize,
    pad: usize,
    /// The zero-padded planes of the last training-mode input (1.13×
    /// a 32×32 input at pad 1) — cached *instead of* the raw
    /// activations or their im2col matrix (9×): the forward product
    /// reads its columns out of them as a view, on either backend, and
    /// the weight update (`dy·colsᵀ`) reads each tap's value out of the
    /// same view again, so nothing is ever unfolded. The planes persist across steps and
    /// are refilled in place.
    xp: Option<PaddedPlanes>,
}

impl Conv2d {
    /// Creates a conv layer with Kaiming-initialized weights.
    ///
    /// `in_ch → out_ch` channels, square `kernel`, symmetric `pad`,
    /// uniform `stride`; `bias` adds a per-output-channel offset (paper
    /// networks use batch norm, so most convs run bias-free).
    pub fn new<R: UniformRng + ?Sized>(
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        bias: bool,
        rng: &mut R,
    ) -> Self {
        let weight = Init::Kaiming.conv_weights(out_ch, in_ch, kernel, kernel, rng);
        Self {
            core: WeightCore::new(weight, bias),
            stride,
            pad,
            xp: None,
        }
    }

    /// The weight tensor (`KCRS`).
    pub fn weight(&self) -> &Tensor {
        self.core.store.tensor()
    }

    /// Mutable weight access (used by sparse trainers to write masked
    /// updates back). Marks the compute representation stale.
    pub fn weight_mut(&mut self) -> &mut Tensor {
        self.core.store.tensor_mut()
    }

    /// The weight store in its active representation (after the last
    /// forward-pass resync).
    pub fn weight_store(&self) -> &WeightStore {
        &self.core.store
    }

    /// Floats the layer holds of its last training-mode input: the
    /// padded planes, never their `C·R·S × N·P·Q` column matrix.
    pub fn cached_floats(&self) -> usize {
        self.xp.as_ref().map_or(0, PaddedPlanes::len)
    }

    fn dims(&self) -> (usize, usize, usize) {
        let s = self.core.store.tensor().shape();
        (s.dim(0), s.dim(1), s.dim(2))
    }

    /// The forward product over `xp` on the store's backend: the GEMM on
    /// dense weights, the gather on the decoded nonzeros — one view of
    /// the same planes either way.
    fn product(&self, xp: &PaddedPlanes, scratch: &mut Scratch) -> Tensor {
        match self.core.store.decode() {
            Some(decode) => decode.forward(xp, scratch),
            None => conv2d_from_planes(self.core.store.tensor(), xp, scratch),
        }
    }
}

impl Layer for Conv2d {
    fn forward_with(&mut self, x: &Tensor, train: bool, scratch: &mut Scratch) -> Tensor {
        self.core.store.sync();
        let s = x.shape();
        assert_eq!(s.rank(), 4, "conv: activations must be NCHW");
        let (n, c, h, wdt) = (s.dim(0), s.dim(1), s.dim(2), s.dim(3));
        let (_, cw, kernel) = self.dims();
        assert_eq!(
            c, cw,
            "conv: input channels {c} != weight input channels {cw}"
        );
        let (stride, pad) = (self.stride, self.pad);
        let mut y = if train {
            // Pad once; forward reads it and backward reads it again.
            let xp = match self.xp.take() {
                Some(mut xp) if xp.source_dims() == [n, c, h, wdt] => {
                    xp.refill(x);
                    xp
                }
                stale => {
                    if let Some(stale) = stale {
                        stale.recycle(scratch);
                    }
                    PaddedPlanes::of_input(x, kernel, kernel, stride, pad, scratch)
                }
            };
            let y = self.product(&xp, scratch);
            self.xp = Some(xp);
            y
        } else {
            // Eval mode caches nothing: it pads into pooled planes and
            // returns them right after the product.
            let xp = PaddedPlanes::of_input(x, kernel, kernel, stride, pad, scratch);
            let y = self.product(&xp, scratch);
            xp.recycle(scratch);
            y
        };
        self.core.add_bias(&mut y);
        y
    }

    fn backward_with(&mut self, dy: &Tensor, scratch: &mut Scratch) -> Tensor {
        self.backward_params_with(dy, scratch);
        let [_, _, h, w] = self.xp.as_ref().expect("just used").source_dims();
        // The input gradient streams the weights (rotated at fetch, Fig
        // 2b) — a GEMM against the rotated filter matrix on the dense
        // path, the gather over the decoded nonzeros on the sparse one;
        // both read the padded planes of `dy` and reduce in the same
        // order.
        let (stride, pad, store) = (self.stride, self.pad, &self.core.store);
        match store.decode() {
            Some(decode) => decode.backward_input(dy, h, w, stride, pad, scratch),
            None => conv2d_backward_input_gemm(dy, store.tensor(), h, w, stride, pad, scratch),
        }
    }

    fn backward_params_with(&mut self, dy: &Tensor, scratch: &mut Scratch) {
        let xp = self
            .xp
            .as_ref()
            .expect("Conv2d::backward called before training-mode forward");
        // Weight update: dy·colsᵀ over the forward pass's cached
        // planes, by the pack-free kernel that splits the filter taps
        // over the worker pool. The gradient stays dense on either
        // backend — Dropback-style training needs ∂L/∂w at *pruned*
        // positions too, so candidates can be (re-)admitted.
        let dw = conv2d_backward_weights_from_planes(dy, xp, scratch);
        self.core.accumulate(&dw, dy);
        scratch.recycle(dw);
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(ParamTensor<'_>)) {
        self.core
            .visit_params(["conv.weight", "conv.bias"], visitor);
    }

    fn name(&self) -> String {
        let s = self.core.store.tensor().shape();
        format!(
            "Conv2d({}→{}, {}×{}, stride {}, pad {})",
            s.dim(1),
            s.dim(0),
            s.dim(2),
            s.dim(3),
            self.stride,
            self.pad
        )
    }
}

/// A depthwise 2-D convolution: one `R×S` filter per channel (the middle
/// stage of MobileNet's inverted bottleneck).
///
/// Weights are stored `[C, 1, R, S]`.
///
/// # Examples
///
/// ```
/// use procrustes_nn::{DepthwiseConv2d, Layer};
/// use procrustes_prng::Xorshift64;
/// use procrustes_tensor::Tensor;
/// let mut dw = DepthwiseConv2d::new(4, 3, 1, 1, &mut Xorshift64::new(1));
/// let y = dw.forward(&Tensor::ones(&[1, 4, 6, 6]), true);
/// assert_eq!(y.shape().dims(), &[1, 4, 6, 6]);
/// ```
pub struct DepthwiseConv2d {
    weight: Tensor,
    dweight: Tensor,
    stride: usize,
    pad: usize,
    cached_x: Option<Tensor>,
}

impl DepthwiseConv2d {
    /// Creates a depthwise conv over `channels` with a square `kernel`.
    pub fn new<R: UniformRng + ?Sized>(
        channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut R,
    ) -> Self {
        let weight = Init::Kaiming.conv_weights(channels, 1, kernel, kernel, rng);
        let dweight = Tensor::zeros(weight.shape().dims());
        Self {
            weight,
            dweight,
            stride,
            pad,
            cached_x: None,
        }
    }
}

impl Layer for DepthwiseConv2d {
    fn forward_with(&mut self, x: &Tensor, train: bool, scratch: &mut Scratch) -> Tensor {
        let s = x.shape();
        let (n, c, h, w) = (s.dim(0), s.dim(1), s.dim(2), s.dim(3));
        assert_eq!(
            c,
            self.weight.shape().dim(0),
            "DepthwiseConv2d: channel mismatch"
        );
        let k = self.weight.shape().dim(2);
        let p = conv_out_dim(h, k, self.stride, self.pad);
        let q = conv_out_dim(w, k, self.stride, self.pad);
        let mut y = scratch.take_tensor_any(&[n, c, p, q]);
        let xd = x.data();
        let wd = self.weight.data();
        let yd = y.data_mut();
        for ni in 0..n {
            for ci in 0..c {
                let wbase = ci * k * k;
                for pi in 0..p {
                    for qi in 0..q {
                        let mut acc = 0.0;
                        for ri in 0..k {
                            let hi = pi * self.stride + ri;
                            if hi < self.pad || hi - self.pad >= h {
                                continue;
                            }
                            let hi = hi - self.pad;
                            for si in 0..k {
                                let wi = qi * self.stride + si;
                                if wi < self.pad || wi - self.pad >= w {
                                    continue;
                                }
                                let wi = wi - self.pad;
                                acc +=
                                    wd[wbase + ri * k + si] * xd[((ni * c + ci) * h + hi) * w + wi];
                            }
                        }
                        yd[((ni * c + ci) * p + pi) * q + qi] = acc;
                    }
                }
            }
        }
        if train {
            // In-place refresh of the persistent activation cache — no
            // per-step clone.
            x.clone_into_slot(&mut self.cached_x);
        }
        y
    }

    fn backward_with(&mut self, dy: &Tensor, scratch: &mut Scratch) -> Tensor {
        let x = self
            .cached_x
            .as_ref()
            .expect("DepthwiseConv2d::backward called before training-mode forward");
        let s = x.shape();
        let (n, c, h, w) = (s.dim(0), s.dim(1), s.dim(2), s.dim(3));
        let k = self.weight.shape().dim(2);
        let (p, q) = (dy.shape().dim(2), dy.shape().dim(3));
        let mut dx = scratch.take_tensor(&[n, c, h, w]);
        let xd = x.data();
        let wd = self.weight.data();
        let dyd = dy.data();
        let dwd = self.dweight.data_mut();
        let dxd = dx.data_mut();
        for ni in 0..n {
            for ci in 0..c {
                let wbase = ci * k * k;
                for pi in 0..p {
                    for qi in 0..q {
                        let g = dyd[((ni * c + ci) * p + pi) * q + qi];
                        if g == 0.0 {
                            continue;
                        }
                        for ri in 0..k {
                            let hi = pi * self.stride + ri;
                            if hi < self.pad || hi - self.pad >= h {
                                continue;
                            }
                            let hi = hi - self.pad;
                            for si in 0..k {
                                let wi = qi * self.stride + si;
                                if wi < self.pad || wi - self.pad >= w {
                                    continue;
                                }
                                let wi = wi - self.pad;
                                let xoff = ((ni * c + ci) * h + hi) * w + wi;
                                dwd[wbase + ri * k + si] += g * xd[xoff];
                                dxd[xoff] += g * wd[wbase + ri * k + si];
                            }
                        }
                    }
                }
            }
        }
        dx
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(ParamTensor<'_>)) {
        visitor(ParamTensor {
            name: "dwconv.weight",
            kind: ParamKind::Prunable,
            values: Values::Plain(&mut self.weight),
            grads: &mut self.dweight,
        });
    }

    fn name(&self) -> String {
        let s = self.weight.shape();
        format!(
            "DepthwiseConv2d({} ch, {}×{}, stride {})",
            s.dim(0),
            s.dim(2),
            s.dim(3),
            self.stride
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use procrustes_prng::Xorshift64;
    use procrustes_tensor::gradcheck;

    #[test]
    fn conv_forward_shapes() {
        let mut rng = Xorshift64::new(1);
        let mut conv = Conv2d::new(3, 5, 3, 2, 1, true, &mut rng);
        let y = conv.forward(&Tensor::ones(&[2, 3, 8, 8]), false);
        assert_eq!(y.shape().dims(), &[2, 5, 4, 4]);
    }

    #[test]
    fn conv_weight_gradcheck() {
        let mut rng = Xorshift64::new(2);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, true, &mut rng);
        let x = Tensor::randn(&[2, 2, 5, 5], 1.0, &mut rng);
        // loss = sum(forward(x))
        let y = conv.forward(&x, true);
        let dy = Tensor::ones(y.shape().dims());
        conv.zero_grads();
        conv.backward(&dy);
        let weight = conv.weight().clone();
        let mut analytic = None;
        conv.visit_params(&mut |p| {
            if p.name == "conv.weight" {
                analytic = Some(p.grads.clone());
            }
        });
        let analytic = analytic.unwrap();
        let report = gradcheck::check(&weight, &analytic, 8, 1e-2, |w| {
            let mut probe = Conv2d::new(2, 3, 3, 1, 1, true, &mut Xorshift64::new(2));
            *probe.weight_mut() = w.clone();
            probe.forward(&x, false).sum()
        });
        assert!(report.passes(1e-2), "max err {}", report.max_rel_err);
    }

    #[test]
    fn conv_input_gradcheck() {
        let mut rng = Xorshift64::new(3);
        let mut conv = Conv2d::new(2, 2, 3, 1, 0, false, &mut rng);
        let x = Tensor::randn(&[1, 2, 5, 5], 1.0, &mut rng);
        let y = conv.forward(&x, true);
        let dy = Tensor::ones(y.shape().dims());
        let dx = conv.backward(&dy);
        let report = gradcheck::check(&x, &dx, 8, 1e-2, |xt| conv.forward(xt, false).sum());
        assert!(report.passes(1e-2), "max err {}", report.max_rel_err);
    }

    #[test]
    fn bias_gradient_is_dy_sum() {
        let mut rng = Xorshift64::new(4);
        let mut conv = Conv2d::new(1, 2, 1, 1, 0, true, &mut rng);
        let x = Tensor::ones(&[2, 1, 3, 3]);
        conv.forward(&x, true);
        let dy = Tensor::ones(&[2, 2, 3, 3]);
        conv.backward(&dy);
        conv.visit_params(&mut |p| {
            if p.name == "conv.bias" {
                assert_eq!(p.grads.data(), &[18.0, 18.0]);
            }
        });
    }

    #[test]
    fn depthwise_matches_explicit_grouped_conv() {
        let mut rng = Xorshift64::new(5);
        let mut dw = DepthwiseConv2d::new(3, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[2, 3, 6, 6], 1.0, &mut Xorshift64::new(6));
        let y = dw.forward(&x, false);
        // Reference: per-channel standard conv with a block-diagonal kernel.
        for ci in 0..3 {
            let xc = crate::slice_channels(&x, ci, ci + 1);
            let wc = Tensor::from_fn(&[1, 1, 3, 3], |i| dw.weight.at(&[ci, 0, i[2], i[3]]));
            let yc = procrustes_tensor::reference::conv2d(&xc, &wc, 1, 1);
            let got = crate::slice_channels(&y, ci, ci + 1);
            for (a, b) in got.data().iter().zip(yc.data()) {
                assert!((a - b).abs() < 1e-5, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn depthwise_gradcheck() {
        let mut rng = Xorshift64::new(7);
        let mut dw = DepthwiseConv2d::new(2, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[1, 2, 5, 5], 1.0, &mut rng);
        let y = dw.forward(&x, true);
        let dx = dw.backward(&Tensor::ones(y.shape().dims()));
        let report = gradcheck::check(&x, &dx, 8, 1e-2, |xt| dw.forward(xt, false).sum());
        assert!(report.passes(1e-2), "max err {}", report.max_rel_err);
    }

    #[test]
    #[should_panic(expected = "before training-mode forward")]
    fn backward_without_forward_panics() {
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, false, &mut Xorshift64::new(8));
        conv.backward(&Tensor::ones(&[1, 1, 1, 1]));
    }

    #[test]
    fn zero_grads_resets() {
        let mut rng = Xorshift64::new(9);
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, false, &mut rng);
        let x = Tensor::ones(&[1, 1, 4, 4]);
        let y = conv.forward(&x, true);
        conv.backward(&Tensor::ones(y.shape().dims()));
        conv.zero_grads();
        conv.visit_params(&mut |p| assert_eq!(p.grads.sum(), 0.0));
    }
}
