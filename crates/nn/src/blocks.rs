//! Composite blocks: residual (ResNet/WRN), dense (DenseNet), and
//! depthwise-separable (MobileNet) units.

use procrustes_prng::UniformRng;
use procrustes_tensor::{Scratch, Tensor};

use crate::util::{concat_channels_with, slice_channels_with};
use crate::{BatchNorm2d, Conv2d, DepthwiseConv2d, Layer, ParamTensor, ReLU, Sequential};

/// A residual block: `y = main(x) + shortcut(x)`.
///
/// `shortcut` is identity when `None` (requires matching shapes), or a
/// projection (1×1 strided conv + BN) for dimension changes.
///
/// # Examples
///
/// ```
/// use procrustes_nn::{Layer, Residual};
/// use procrustes_prng::Xorshift64;
/// use procrustes_tensor::Tensor;
/// let mut rng = Xorshift64::new(0);
/// let mut block = Residual::basic(8, 8, 1, &mut rng);
/// let y = block.forward(&Tensor::ones(&[1, 8, 4, 4]), true);
/// assert_eq!(y.shape().dims(), &[1, 8, 4, 4]);
/// ```
pub struct Residual {
    main: Sequential,
    shortcut: Option<Sequential>,
    post_relu: ReLU,
    saw_forward: bool,
}

impl Residual {
    /// Builds a block from explicit main/shortcut paths.
    pub fn new(main: Sequential, shortcut: Option<Sequential>) -> Self {
        Self {
            main,
            shortcut,
            post_relu: ReLU::new(),
            saw_forward: false,
        }
    }

    /// The standard ResNet/WRN basic block: two 3×3 conv+BN (ReLU between),
    /// with a projection shortcut when shape changes.
    pub fn basic<R: UniformRng + ?Sized>(
        in_ch: usize,
        out_ch: usize,
        stride: usize,
        rng: &mut R,
    ) -> Self {
        let mut main = Sequential::new();
        main.push(Conv2d::new(in_ch, out_ch, 3, stride, 1, false, rng));
        main.push(BatchNorm2d::new(out_ch));
        main.push(ReLU::new());
        main.push(Conv2d::new(out_ch, out_ch, 3, 1, 1, false, rng));
        main.push(BatchNorm2d::new(out_ch));
        let shortcut = (in_ch != out_ch || stride != 1).then(|| {
            let mut s = Sequential::new();
            s.push(Conv2d::new(in_ch, out_ch, 1, stride, 0, false, rng));
            s.push(BatchNorm2d::new(out_ch));
            s
        });
        Self::new(main, shortcut)
    }
}

impl Layer for Residual {
    fn forward_with(&mut self, x: &Tensor, train: bool, scratch: &mut Scratch) -> Tensor {
        let mut main = self.main.forward_with(x, train, scratch);
        // The skip path adds straight into `main` — no x clone, no sum
        // tensor (a + b elementwise, same order as the old zip).
        match &mut self.shortcut {
            Some(s) => {
                let skip = s.forward_with(x, train, scratch);
                assert!(
                    main.shape().same_as(skip.shape()),
                    "Residual: main {} vs shortcut {} shape mismatch",
                    main.shape(),
                    skip.shape()
                );
                for (a, &b) in main.data_mut().iter_mut().zip(skip.data()) {
                    *a += b;
                }
                scratch.recycle(skip);
            }
            None => {
                assert!(
                    main.shape().same_as(x.shape()),
                    "Residual: main {} vs shortcut {} shape mismatch",
                    main.shape(),
                    x.shape()
                );
                for (a, &b) in main.data_mut().iter_mut().zip(x.data()) {
                    *a += b;
                }
            }
        }
        if train {
            self.saw_forward = true;
        }
        let y = self.post_relu.forward_with(&main, train, scratch);
        scratch.recycle(main);
        y
    }

    fn backward_with(&mut self, dy: &Tensor, scratch: &mut Scratch) -> Tensor {
        assert!(
            self.saw_forward,
            "Residual::backward called before training-mode forward"
        );
        let dsum = self.post_relu.backward_with(dy, scratch);
        let mut dmain = self.main.backward_with(&dsum, scratch);
        match &mut self.shortcut {
            Some(s) => {
                let dskip = s.backward_with(&dsum, scratch);
                for (a, &b) in dmain.data_mut().iter_mut().zip(dskip.data()) {
                    *a += b;
                }
                scratch.recycle(dskip);
            }
            None => {
                for (a, &b) in dmain.data_mut().iter_mut().zip(dsum.data()) {
                    *a += b;
                }
            }
        }
        scratch.recycle(dsum);
        dmain
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(ParamTensor<'_>)) {
        self.main.visit_params(visitor);
        if let Some(s) = &mut self.shortcut {
            s.visit_params(visitor);
        }
    }

    fn name(&self) -> String {
        format!(
            "Residual(main: {}, shortcut: {})",
            self.main.name(),
            self.shortcut
                .as_ref()
                .map_or("identity".to_string(), |s| s.name())
        )
    }
}

/// One DenseNet *dense layer*: `y = concat(x, conv(relu(bn(x))))`.
///
/// Stacking `L` of these gives a dense block whose channel count grows by
/// the growth rate each layer.
pub struct DenseBlock {
    bn: BatchNorm2d,
    relu: ReLU,
    conv: Conv2d,
    in_ch: usize,
    growth: usize,
}

impl DenseBlock {
    /// Creates a dense layer taking `in_ch` channels and producing
    /// `in_ch + growth`.
    pub fn new<R: UniformRng + ?Sized>(in_ch: usize, growth: usize, rng: &mut R) -> Self {
        Self {
            bn: BatchNorm2d::new(in_ch),
            relu: ReLU::new(),
            conv: Conv2d::new(in_ch, growth, 3, 1, 1, false, rng),
            in_ch,
            growth,
        }
    }
}

impl Layer for DenseBlock {
    fn forward_with(&mut self, x: &Tensor, train: bool, scratch: &mut Scratch) -> Tensor {
        assert_eq!(x.shape().dim(1), self.in_ch, "DenseBlock: channel mismatch");
        let h = self.bn.forward_with(x, train, scratch);
        let h2 = self.relu.forward_with(&h, train, scratch);
        scratch.recycle(h);
        let new = self.conv.forward_with(&h2, train, scratch);
        scratch.recycle(h2);
        let y = concat_channels_with(&[x, &new], scratch);
        scratch.recycle(new);
        y
    }

    fn backward_with(&mut self, dy: &Tensor, scratch: &mut Scratch) -> Tensor {
        let mut dx_passthrough = slice_channels_with(dy, 0, self.in_ch, scratch);
        let dnew = slice_channels_with(dy, self.in_ch, self.in_ch + self.growth, scratch);
        let dh = self.conv.backward_with(&dnew, scratch);
        scratch.recycle(dnew);
        let dh2 = self.relu.backward_with(&dh, scratch);
        scratch.recycle(dh);
        let dx_path = self.bn.backward_with(&dh2, scratch);
        scratch.recycle(dh2);
        for (a, &b) in dx_passthrough.data_mut().iter_mut().zip(dx_path.data()) {
            *a += b;
        }
        scratch.recycle(dx_path);
        dx_passthrough
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(ParamTensor<'_>)) {
        self.bn.visit_params(visitor);
        self.conv.visit_params(visitor);
    }

    fn name(&self) -> String {
        format!("DenseBlock({}+{})", self.in_ch, self.growth)
    }
}

/// A depthwise-separable unit: depthwise 3×3 + BN + ReLU, then pointwise
/// 1×1 + BN + ReLU (the MobileNet building block).
pub struct DwSeparable {
    inner: Sequential,
}

impl DwSeparable {
    /// Creates an `in_ch → out_ch` separable block with the given stride
    /// on the depthwise stage.
    pub fn new<R: UniformRng + ?Sized>(
        in_ch: usize,
        out_ch: usize,
        stride: usize,
        rng: &mut R,
    ) -> Self {
        let mut inner = Sequential::new();
        inner.push(DepthwiseConv2d::new(in_ch, 3, stride, 1, rng));
        inner.push(BatchNorm2d::new(in_ch));
        inner.push(ReLU::new());
        inner.push(Conv2d::new(in_ch, out_ch, 1, 1, 0, false, rng));
        inner.push(BatchNorm2d::new(out_ch));
        inner.push(ReLU::new());
        Self { inner }
    }
}

impl Layer for DwSeparable {
    fn forward_with(&mut self, x: &Tensor, train: bool, scratch: &mut Scratch) -> Tensor {
        self.inner.forward_with(x, train, scratch)
    }

    fn backward_with(&mut self, dy: &Tensor, scratch: &mut Scratch) -> Tensor {
        self.inner.backward_with(dy, scratch)
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(ParamTensor<'_>)) {
        self.inner.visit_params(visitor);
    }

    fn name(&self) -> String {
        "DwSeparable".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slice_channels;
    use procrustes_prng::Xorshift64;
    use procrustes_tensor::gradcheck;

    #[test]
    fn residual_identity_shapes() {
        let mut rng = Xorshift64::new(1);
        let mut block = Residual::basic(4, 4, 1, &mut rng);
        let x = Tensor::randn(&[2, 4, 6, 6], 1.0, &mut rng);
        let y = block.forward(&x, true);
        assert_eq!(y.shape().dims(), x.shape().dims());
        let dx = block.backward(&Tensor::ones(y.shape().dims()));
        assert_eq!(dx.shape().dims(), x.shape().dims());
    }

    #[test]
    fn residual_projection_on_stride() {
        let mut rng = Xorshift64::new(2);
        let mut block = Residual::basic(4, 8, 2, &mut rng);
        let x = Tensor::randn(&[1, 4, 8, 8], 1.0, &mut rng);
        let y = block.forward(&x, true);
        assert_eq!(y.shape().dims(), &[1, 8, 4, 4]);
    }

    /// Channels, stride and the projection shortcut compose for any
    /// choice: the block maps `[1, cin, 8, 8]` to
    /// `[1, cout, 8/stride, 8/stride]` and the gradient back.
    #[test]
    fn residual_shapes_hold_for_any_channels_and_stride() {
        for cin in [2, 4, 6, 8, 10] {
            for mult in 1..=3 {
                for stride in 1..=2 {
                    let cout = cin * mult;
                    let mut rng = Xorshift64::new((cin * 100 + mult * 10 + stride) as u64);
                    let mut block = Residual::basic(cin, cout, stride, &mut rng);
                    let x = Tensor::randn(&[1, cin, 8, 8], 1.0, &mut rng);
                    let y = block.forward(&x, true);
                    let want = [1, cout, 8 / stride, 8 / stride];
                    assert_eq!(y.shape().dims(), &want, "{cin}->{cout} stride {stride}");
                    let dx = block.backward(&Tensor::ones(&want));
                    assert_eq!(dx.shape().dims(), x.shape().dims());
                }
            }
        }
    }

    #[test]
    fn residual_input_gradcheck() {
        let mut rng = Xorshift64::new(3);
        // Keep it BN-free for numeric stability: plain conv main path.
        let mut main = Sequential::new();
        main.push(Conv2d::new(2, 2, 3, 1, 1, false, &mut rng));
        let mut block = Residual::new(main, None);
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        let wts = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        block.forward(&x, true);
        let dy = wts.clone();
        let dx = block.backward(&dy);
        let report = gradcheck::check(&x, &dx, 8, 1e-2, |xt| {
            let y = block.forward(xt, true);
            y.data().iter().zip(wts.data()).map(|(a, b)| a * b).sum()
        });
        assert!(report.passes(2e-2), "err {}", report.max_rel_err);
    }

    #[test]
    fn dense_block_grows_channels() {
        let mut rng = Xorshift64::new(4);
        let mut block = DenseBlock::new(6, 4, &mut rng);
        let x = Tensor::randn(&[2, 6, 5, 5], 1.0, &mut rng);
        let y = block.forward(&x, true);
        assert_eq!(y.shape().dims(), &[2, 10, 5, 5]);
        // Passthrough channels are x itself.
        assert_eq!(slice_channels(&y, 0, 6), x);
        let dx = block.backward(&Tensor::ones(&[2, 10, 5, 5]));
        assert_eq!(dx.shape().dims(), &[2, 6, 5, 5]);
    }

    #[test]
    fn dw_separable_shapes_and_grads() {
        let mut rng = Xorshift64::new(5);
        let mut block = DwSeparable::new(4, 8, 2, &mut rng);
        let x = Tensor::randn(&[1, 4, 8, 8], 1.0, &mut rng);
        let y = block.forward(&x, true);
        assert_eq!(y.shape().dims(), &[1, 8, 4, 4]);
        let dx = block.backward(&Tensor::ones(y.shape().dims()));
        assert_eq!(dx.shape().dims(), &[1, 4, 8, 8]);
    }

    #[test]
    fn residual_param_visitation_covers_both_paths() {
        let mut rng = Xorshift64::new(6);
        let mut block = Residual::basic(2, 4, 2, &mut rng);
        let mut names = Vec::new();
        block.visit_params(&mut |p| names.push(p.name));
        // main: conv, bn(γ,β), conv, bn(γ,β); shortcut: conv, bn(γ,β)
        assert_eq!(names.iter().filter(|n| **n == "conv.weight").count(), 3);
        assert_eq!(names.iter().filter(|n| **n == "bn.gamma").count(), 3);
    }
}
