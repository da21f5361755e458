//! Tiny trainable network families ([`tiny_vgg`], [`tiny_resnet`],
//! [`tiny_wrn`], [`tiny_densenet`], [`tiny_mobilenet`]), one per paper
//! network, used by the substituted accuracy experiments (Figs 6, 7, 15,
//! 16) where actual training runs on the CPU. The full-size geometries
//! the accelerator model evaluates live in `procrustes_core::arch`.

use procrustes_prng::UniformRng;

use crate::{
    BatchNorm2d, Conv2d, DenseBlock, DwSeparable, Flatten, GlobalAvgPool, Linear, MaxPool2d, ReLU,
    Residual, Sequential,
};

/// A small VGG-style CNN for 32×32 inputs (~120 k prunable weights).
pub fn tiny_vgg<R: UniformRng + ?Sized>(classes: usize, rng: &mut R) -> Sequential {
    let mut m = Sequential::new();
    for (cin, cout) in [(3, 16), (16, 16)] {
        m.push(Conv2d::new(cin, cout, 3, 1, 1, false, rng));
        m.push(BatchNorm2d::new(cout));
        m.push(ReLU::new());
    }
    m.push(MaxPool2d::new()); // 16
    for (cin, cout) in [(16, 32), (32, 32)] {
        m.push(Conv2d::new(cin, cout, 3, 1, 1, false, rng));
        m.push(BatchNorm2d::new(cout));
        m.push(ReLU::new());
    }
    m.push(MaxPool2d::new()); // 8
    m.push(Conv2d::new(32, 64, 3, 1, 1, false, rng));
    m.push(BatchNorm2d::new(64));
    m.push(ReLU::new());
    m.push(MaxPool2d::new()); // 4
    m.push(Flatten::new());
    m.push(Linear::new(64 * 4 * 4, 64, true, rng));
    m.push(ReLU::new());
    m.push(Linear::new(64, classes, true, rng));
    m
}

/// A small ResNet for 32×32 or 64×64 inputs (~90 k prunable weights).
pub fn tiny_resnet<R: UniformRng + ?Sized>(classes: usize, rng: &mut R) -> Sequential {
    let mut m = Sequential::new();
    m.push(Conv2d::new(3, 16, 3, 1, 1, false, rng));
    m.push(BatchNorm2d::new(16));
    m.push(ReLU::new());
    m.push(Residual::basic(16, 16, 1, rng));
    m.push(Residual::basic(16, 32, 2, rng));
    m.push(Residual::basic(32, 64, 2, rng));
    m.push(GlobalAvgPool::new());
    m.push(Linear::new(64, classes, true, rng));
    m
}

/// A small WRN (widen factor 2, one block per group; ~190 k weights).
pub fn tiny_wrn<R: UniformRng + ?Sized>(classes: usize, rng: &mut R) -> Sequential {
    let mut m = Sequential::new();
    m.push(Conv2d::new(3, 16, 3, 1, 1, false, rng));
    m.push(BatchNorm2d::new(16));
    m.push(ReLU::new());
    m.push(Residual::basic(16, 32, 1, rng));
    m.push(Residual::basic(32, 64, 2, rng));
    m.push(Residual::basic(64, 128, 2, rng));
    m.push(GlobalAvgPool::new());
    m.push(Linear::new(128, classes, true, rng));
    m
}

/// A small DenseNet (growth 8, two blocks of three layers; ~25 k weights).
pub fn tiny_densenet<R: UniformRng + ?Sized>(classes: usize, rng: &mut R) -> Sequential {
    let growth = 8;
    let mut m = Sequential::new();
    m.push(Conv2d::new(3, 16, 3, 1, 1, false, rng));
    let mut c = 16;
    for _ in 0..3 {
        m.push(DenseBlock::new(c, growth, rng));
        c += growth;
    }
    m.push(Conv2d::new(c, c, 1, 1, 0, false, rng));
    m.push(MaxPool2d::new());
    for _ in 0..3 {
        m.push(DenseBlock::new(c, growth, rng));
        c += growth;
    }
    m.push(BatchNorm2d::new(c));
    m.push(ReLU::new());
    m.push(GlobalAvgPool::new());
    m.push(Linear::new(c, classes, true, rng));
    m
}

/// A small MobileNet built from depthwise-separable blocks (~30 k weights).
pub fn tiny_mobilenet<R: UniformRng + ?Sized>(classes: usize, rng: &mut R) -> Sequential {
    let mut m = Sequential::new();
    m.push(Conv2d::new(3, 16, 3, 2, 1, false, rng));
    m.push(BatchNorm2d::new(16));
    m.push(ReLU::new());
    m.push(DwSeparable::new(16, 32, 1, rng));
    m.push(DwSeparable::new(32, 64, 2, rng));
    m.push(DwSeparable::new(64, 128, 2, rng));
    m.push(GlobalAvgPool::new());
    m.push(Linear::new(128, classes, true, rng));
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Layer;
    use procrustes_prng::Xorshift64;
    use procrustes_tensor::Tensor;

    fn smoke_train(mut model: Sequential, dims: &[usize]) {
        let x = Tensor::randn(dims, 1.0, &mut Xorshift64::new(1));
        let y = model.forward(&x, true);
        assert_eq!(y.shape().dim(0), dims[0]);
        let dy = Tensor::ones(y.shape().dims());
        let dx = model.backward(&dy);
        assert_eq!(dx.shape().dims(), dims);
    }

    #[test]
    fn tiny_models_train_smoke() {
        let mut rng = Xorshift64::new(3);
        smoke_train(tiny_vgg(10, &mut rng), &[2, 3, 32, 32]);
        smoke_train(tiny_resnet(10, &mut rng), &[2, 3, 32, 32]);
        smoke_train(tiny_wrn(10, &mut rng), &[2, 3, 32, 32]);
        smoke_train(tiny_densenet(10, &mut rng), &[2, 3, 32, 32]);
        smoke_train(tiny_mobilenet(10, &mut rng), &[2, 3, 32, 32]);
    }

    #[test]
    fn tiny_resnet_handles_imagenet_like_input() {
        let mut rng = Xorshift64::new(4);
        smoke_train(tiny_resnet(10, &mut rng), &[1, 3, 64, 64]);
    }

    #[test]
    fn tiny_model_param_counts_are_modest() {
        let mut rng = Xorshift64::new(5);
        let mut m = tiny_vgg(10, &mut rng);
        let p = m.prunable_params();
        assert!((50_000..500_000).contains(&p), "tiny_vgg: {p} params");
    }
}
