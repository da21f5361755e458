//! End-to-end learning tests: the framework must actually train.
//!
//! Every substituted accuracy experiment (paper Figs 6, 7, 15, 16) stands
//! on this property, so it is pinned here: a small CNN trained with plain
//! SGD on the synthetic dataset must beat chance by a wide margin.

use procrustes_nn::{accuracy, data::SyntheticImages, Layer, Sequential, Sgd, SoftmaxCrossEntropy};
use procrustes_nn::{BatchNorm2d, Conv2d, Flatten, GlobalAvgPool, Linear, MaxPool2d, ReLU};
use procrustes_prng::{UniformRng, Xorshift64};
use procrustes_tensor::Tensor;

fn micro_cnn(classes: usize, rng: &mut Xorshift64) -> Sequential {
    let mut m = Sequential::new();
    m.push(Conv2d::new(3, 8, 3, 1, 1, false, rng));
    m.push(BatchNorm2d::new(8));
    m.push(ReLU::new());
    m.push(MaxPool2d::new()); // 8
    m.push(Conv2d::new(8, 16, 3, 1, 1, false, rng));
    m.push(BatchNorm2d::new(16));
    m.push(ReLU::new());
    m.push(MaxPool2d::new()); // 4
    m.push(Flatten::new());
    m.push(Linear::new(16 * 4 * 4, classes, true, rng));
    m
}

#[test]
fn sgd_learns_synthetic_classification() {
    let classes = 4;
    let data = SyntheticImages::new(classes, 16, 16, 0.25, 7);
    let mut rng = Xorshift64::new(1);
    let mut model = micro_cnn(classes, &mut rng);
    let mut opt = Sgd::new(0.05).with_momentum(0.9);
    let loss_fn = SoftmaxCrossEntropy;

    let mut losses = Vec::new();
    for _ in 0..80 {
        let (x, labels) = data.batch(16, &mut rng);
        let logits = model.forward(&x, true);
        let (loss, dlogits) = loss_fn.loss_and_grad(&logits, &labels);
        losses.push(loss);
        model.backward(&dlogits);
        opt.step(&mut model);
    }

    // Loss must drop substantially from its starting point.
    let start: f32 = losses[..5].iter().sum::<f32>() / 5.0;
    let end: f32 = losses[losses.len() - 5..].iter().sum::<f32>() / 5.0;
    assert!(end < start * 0.6, "loss barely moved: {start} -> {end}");

    // Validation accuracy well above chance (25% for 4 classes).
    let (vx, vlabels) = data.fixed_set(64, 999);
    let logits = model.forward(&vx, false);
    let acc = accuracy(&logits, &vlabels);
    assert!(acc > 0.6, "validation accuracy only {acc}");
}

#[test]
fn eval_mode_is_deterministic_and_stateless() {
    let data = SyntheticImages::new(4, 16, 16, 0.25, 7);
    let mut rng = Xorshift64::new(2);
    let mut model = micro_cnn(4, &mut rng);
    let (vx, _) = data.fixed_set(8, 1);
    let a = model.forward(&vx, false);
    let b = model.forward(&vx, false);
    assert_eq!(a, b, "eval forward must not mutate state");
}

/// A random conv stack on 3×16×16 inputs: one to three
/// conv–BN–ReLU stages of 4/8/12 channels, each optionally followed by
/// a 2×2 max-pool, under a global-average-pool or a flatten head.
fn random_stack(classes: usize, rng: &mut Xorshift64) -> Sequential {
    let mut m = Sequential::new();
    let (mut ch, mut spatial) = (3, 16);
    for _ in 0..1 + rng.next_below(3) {
        let out = 4 * (1 + rng.next_below(3) as usize);
        m.push(Conv2d::new(ch, out, 3, 1, 1, false, rng));
        m.push(BatchNorm2d::new(out));
        m.push(ReLU::new());
        if rng.next_below(2) == 1 {
            m.push(MaxPool2d::new());
            spatial /= 2;
        }
        ch = out;
    }
    if rng.next_below(2) == 1 {
        m.push(GlobalAvgPool::new());
        m.push(Linear::new(ch, classes, true, rng));
    } else {
        m.push(Flatten::new());
        m.push(Linear::new(ch * spatial * spatial, classes, true, rng));
    }
    m
}

/// The structural contracts every layer stack must satisfy, whatever
/// its composition: forward yields `[N, classes]`, backward returns the
/// input's shape, every parameter's gradient matches its shape and some
/// gradient flows, `zero_grads` clears them all, and eval-mode forward
/// is pure.
#[test]
fn random_stacks_satisfy_the_layer_contracts() {
    let classes = 5;
    for seed in 1..=16 {
        let mut rng = Xorshift64::new(seed);
        let mut model = random_stack(classes, &mut rng);
        let x = Tensor::randn(&[2, 3, 16, 16], 1.0, &mut rng);

        let y = model.forward(&x, true);
        assert_eq!(y.shape().dims(), &[2, classes], "seed {seed}");
        let (_, dlogits) = SoftmaxCrossEntropy.loss_and_grad(&y, &[0, 1]);
        let dx = model.backward(&dlogits);
        assert_eq!(dx.shape().dims(), x.shape().dims(), "seed {seed}");
        let mut saw_nonzero_grad = false;
        model.visit_params(&mut |p| {
            assert_eq!(p.values.len(), p.grads.len(), "seed {seed}: {}", p.name);
            saw_nonzero_grad |= p.grads.data().iter().any(|&g| g != 0.0);
        });
        assert!(saw_nonzero_grad, "seed {seed}: no gradients flowed");

        model.zero_grads();
        model.visit_params(&mut |p| {
            assert!(
                p.grads.data().iter().all(|&g| g == 0.0),
                "seed {seed}: {} not zeroed",
                p.name
            );
        });

        let a = model.forward(&x, false);
        let b = model.forward(&x, false);
        assert_eq!(a, b, "seed {seed}: eval forward must not mutate state");
    }
}
