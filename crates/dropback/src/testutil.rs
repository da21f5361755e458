//! Shared helpers for this crate's test modules.

use procrustes_nn::{BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d, ReLU, Sequential};
use procrustes_prng::Xorshift64;

/// A small CNN for 16×16 RGB inputs (fast enough for per-test training).
pub(crate) fn micro_model(classes: usize, seed: u64) -> Sequential {
    let mut rng = Xorshift64::new(seed);
    let mut m = Sequential::new();
    m.push(Conv2d::new(3, 8, 3, 1, 1, false, &mut rng));
    m.push(BatchNorm2d::new(8));
    m.push(ReLU::new());
    m.push(MaxPool2d::new()); // 8
    m.push(Conv2d::new(8, 16, 3, 1, 1, false, &mut rng));
    m.push(BatchNorm2d::new(16));
    m.push(ReLU::new());
    m.push(MaxPool2d::new()); // 4
    m.push(Flatten::new());
    m.push(Linear::new(16 * 4 * 4, classes, true, &mut rng));
    m
}
