//! Seeded synthetic image-classification datasets.
//!
//! CIFAR-10 and ImageNet are not available in this environment, so the
//! accuracy experiments (paper Figs 6, 7, 15, 16; Table II) run on
//! procedurally generated class-conditional images instead. Each class is
//! a distinct oriented-sinusoid + Gaussian-blob texture; heavy pixel noise
//! makes the task non-trivial, yet small CNNs reach high accuracy — the
//! regime needed to compare training-algorithm variants (the point of the
//! substituted experiments; see docs/PAPER_MAP.md "Substitutions").

use procrustes_prng::{UniformRng, Xorshift64};
use procrustes_tensor::Tensor;

/// A generator of labelled synthetic RGB images.
///
/// # Examples
///
/// ```
/// use procrustes_nn::data::SyntheticImages;
/// use procrustes_prng::Xorshift64;
///
/// let data = SyntheticImages::cifar_like(10, 42);
/// let (x, labels) = data.batch(4, &mut Xorshift64::new(0));
/// assert_eq!(x.shape().dims(), &[4, 3, 32, 32]);
/// assert_eq!(labels.len(), 4);
/// assert!(labels.iter().all(|&l| l < 10));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticImages {
    classes: usize,
    height: usize,
    width: usize,
    noise_std: f32,
    seed: u64,
}

impl SyntheticImages {
    /// A 32×32×3 dataset standing in for CIFAR-10.
    ///
    /// # Panics
    ///
    /// Panics if `classes == 0`.
    pub fn cifar_like(classes: usize, seed: u64) -> Self {
        Self::new(classes, 32, 32, 0.35, seed)
    }

    /// A 64×64×3 dataset standing in for (down-scaled) ImageNet.
    pub fn imagenet_like(classes: usize, seed: u64) -> Self {
        Self::new(classes, 64, 64, 0.45, seed)
    }

    /// Fully custom generator.
    ///
    /// # Panics
    ///
    /// Panics if `classes == 0` or a spatial extent is zero.
    pub fn new(classes: usize, height: usize, width: usize, noise_std: f32, seed: u64) -> Self {
        assert!(classes > 0, "SyntheticImages: need at least one class");
        assert!(height > 0 && width > 0, "SyntheticImages: empty image");
        Self {
            classes,
            height,
            width,
            noise_std,
            seed,
        }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Image extents `(channels, height, width)`.
    fn image_dims(&self) -> (usize, usize, usize) {
        (3, self.height, self.width)
    }

    /// Class-conditional texture parameters, derived deterministically
    /// from the dataset seed and the class id.
    fn class_params(&self, label: usize) -> (f32, f32, f32, f32, [f32; 3]) {
        let mut rng = Xorshift64::new(self.seed ^ (label as u64).wrapping_mul(0x9E37));
        let theta = std::f32::consts::PI * rng.next_f32();
        let freq = 1.5 + 3.0 * rng.next_f32();
        let blob_h = rng.next_f32();
        let blob_w = rng.next_f32();
        let phases = [
            rng.next_f32() * std::f32::consts::TAU,
            rng.next_f32() * std::f32::consts::TAU,
            rng.next_f32() * std::f32::consts::TAU,
        ];
        (theta, freq, blob_h, blob_w, phases)
    }

    /// Writes one image of class `label` into `out` (length `3·H·W`),
    /// using `rng` for the noise.
    fn render<R: UniformRng + ?Sized>(&self, label: usize, out: &mut [f32], rng: &mut R) {
        let (theta, freq, blob_h, blob_w, phases) = self.class_params(label);
        let (h, w) = (self.height, self.width);
        let (ct, st) = (theta.cos(), theta.sin());
        let sigma2 = 2.0 * (0.15 * h as f32).powi(2);
        for c in 0..3 {
            for i in 0..h {
                for j in 0..w {
                    let u = i as f32 / h as f32;
                    let v = j as f32 / w as f32;
                    let wave = (std::f32::consts::TAU * freq * (u * ct + v * st) + phases[c]).sin();
                    let dh = (i as f32 - blob_h * h as f32).powi(2);
                    let dw = (j as f32 - blob_w * w as f32).powi(2);
                    let blob = (-(dh + dw) / sigma2).exp();
                    let noise = (rng.next_f32() + rng.next_f32() + rng.next_f32() - 1.5) * 2.0;
                    out[(c * h + i) * w + j] = 0.5 * wave + 0.8 * blob + self.noise_std * noise;
                }
            }
        }
    }

    /// Draws a batch of `n` images with uniformly random labels.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn batch<R: UniformRng + ?Sized>(&self, n: usize, rng: &mut R) -> (Tensor, Vec<usize>) {
        assert!(n > 0, "batch: need at least one sample");
        let (ch, h, w) = self.image_dims();
        let mut x = Tensor::zeros(&[n, ch, h, w]);
        let mut labels = Vec::with_capacity(n);
        let plane = ch * h * w;
        for ni in 0..n {
            let label = rng.next_below(self.classes as u64) as usize;
            labels.push(label);
            self.render(label, &mut x.data_mut()[ni * plane..(ni + 1) * plane], rng);
        }
        (x, labels)
    }

    /// A deterministic evaluation set: `n` images cycling through the
    /// classes, rendered with a noise stream derived from `eval_seed`.
    pub fn fixed_set(&self, n: usize, eval_seed: u64) -> (Tensor, Vec<usize>) {
        assert!(n > 0, "fixed_set: need at least one sample");
        let (ch, h, w) = self.image_dims();
        let mut x = Tensor::zeros(&[n, ch, h, w]);
        let mut labels = Vec::with_capacity(n);
        let plane = ch * h * w;
        let mut rng = Xorshift64::new(eval_seed);
        for ni in 0..n {
            let label = ni % self.classes;
            labels.push(label);
            self.render(
                label,
                &mut x.data_mut()[ni * plane..(ni + 1) * plane],
                &mut rng,
            );
        }
        (x, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_have_valid_labels_and_finite_pixels() {
        let data = SyntheticImages::cifar_like(10, 1);
        let (x, labels) = data.batch(16, &mut Xorshift64::new(2));
        assert_eq!(labels.len(), 16);
        assert!(labels.iter().all(|&l| l < 10));
        assert!(x.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn fixed_set_is_deterministic() {
        let data = SyntheticImages::cifar_like(4, 9);
        let (a, la) = data.fixed_set(8, 3);
        let (b, lb) = data.fixed_set(8, 3);
        assert_eq!(a, b);
        assert_eq!(la, lb);
        assert_eq!(la, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn classes_are_visually_distinct() {
        // Noise-free renders of different classes must differ a lot more
        // than two renders of the same class.
        let data = SyntheticImages::new(10, 16, 16, 0.0, 7);
        let mut rng = Xorshift64::new(1);
        let mut img = |label| {
            let mut buf = vec![0.0f32; 3 * 16 * 16];
            data.render(label, &mut buf, &mut rng);
            buf
        };
        let a0 = img(0);
        let a0b = img(0);
        let a1 = img(1);
        let d_same: f32 = a0.iter().zip(&a0b).map(|(x, y)| (x - y).powi(2)).sum();
        let d_diff: f32 = a0.iter().zip(&a1).map(|(x, y)| (x - y).powi(2)).sum();
        assert!(d_same < 1e-9, "same class should render identically");
        assert!(d_diff > 1.0, "classes too similar: {d_diff}");
    }

    #[test]
    fn imagenet_like_is_larger() {
        let data = SyntheticImages::imagenet_like(10, 1);
        assert_eq!(data.image_dims(), (3, 64, 64));
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn zero_classes_rejected() {
        SyntheticImages::cifar_like(0, 1);
    }
}
