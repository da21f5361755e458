//! Pooling layers.

use procrustes_tensor::{conv_out_dim, Scratch, Tensor};

use crate::Layer;

/// 2-D max pooling with a square window.
///
/// # Examples
///
/// ```
/// use procrustes_nn::{Layer, MaxPool2d};
/// use procrustes_tensor::Tensor;
/// let mut pool = MaxPool2d::new(2, 2);
/// let x = Tensor::from_fn(&[1, 1, 4, 4], |i| (i[2] * 4 + i[3]) as f32);
/// let y = pool.forward(&x, true);
/// assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
/// assert_eq!(y.data(), &[5.0, 7.0, 13.0, 15.0]);
/// ```
pub struct MaxPool2d {
    kernel: usize,
    stride: usize,
    cache: Option<(Vec<usize>, Vec<usize>)>, // (input dims, argmax offsets)
}

impl MaxPool2d {
    /// Creates a max-pool layer with the given window and stride.
    ///
    /// # Panics
    ///
    /// Panics if `kernel == 0` or `stride == 0`.
    pub fn new(kernel: usize, stride: usize) -> Self {
        assert!(kernel > 0 && stride > 0, "MaxPool2d: zero kernel or stride");
        Self {
            kernel,
            stride,
            cache: None,
        }
    }
}

impl Layer for MaxPool2d {
    fn forward_with(&mut self, x: &Tensor, train: bool, scratch: &mut Scratch) -> Tensor {
        let s = x.shape();
        assert_eq!(s.rank(), 4, "MaxPool2d: input must be NCHW");
        let (n, c, h, w) = (s.dim(0), s.dim(1), s.dim(2), s.dim(3));
        let p = conv_out_dim(h, self.kernel, self.stride, 0);
        let q = conv_out_dim(w, self.kernel, self.stride, 0);
        let mut y = scratch.take_tensor_any(&[n, c, p, q]);
        // Persistent cache buffers, refilled in place each training
        // step; eval mode records nothing.
        let mut argmax = if train {
            let (dims, argmax) = self.cache.get_or_insert_with(Default::default);
            dims.clear();
            dims.extend_from_slice(s.dims());
            argmax.clear();
            argmax.resize(n * c * p * q, 0);
            Some(argmax)
        } else {
            None
        };
        let xd = x.data();
        let yd = y.data_mut();
        for ni in 0..n {
            for ci in 0..c {
                for pi in 0..p {
                    for qi in 0..q {
                        let corner = ((ni * c + ci) * h + pi * self.stride) * w + qi * self.stride;
                        // A window with no value above −∞ routes its
                        // gradient to its own first element.
                        let mut best = f32::NEG_INFINITY;
                        let mut best_off = corner;
                        let mut nan = false;
                        for ri in 0..self.kernel {
                            for si in 0..self.kernel {
                                let off = corner + ri * w + si;
                                nan |= xd[off].is_nan();
                                if xd[off] > best {
                                    best = xd[off];
                                    best_off = off;
                                }
                            }
                        }
                        if nan {
                            // A NaN poisons its window: the output is the
                            // first NaN, and so is the gradient's route.
                            best_off = (0..self.kernel)
                                .flat_map(|ri| (0..self.kernel).map(move |si| corner + ri * w + si))
                                .find(|&off| xd[off].is_nan())
                                .expect("a flagged window holds a NaN");
                            best = xd[best_off];
                        }
                        let yoff = ((ni * c + ci) * p + pi) * q + qi;
                        yd[yoff] = best;
                        if let Some(argmax) = argmax.as_deref_mut() {
                            argmax[yoff] = best_off;
                        }
                    }
                }
            }
        }
        y
    }

    fn backward_with(&mut self, dy: &Tensor, scratch: &mut Scratch) -> Tensor {
        let (dims, argmax) = self
            .cache
            .as_ref()
            .expect("MaxPool2d::backward called before training-mode forward");
        assert_eq!(dy.len(), argmax.len(), "MaxPool2d: gradient shape changed");
        let mut dx = scratch.take_tensor(dims);
        let dxd = dx.data_mut();
        for (yoff, &xoff) in argmax.iter().enumerate() {
            dxd[xoff] += dy.data()[yoff];
        }
        dx
    }

    fn name(&self) -> String {
        format!(
            "MaxPool2d({}×{}, stride {})",
            self.kernel, self.kernel, self.stride
        )
    }
}

/// Global average pooling: `NCHW → [N, C]` (ResNet/MobileNet heads).
#[derive(Default)]
pub struct GlobalAvgPool {
    cached_dims: Option<Vec<usize>>,
}

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for GlobalAvgPool {
    fn forward_with(&mut self, x: &Tensor, train: bool, scratch: &mut Scratch) -> Tensor {
        let s = x.shape();
        assert_eq!(s.rank(), 4, "GlobalAvgPool: input must be NCHW");
        let (n, c, h, w) = (s.dim(0), s.dim(1), s.dim(2), s.dim(3));
        let norm = 1.0 / (h * w) as f32;
        let mut y = scratch.take_tensor_any(&[n, c]);
        let xd = x.data();
        let yd = y.data_mut();
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                yd[ni * c + ci] = xd[base..base + h * w].iter().sum::<f32>() * norm;
            }
        }
        if train {
            let cached = self.cached_dims.get_or_insert_with(Vec::new);
            cached.clear();
            cached.extend_from_slice(s.dims());
        }
        y
    }

    fn backward_with(&mut self, dy: &Tensor, scratch: &mut Scratch) -> Tensor {
        let dims = self
            .cached_dims
            .as_ref()
            .expect("GlobalAvgPool::backward called before training-mode forward");
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let norm = 1.0 / (h * w) as f32;
        let mut dx = scratch.take_tensor(dims);
        let dxd = dx.data_mut();
        for ni in 0..n {
            for ci in 0..c {
                let g = dy.data()[ni * c + ci] * norm;
                let base = (ni * c + ci) * h * w;
                for v in &mut dxd[base..base + h * w] {
                    *v = g;
                }
            }
        }
        dx
    }

    fn name(&self) -> String {
        "GlobalAvgPool".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use procrustes_tensor::gradcheck;

    #[test]
    fn maxpool_routes_gradient_to_argmax() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 5.0, 3.0, 2.0]);
        let y = pool.forward(&x, true);
        assert_eq!(y.data(), &[5.0]);
        let dx = pool.backward(&Tensor::from_vec(&[1, 1, 1, 1], vec![7.0]));
        assert_eq!(dx.data(), &[0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_routes_an_all_neg_infinity_window_inside_itself() {
        // Two 2×2 windows side by side; the second holds only −∞ and NaN.
        let mut pool = MaxPool2d::new(2, 2);
        let ninf = f32::NEG_INFINITY;
        let x = Tensor::from_vec(
            &[1, 1, 2, 4],
            vec![1.0, 2.0, ninf, f32::NAN, 3.0, 4.0, ninf, ninf],
        );
        let y = pool.forward(&x, true);
        assert_eq!(y.data()[0], 4.0);
        assert!(y.data()[1].is_nan(), "a NaN in the window is its output");
        let dx = pool.backward(&Tensor::from_vec(&[1, 1, 1, 2], vec![5.0, 7.0]));
        assert_eq!(dx.data(), &[0.0, 0.0, 0.0, 7.0, 0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_outputs_a_windows_first_nan_and_routes_to_it() {
        // Three 2×2 windows: a NaN after a larger finite value, two NaNs
        // among finite values, and only −∞.
        let mut pool = MaxPool2d::new(2, 2);
        let (nan, ninf) = (f32::NAN, f32::NEG_INFINITY);
        let x = Tensor::from_vec(
            &[1, 1, 2, 6],
            vec![
                9.0, 1.0, 3.0, nan, ninf, ninf, nan, 2.0, 4.0, nan, ninf, ninf,
            ],
        );
        let y = pool.forward(&x, true);
        assert!(y.data()[0].is_nan() && y.data()[1].is_nan());
        assert_eq!(y.data()[2], ninf);
        let dx = pool.backward(&Tensor::from_vec(&[1, 1, 1, 3], vec![5.0, 7.0, 11.0]));
        let mut expected = [0.0; 12];
        (expected[6], expected[3], expected[4]) = (5.0, 7.0, 11.0);
        assert_eq!(dx.data(), &expected);
        // Eval mode pools the same way.
        let y = pool.forward(&x, false);
        assert!(y.data()[0].is_nan() && y.data()[1].is_nan());
    }

    #[test]
    fn gap_averages_and_backprops() {
        let mut gap = GlobalAvgPool::new();
        let x = Tensor::from_fn(&[1, 2, 2, 2], |i| if i[1] == 0 { 4.0 } else { 8.0 });
        let y = gap.forward(&x, true);
        assert_eq!(y.data(), &[4.0, 8.0]);
        let dx = gap.backward(&Tensor::from_vec(&[1, 2], vec![4.0, 8.0]));
        assert_eq!(dx.data(), &[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn maxpool_gradcheck_with_distinct_values() {
        // Use strictly distinct inputs so argmax is stable under probing.
        let x = Tensor::from_fn(&[1, 1, 4, 4], |i| (i[2] * 4 + i[3]) as f32 * 3.7 + 1.0);
        let mut pool = MaxPool2d::new(2, 2);
        let y = pool.forward(&x, true);
        let dx = pool.backward(&Tensor::ones(y.shape().dims()));
        let report = gradcheck::check(&x, &dx, 16, 1e-3, |xt| pool.forward(xt, false).sum());
        assert!(report.passes(1e-2), "err {}", report.max_rel_err);
    }

    #[test]
    #[should_panic(expected = "zero kernel or stride")]
    fn zero_kernel_rejected() {
        MaxPool2d::new(0, 1);
    }
}
