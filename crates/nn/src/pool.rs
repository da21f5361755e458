//! Pooling layers.

use procrustes_tensor::{conv_out_dim, Scratch, Tensor};

use crate::Layer;

/// 2-D max pooling over a fixed 2×2 window at stride 2; an odd last
/// input row or column is dropped.
///
/// A window's output is its first strict maximum in tap order (0 top
/// left, 1 top right, 2 bottom left, 3 bottom right), so a tie or a
/// window of −∞ routes to its earliest tap. A NaN poisons its window:
/// the output is the window's first NaN, and so is the route. The
/// forward walks each output row over its two input rows with
/// branch-free selects, ORs a NaN flag across the row, and rescans only
/// a flagged row. A training forward caches each window's winning tap
/// as one byte; the backward rebuilds the input offset from it.
///
/// # Examples
///
/// ```
/// use procrustes_nn::{Layer, MaxPool2d};
/// use procrustes_tensor::Tensor;
/// let mut pool = MaxPool2d::new();
/// let x = Tensor::from_fn(&[1, 1, 5, 4], |i| (i[2] * 4 + i[3]) as f32);
/// let y = pool.forward(&x, true);
/// assert_eq!(y.shape().dims(), &[1, 1, 2, 2]); // row 4 is dropped
/// assert_eq!(y.data(), &[5.0, 7.0, 13.0, 15.0]);
/// let dx = pool.backward(&Tensor::ones(&[1, 1, 2, 2]));
/// assert_eq!(dx.data()[5], 1.0); // tap 3 of the first window
/// ```
#[derive(Default)]
pub struct MaxPool2d {
    cache: Option<(Vec<usize>, Vec<u8>)>, // (input dims, winning tap per output)
}

impl MaxPool2d {
    /// Creates a 2×2, stride-2 max-pool layer.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Offset of `tap` from its window's top-left element, in a plane `w`
/// wide.
fn tap_offset(tap: u8, w: usize) -> usize {
    usize::from(tap >> 1) * w + usize::from(tap & 1)
}

/// Pools one output row `y` from its two input rows `r0` and `r1`,
/// writing each window's winning tap to `taps` when `ROUTE` is set.
fn pool_row<const ROUTE: bool>(r0: &[f32], r1: &[f32], y: &mut [f32], taps: &mut [u8]) {
    if ROUTE {
        assert_eq!(taps.len(), y.len());
    }
    let windows = || {
        r0.chunks_exact(2)
            .zip(r1.chunks_exact(2))
            .map(|(a, b)| [a[0], a[1], b[0], b[1]])
    };
    let mut nan = false;
    for (j, (o, window)) in y.iter_mut().zip(windows()).enumerate() {
        let (mut best, mut tap) = (f32::NEG_INFINITY, 0u8);
        for (t, v) in (0u8..).zip(window) {
            nan |= v.is_nan();
            tap = if v > best { t } else { tap };
            best = if v > best { v } else { best };
        }
        *o = best;
        if ROUTE {
            taps[j] = tap;
        }
    }
    if nan {
        for (j, (o, window)) in y.iter_mut().zip(windows()).enumerate() {
            if let Some(t) = window.iter().position(|v| v.is_nan()) {
                *o = window[t];
                if ROUTE {
                    taps[j] = t as u8;
                }
            }
        }
    }
}

impl Layer for MaxPool2d {
    fn forward_with(&mut self, x: &Tensor, train: bool, scratch: &mut Scratch) -> Tensor {
        let s = x.shape();
        assert_eq!(s.rank(), 4, "MaxPool2d: input must be NCHW");
        let (n, c, h, w) = (s.dim(0), s.dim(1), s.dim(2), s.dim(3));
        let (p, q) = (conv_out_dim(h, 2, 2, 0), conv_out_dim(w, 2, 2, 0));
        let mut y = scratch.take_tensor_any(&[n, c, p, q]);
        // One chunk of two input rows per output row, across every plane.
        let rows = x
            .data()
            .chunks_exact(h * w)
            .flat_map(|plane| plane.chunks_exact(2 * w))
            .zip(y.data_mut().chunks_exact_mut(q));
        if train {
            // The persistent route is refilled in place each training
            // step: every entry is rewritten below.
            let (dims, taps) = self.cache.get_or_insert_with(Default::default);
            dims.clear();
            dims.extend_from_slice(s.dims());
            taps.resize(n * c * p * q, 0);
            for ((r, yr), tr) in rows.zip(taps.chunks_exact_mut(q)) {
                pool_row::<true>(&r[..w], &r[w..], yr, tr);
            }
        } else {
            // Eval mode records nothing.
            for (r, yr) in rows {
                pool_row::<false>(&r[..w], &r[w..], yr, &mut []);
            }
        }
        y
    }

    fn backward_with(&mut self, dy: &Tensor, scratch: &mut Scratch) -> Tensor {
        let (dims, taps) = self
            .cache
            .as_ref()
            .expect("MaxPool2d::backward called before training-mode forward");
        assert_eq!(dy.len(), taps.len(), "MaxPool2d: gradient shape changed");
        let (h, w) = (dims[2], dims[3]);
        let (p, q) = (conv_out_dim(h, 2, 2, 0), conv_out_dim(w, 2, 2, 0));
        let mut dx = scratch.take_tensor_any(dims);
        let offsets = [0, 1, 2, 3].map(|t| tap_offset(t, w));
        let planes = dx.data_mut().chunks_exact_mut(h * w);
        let routes = dy.data().chunks_exact(p * q).zip(taps.chunks_exact(p * q));
        for (dxp, (dyp, tp)) in planes.zip(routes) {
            let rows = dyp.chunks_exact(q).zip(tp.chunks_exact(q));
            // Zero each pair of rows just before adding into it, while it
            // is in cache; an odd last row gets no gradient.
            dxp[2 * p * w..].fill(0.0);
            for (dxr, (dyr, tr)) in dxp.chunks_exact_mut(2 * w).zip(rows) {
                dxr.fill(0.0);
                for (j, (&g, &t)) in dyr.iter().zip(tr).enumerate() {
                    // Every tap is below 4; the mask drops the table's
                    // bounds check.
                    dxr[2 * j + offsets[usize::from(t & 3)]] += g;
                }
            }
        }
        dx
    }

    fn name(&self) -> String {
        "MaxPool2d(2×2, stride 2)".to_string()
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
    use procrustes_prng::Xorshift64;
    use procrustes_tensor::gradcheck;

    #[test]
    fn maxpool_routes_gradient_to_argmax() {
        let mut pool = MaxPool2d::new();
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 5.0, 3.0, 2.0]);
        let y = pool.forward(&x, true);
        assert_eq!(y.data(), &[5.0]);
        let dx = pool.backward(&Tensor::from_vec(&[1, 1, 1, 1], vec![7.0]));
        assert_eq!(dx.data(), &[0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_routes_an_all_neg_infinity_window_inside_itself() {
        // Two 2×2 windows side by side; the second holds only −∞ and NaN.
        let mut pool = MaxPool2d::new();
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
        let mut pool = MaxPool2d::new();
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
        let mut pool = MaxPool2d::new();
        let y = pool.forward(&x, true);
        let dx = pool.backward(&Tensor::ones(y.shape().dims()));
        let report = gradcheck::check(&x, &dx, 16, 1e-3, |xt| pool.forward(xt, false).sum());
        assert!(report.passes(1e-2), "err {}", report.max_rel_err);
    }

    /// The straight per-window loop the row walk replaced: each window's
    /// output, and the input offset its gradient routes to.
    fn oracle(x: &Tensor) -> (Vec<f32>, Vec<usize>) {
        let (kernel, stride) = (2, 2);
        let s = x.shape();
        let (n, c, h, w) = (s.dim(0), s.dim(1), s.dim(2), s.dim(3));
        let p = conv_out_dim(h, kernel, stride, 0);
        let q = conv_out_dim(w, kernel, stride, 0);
        let xd = x.data();
        let (mut y, mut route) = (Vec::new(), Vec::new());
        for ni in 0..n {
            for ci in 0..c {
                for pi in 0..p {
                    for qi in 0..q {
                        let corner = ((ni * c + ci) * h + pi * stride) * w + qi * stride;
                        let window = (0..kernel)
                            .flat_map(|ri| (0..kernel).map(move |si| corner + ri * w + si));
                        let mut best = f32::NEG_INFINITY;
                        let mut best_off = corner;
                        for off in window.clone() {
                            if xd[off] > best {
                                best = xd[off];
                                best_off = off;
                            }
                        }
                        if let Some(off) = window.clone().find(|&off| xd[off].is_nan()) {
                            best = xd[off];
                            best_off = off;
                        }
                        y.push(best);
                        route.push(best_off);
                    }
                }
            }
        }
        (y, route)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|v| v.to_bits()).collect()
    }

    /// A seeded NCHW input drawn from a few values, so windows tie (±0.0
    /// included), hold only −∞, or hold NaNs of distinct payloads.
    fn tricky_input(dims: &[usize], seed: u64) -> Tensor {
        let nan = |payload: u32| f32::from_bits(0x7fc0_0000 | payload);
        let values = [
            -1.0,
            -0.0,
            0.0,
            0.0,
            1.0,
            1.0,
            2.0,
            f32::NEG_INFINITY,
            f32::NEG_INFINITY,
            f32::NEG_INFINITY,
            nan(1),
            -nan(2),
        ];
        let mut rng = Xorshift64::new(seed);
        let len = dims.iter().product();
        let data = (0..len).map(|_| values[rng.next() as usize % values.len()]);
        Tensor::from_vec(dims, data.collect())
    }

    #[test]
    fn maxpool_matches_the_per_window_oracle_bit_for_bit() {
        let (nan, ninf) = (|p: u32| f32::from_bits(0x7fc0_0000 | p), f32::NEG_INFINITY);
        // Planted windows in the first row of plane 0 of a [2, 3, 7, 9]
        // input (four windows across): a NaN at each of the four taps
        // after finite values and before another NaN, ±0.0 ties both
        // ways, a tie between taps 1 and 2, and only −∞ (two rows).
        let mut planted = tricky_input(&[2, 3, 7, 9], 3);
        let window = |pi: usize, qi: usize| 2 * pi * 9 + 2 * qi;
        let cases: [(usize, usize, [f32; 4]); 8] = [
            (0, 0, [nan(10), 5.0, 7.0, nan(11)]),
            (0, 1, [5.0, nan(12), 7.0, nan(13)]),
            (0, 2, [5.0, 7.0, nan(14), nan(15)]),
            (0, 3, [ninf, 7.0, 5.0, nan(16)]),
            (1, 0, [-0.0, 0.0, 0.0, -0.0]),
            (1, 1, [0.0, -0.0, -0.0, 0.0]),
            (1, 2, [0.0, 5.0, 5.0, 0.0]),
            (1, 3, [ninf; 4]),
        ];
        for (pi, qi, taps) in cases {
            for (t, v) in (0u8..).zip(taps) {
                planted.data_mut()[window(pi, qi) + tap_offset(t, 9)] = v;
            }
        }
        let mut inputs = vec![planted];
        for (seed, dims) in [(4, [1, 2, 2, 2]), (5, [3, 2, 5, 5]), (6, [2, 4, 8, 6])] {
            inputs.push(tricky_input(&dims, seed));
        }
        let mut pool = MaxPool2d::new();
        let mut rng = Xorshift64::new(7);
        for x in &inputs {
            let d = x.shape().dims();
            let (want, route) = oracle(x);
            let y = pool.forward(x, true);
            assert_eq!(bits(y.data()), bits(&want), "train forward {d:?}");
            let dy = Tensor::randn(y.shape().dims(), 1.0, &mut rng);
            let mut want_dx = vec![0.0f32; x.len()];
            for (&g, &off) in dy.data().iter().zip(&route) {
                want_dx[off] += g;
            }
            // A stale buffer in the pool: every entry the oracle leaves at
            // zero must be written.
            let mut scratch = Scratch::new();
            scratch.recycle(Tensor::from_vec(&[x.len()], vec![f32::NAN; x.len()]));
            let dx = pool.backward_with(&dy, &mut scratch);
            assert_eq!(dx.shape(), x.shape());
            assert_eq!(bits(dx.data()), bits(&want_dx), "routed gradient {d:?}");
            let y = pool.forward(x, false);
            assert_eq!(bits(y.data()), bits(&want), "eval forward {d:?}");
        }
    }
}
