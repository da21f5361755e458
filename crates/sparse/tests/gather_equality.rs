//! The CSB forward convolution as the layers run it — the gather over
//! the padded input planes — against its two oracles, on one grid:
//! stride {1, 2} × pad {0, 1, 2} × kernel {1, 3} × densities {0, 0.1,
//! 0.5, 1} over inputs whose view is ragged against the 128-wide
//! accumulator block and inputs that span several blocks.
//!
//! - [`ConvDecode::forward_from_cols`], the SpMM over materialised
//!   `im2col` columns, and the dense `conv2d_from_planes` must agree
//!   with it **bitwise**: all three reduce each output element over
//!   `(c, r, s)` ascending from `0.0`.
//! - `reference::conv2d`, the scatter loop of Alg 1, sums per input
//!   channel before it sums the channels, so it pins the bits only where
//!   there is a single input channel; elsewhere it bounds the result.

use procrustes_prng::{UniformRng, Xorshift64};
use procrustes_sparse::ConvDecode;
use procrustes_tensor::reference::conv2d;
use procrustes_tensor::{conv2d_from_planes, im2col, PaddedPlanes, Scratch, Tensor};

fn tensor(dims: &[usize], keep: f64, rng: &mut Xorshift64) -> Tensor {
    Tensor::from_fn(dims, |_| {
        if rng.next_f64() < keep {
            rng.next_f32() * 2.0 - 1.0
        } else {
            0.0
        }
    })
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn gather_forward_equals_the_spmm_over_columns_and_the_scatter_oracle() {
    let mut scratch = Scratch::new();
    let mut rng = Xorshift64::new(0x6A7);
    let mut pinned_by_scatter = 0;
    // `(n, c, h, w)`: a view shorter than one block, a single-channel
    // one, and one of several blocks per sample with a ragged tail.
    for [n, c, h, w] in [[2, 3, 7, 5], [3, 1, 6, 9], [2, 4, 19, 23]] {
        for kernel in [1, 3] {
            for stride in [1, 2] {
                for pad in [0, 1, 2] {
                    let x = tensor(&[n, c, h, w], 0.6, &mut rng);
                    let cols = im2col(&x, kernel, kernel, stride, pad);
                    let xp = PaddedPlanes::of_input(&x, kernel, kernel, stride, pad, &mut scratch);
                    let (p, q) = xp.out_dims();
                    for keep in [0.0, 0.1, 0.5, 1.0] {
                        let what =
                            format!("{n}x{c}x{h}x{w} k{kernel} s{stride} p{pad} keep {keep}");
                        let wts = tensor(&[5, c, kernel, kernel], keep, &mut rng);
                        let decode = ConvDecode::from_dense(&wts);
                        let got = decode.forward(&xp, &mut scratch);
                        assert_eq!(got.shape().dims(), &[n, 5, p, q], "{what}");

                        let spmm = decode.forward_from_cols(cols.data(), n, p, q, &mut scratch);
                        assert_eq!(bits(&got), bits(&spmm), "{what}: vs forward_from_cols");
                        let dense = conv2d_from_planes(&wts, &xp, &mut scratch);
                        assert_eq!(bits(&got), bits(&dense), "{what}: vs the dense product");

                        let scatter = conv2d(&x, &wts, stride, pad);
                        if c == 1 {
                            assert_eq!(got.data(), scatter.data(), "{what}: vs reference::conv2d");
                            pinned_by_scatter += 1;
                        }
                        for (a, b) in got.data().iter().zip(scatter.data()) {
                            assert!(
                                (a - b).abs() <= 1e-5 * (1.0 + a.abs()),
                                "{what}: {a} vs {b}"
                            );
                        }
                        for t in [got, spmm, dense] {
                            scratch.recycle(t);
                        }
                    }
                    xp.recycle(&mut scratch);
                }
            }
        }
    }
    assert!(pinned_by_scatter > 0);
}
