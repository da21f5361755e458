//! Property-based tests for the tensor substrate.

// These property tests depend on the external `proptest` crate, which is
// unavailable in offline builds. Opt in with `--features proptests` after
// adding `proptest` as a dev-dependency (see the crate manifest).
#![cfg(feature = "proptests")]

use procrustes_tensor::reference::{conv2d, conv2d_backward_weights, conv2d_im2col};
use procrustes_tensor::{conv_out_dim, Tensor};
use proptest::prelude::*;

fn tensor_strategy(dims: Vec<usize>) -> impl Strategy<Value = Tensor> {
    let len: usize = dims.iter().product();
    (proptest::collection::vec(-2.0f32..2.0, len), Just(dims))
        .prop_map(|(data, dims)| Tensor::from_vec(&dims, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Linear/unlinear roundtrip over arbitrary shapes.
    #[test]
    fn shape_roundtrip(dims in proptest::collection::vec(1usize..6, 1..5)) {
        let s = procrustes_tensor::Shape::new(&dims);
        for off in 0..s.len() {
            prop_assert_eq!(s.linear(&s.unlinear(off)), off);
        }
    }

    /// rotate180 is an involution for any 4-d tensor.
    #[test]
    fn rotate180_involution(t in tensor_strategy(vec![2, 3, 3, 3])) {
        prop_assert_eq!(t.rotate180().rotate180(), t);
    }

    /// Transpose is an involution and swaps indices.
    #[test]
    fn transpose_involution(t in tensor_strategy(vec![4, 5])) {
        let tt = t.transpose2d();
        prop_assert_eq!(tt.transpose2d(), t.clone());
        for i in 0..4 {
            for j in 0..5 {
                prop_assert_eq!(t.at(&[i, j]), tt.at(&[j, i]));
            }
        }
    }

    /// Matmul distributes over addition: (A+B)C = AC + BC.
    #[test]
    fn matmul_distributes(
        a in tensor_strategy(vec![3, 4]),
        b in tensor_strategy(vec![3, 4]),
        c in tensor_strategy(vec![4, 2]),
    ) {
        let lhs = (&a + &b).matmul(&c);
        let rhs = &a.matmul(&c) + &b.matmul(&c);
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-4 * (1.0 + x.abs()));
        }
    }

    /// The im2col fast path agrees with the direct convolution for all
    /// stride/pad combinations that fit.
    #[test]
    fn conv_paths_agree(
        x in tensor_strategy(vec![2, 2, 6, 6]),
        w in tensor_strategy(vec![3, 2, 3, 3]),
        stride in 1usize..3,
        pad in 0usize..2,
    ) {
        let direct = conv2d(&x, &w, stride, pad);
        let fast = conv2d_im2col(&x, &w, stride, pad);
        prop_assert_eq!(direct.shape(), fast.shape());
        for (a, b) in direct.data().iter().zip(fast.data()) {
            prop_assert!((a - b).abs() < 1e-4 * (1.0 + a.abs()), "{} vs {}", a, b);
        }
    }

    /// Convolution is linear in the input: conv(ax) = a conv(x).
    #[test]
    fn conv_is_linear_in_input(
        x in tensor_strategy(vec![1, 2, 5, 5]),
        w in tensor_strategy(vec![2, 2, 3, 3]),
        alpha in -2.0f32..2.0,
    ) {
        let y1 = conv2d(&x.map(|v| alpha * v), &w, 1, 1);
        let mut y2 = conv2d(&x, &w, 1, 1);
        y2.scale(alpha);
        for (a, b) in y1.data().iter().zip(y2.data()) {
            prop_assert!((a - b).abs() < 1e-4 * (1.0 + a.abs()));
        }
    }

    /// Weight-update kernel is linear in dy.
    #[test]
    fn weight_update_linear_in_dy(
        x in tensor_strategy(vec![1, 2, 5, 5]),
        dy in tensor_strategy(vec![1, 2, 3, 3]),
        alpha in -2.0f32..2.0,
    ) {
        let dw1 = conv2d_backward_weights(&x, &dy.map(|v| alpha * v), 3, 3, 1, 0);
        let mut dw2 = conv2d_backward_weights(&x, &dy, 3, 3, 1, 0);
        dw2.scale(alpha);
        for (a, b) in dw1.data().iter().zip(dw2.data()) {
            prop_assert!((a - b).abs() < 1e-3 * (1.0 + a.abs()));
        }
    }

    /// Output dims formula is consistent with an exhaustive walk.
    #[test]
    fn out_dim_counts_positions(input in 1usize..20, filter in 1usize..5, stride in 1usize..4, pad in 0usize..3) {
        prop_assume!(input + 2 * pad >= filter);
        let expected = (0..)
            .take_while(|p| p * stride + filter <= input + 2 * pad)
            .count();
        prop_assert_eq!(conv_out_dim(input, filter, stride, pad), expected);
    }
}
