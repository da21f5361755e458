//! Property-based tests for the CSB weight format and its conv kernels.

// These property tests depend on the external `proptest` crate, which is
// unavailable in offline builds. Opt in with `--features proptests` after
// adding `proptest` as a dev-dependency (see the crate manifest).
#![cfg(feature = "proptests")]

use procrustes_sparse::{ConvDecode, CsbTensor};
use procrustes_tensor::reference::conv2d_backward_input;
use procrustes_tensor::{
    conv2d_backward_input_gemm, conv2d_from_cols, conv_out_dim, im2col, Scratch, Tensor,
};
use proptest::prelude::*;

/// Strategy producing a sparse conv weight tensor with arbitrary geometry.
fn sparse_conv() -> impl Strategy<Value = Tensor> {
    (1usize..4, 1usize..4, 1usize..4, 1usize..4).prop_flat_map(|(k, c, r, s)| {
        proptest::collection::vec(
            prop_oneof![3 => Just(0.0f32), 1 => (-2.0f32..2.0).prop_filter("nonzero", |v| *v != 0.0)],
            k * c * r * s,
        )
        .prop_map(move |data| Tensor::from_vec(&[k, c, r, s], data))
    })
}

/// A tensor of `len` elements, about a third of them exact zeros (some
/// negative), the rest in `(-2, 2)`.
fn sparse_values(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(
        prop_oneof![2 => Just(0.0f32), 1 => Just(-0.0f32), 6 => -2.0f32..2.0],
        len,
    )
}

/// Sparse conv weights with an input, an upstream gradient and the
/// `(stride, pad)` they fit: `(w, x, dy, stride, pad)`.
fn conv_problem() -> impl Strategy<Value = (Tensor, Tensor, Tensor, usize, usize)> {
    (
        sparse_conv(),
        1usize..4,
        0usize..6,
        0usize..6,
        1usize..3,
        0usize..2,
    )
        .prop_flat_map(|(w, n, dh, dw, stride, pad)| {
            let d = w.shape().dims().to_vec();
            let (k, c, r, s) = (d[0], d[1], d[2], d[3]);
            // At least as large as the filter, so it fits at pad 0.
            let (h, wd) = (r + dh, s + dw);
            let p = conv_out_dim(h, r, stride, pad);
            let q = conv_out_dim(wd, s, stride, pad);
            (sparse_values(n * c * h * wd), sparse_values(n * k * p * q)).prop_map(
                move |(x, dy)| {
                    (
                        w.clone(),
                        Tensor::from_vec(&[n, c, h, wd], x),
                        Tensor::from_vec(&[n, k, p, q], dy),
                        stride,
                        pad,
                    )
                },
            )
        })
}

fn sparse_fc() -> impl Strategy<Value = (Tensor, usize)> {
    (1usize..12, 1usize..12, 1usize..6).prop_flat_map(|(o, i, edge)| {
        proptest::collection::vec(
            prop_oneof![2 => Just(0.0f32), 1 => (-2.0f32..2.0).prop_filter("nonzero", |v| *v != 0.0)],
            o * i,
        )
        .prop_map(move |data| (Tensor::from_vec(&[o, i], data), edge))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Compression is lossless for any conv geometry and sparsity pattern.
    #[test]
    fn conv_roundtrip(w in sparse_conv()) {
        let csb = CsbTensor::from_dense_conv(&w);
        prop_assert_eq!(csb.to_dense(), w);
    }

    /// Compression is lossless for fc matrices including ragged blocks.
    #[test]
    fn fc_roundtrip((w, edge) in sparse_fc()) {
        let csb = CsbTensor::from_dense_fc(&w, edge);
        prop_assert_eq!(csb.to_dense(), w);
    }

    /// nnz equals the number of dense nonzeros; density is consistent.
    #[test]
    fn nnz_matches_dense(w in sparse_conv()) {
        let csb = CsbTensor::from_dense_conv(&w);
        let dense_nnz = w.len() - w.count_zeros();
        prop_assert_eq!(csb.nnz(), dense_nnz);
        let density = csb.density();
        prop_assert!((density - dense_nnz as f64 / w.len() as f64).abs() < 1e-12);
    }

    /// Fetch-time rotation equals dense rotate180 for every block.
    #[test]
    fn rotation_consistency(w in sparse_conv()) {
        let csb = CsbTensor::from_dense_conv(&w);
        let rot = w.rotate180();
        let (k, c) = (w.shape().dim(0), w.shape().dim(1));
        let (r, s) = (w.shape().dim(2), w.shape().dim(3));
        for ki in 0..k {
            for ci in 0..c {
                let got = csb.block_dense_rotated180(ki, ci);
                for ri in 0..r {
                    for si in 0..s {
                        prop_assert_eq!(got[ri * s + si], rot.at(&[ki, ci, ri, si]));
                    }
                }
            }
        }
    }

    /// The CSB conv kernels equal (`==`) the dense trio and the scatter
    /// oracle for any geometry, stride, padding and zero pattern.
    #[test]
    fn conv_kernels_equal_dense((w, x, dy, stride, pad) in conv_problem()) {
        let csb = CsbTensor::from_dense_conv(&w);
        prop_assert_eq!(csb.nnz(), w.len() - w.count_zeros());
        let decode = ConvDecode::from_csb(&csb);
        let mut scratch = Scratch::new();
        let (n, h, wd) = (x.shape().dim(0), x.shape().dim(2), x.shape().dim(3));
        let (r, s) = (w.shape().dim(2), w.shape().dim(3));
        let (p, q) = (dy.shape().dim(2), dy.shape().dim(3));
        let cols = im2col(&x, r, s, stride, pad);
        let y = decode.forward_from_cols(cols.data(), n, p, q, &mut scratch);
        let dense_y = conv2d_from_cols(&w, cols.data(), n, p, q, &mut scratch);
        prop_assert_eq!(y.data(), dense_y.data());
        let dx = decode.backward_input(&dy, h, wd, stride, pad, &mut scratch);
        let oracle = conv2d_backward_input(&dy, &w, h, wd, stride, pad);
        prop_assert_eq!(dx.data(), oracle.data());
        let dense_dx = conv2d_backward_input_gemm(&dy, &w, h, wd, stride, pad, &mut scratch);
        prop_assert_eq!(dx.data(), dense_dx.data());
    }

    /// Piecewise fc transpose equals the dense transpose; double transpose
    /// is the identity.
    #[test]
    fn fc_transpose_consistency((w, edge) in sparse_fc()) {
        let csb = CsbTensor::from_dense_fc(&w, edge);
        let t = csb.transposed_fc();
        prop_assert_eq!(t.to_dense(), w.transpose2d());
        prop_assert_eq!(t.transposed_fc().to_dense(), w);
    }

    /// Pointer subtraction over any range equals the sum of block nnz.
    #[test]
    fn range_nnz_is_additive(w in sparse_conv(), split in 0usize..10) {
        let csb = CsbTensor::from_dense_conv(&w);
        let (gr, gc) = csb.layout().grid();
        let nblocks = gr * gc;
        let mid = split % (nblocks + 1);
        prop_assert_eq!(
            csb.range_nnz(0, mid) + csb.range_nnz(mid, nblocks),
            csb.nnz()
        );
    }

    /// Random access agrees with the dense tensor everywhere.
    #[test]
    fn get_matches_dense(w in sparse_conv()) {
        let csb = CsbTensor::from_dense_conv(&w);
        let dims = w.shape().dims().to_vec();
        for k in 0..dims[0] {
            for c in 0..dims[1] {
                for r in 0..dims[2] {
                    for s in 0..dims[3] {
                        prop_assert_eq!(csb.get(k, c, r, s), w.at(&[k, c, r, s]));
                    }
                }
            }
        }
    }

    /// Storage accounting: compressed data bytes = 4·nnz, and the mask
    /// overhead is exactly one bit per dense slot.
    #[test]
    fn storage_accounting((w, edge) in sparse_fc()) {
        let csb = CsbTensor::from_dense_fc(&w, edge);
        prop_assert_eq!(csb.data_bytes(), csb.nnz() * 4);
        let slot_bits: usize = {
            let (gr, gc) = csb.layout().grid();
            let mut bits = 0;
            for gi in 0..gr {
                for gj in 0..gc {
                    let (br, bc) = csb.layout().block_extent(gi, gj);
                    bits += (br * bc).div_ceil(8);
                }
            }
            bits
        };
        prop_assert_eq!(csb.mask_bytes(), slot_bits);
    }
}
