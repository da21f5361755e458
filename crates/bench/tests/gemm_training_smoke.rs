//! Perf guard for the GEMM-backed training hot path: the blocked GEMM
//! and the GEMM-form conv backward kernels must (a) reproduce the seed
//! (naive/scatter) kernels' results exactly and (b) in optimized
//! builds, beat them by a wide margin on fig06-class geometries.
//!
//! Runs under plain `cargo test` in the offline build. The timing
//! assertions are conditional, per the offline/1-CPU environment:
//! unoptimized (debug) builds only verify agreement and *report* the
//! timings; optimized builds (the non-blocking CI perf job,
//! `cargo test --release`) additionally assert the speedups.

use std::time::Duration;

use procrustes_bench::{best_of as time, FIG06_BATCH, FIG06_CONV_LAYERS};
use procrustes_prng::Xorshift64;
use procrustes_tensor::reference::{conv2d_backward_input, conv2d_backward_weights, matmul_ikj};
use procrustes_tensor::{
    conv2d_backward_input_gemm, conv2d_backward_weights_from_cols,
    conv2d_backward_weights_from_planes, conv_out_dim, im2col, PaddedPlanes, Scratch, Tensor,
};

#[test]
fn blocked_gemm_is_equal_and_not_slower_than_naive_ikj() {
    // A conv-shaped GEMM: K=64 output channels, C·R·S=288, N·P·Q=2048.
    let (m, k, n) = (64usize, 288usize, 2048usize);
    let mut rng = Xorshift64::new(1);
    let a = Tensor::randn(&[m, k], 1.0, &mut rng);
    let b = Tensor::randn(&[k, n], 1.0, &mut rng);

    let got = a.matmul(&b);
    let want = matmul_ikj(a.data(), b.data(), m, k, n);
    assert_eq!(got.data(), &want[..], "blocked GEMM must equal naive ikj");

    let blocked_t = time(5, || a.matmul(&b));
    let naive_t = time(5, || matmul_ikj(a.data(), b.data(), m, k, n));
    println!("gemm {m}x{k}x{n}: blocked {blocked_t:?} vs naive {naive_t:?}");

    if cfg!(not(debug_assertions)) {
        assert!(
            blocked_t <= naive_t,
            "optimized blocked GEMM ({blocked_t:?}) must not lose to naive ikj ({naive_t:?})"
        );
    }
}

/// The acceptance gate of the GEMM hot-path PR: over the conv layers of
/// the fig06-style stack (tiny-VGG geometries, batch 8), the GEMM-form
/// backward kernels must be bitwise-equal to the seed scatter kernels
/// and — in optimized builds — at least 2× faster in aggregate. The
/// gated pair is the one `Conv2d` runs: both products read their
/// columns as a view of padded planes (the input's, held since the
/// forward pass, for the weight update). The weight update over
/// materialised im2col columns, its oracle, is timed beside it.
#[test]
fn training_backward_kernels_are_equal_and_2x_faster_than_seed_scatter() {
    let layers = FIG06_CONV_LAYERS;
    let batch = FIG06_BATCH;
    let mut scratch = Scratch::new();

    let mut gemm_total = Duration::ZERO;
    let mut scatter_total = Duration::ZERO;
    let (mut wu_planes_total, mut wu_cols_total) = (Duration::ZERO, Duration::ZERO);
    for (li, &(c, k, hw)) in layers.iter().enumerate() {
        let mut rng = Xorshift64::new(100 + li as u64);
        let x = Tensor::randn(&[batch, c, hw, hw], 1.0, &mut rng);
        let w = Tensor::randn(&[k, c, 3, 3], 0.1, &mut rng);
        let p = conv_out_dim(hw, 3, 1, 1);
        let dy = Tensor::randn(&[batch, k, p, p], 1.0, &mut rng);
        let cols = im2col(&x, 3, 3, 1, 1);
        let xp = PaddedPlanes::of_input(&x, 3, 3, 1, 1, &mut scratch);

        // Same operands, equal results — the timing comparison is honest.
        let dx_gemm = conv2d_backward_input_gemm(&dy, &w, hw, hw, 1, 1, &mut scratch);
        let dx_scatter = conv2d_backward_input(&dy, &w, hw, hw, 1, 1);
        assert_eq!(dx_gemm.data(), dx_scatter.data(), "layer {li}: dx differs");
        scratch.recycle(dx_gemm);
        let dw_gemm = conv2d_backward_weights_from_planes(&dy, &xp, &mut scratch);
        let dw_cols = conv2d_backward_weights_from_cols(&dy, cols.data(), c, 3, 3, &mut scratch);
        let dw_scatter = conv2d_backward_weights(&x, &dy, 3, 3, 1, 1);
        assert_eq!(dw_gemm.data(), dw_scatter.data(), "layer {li}: dw differs");
        assert_eq!(dw_cols.data(), dw_scatter.data(), "layer {li}: dw differs");
        scratch.recycle(dw_gemm);
        scratch.recycle(dw_cols);

        gemm_total += time(3, || {
            let dx = conv2d_backward_input_gemm(&dy, &w, hw, hw, 1, 1, &mut scratch);
            let dw = conv2d_backward_weights_from_planes(&dy, &xp, &mut scratch);
            scratch.recycle(dx);
            scratch.recycle(dw);
        });
        wu_planes_total += time(3, || {
            let dw = conv2d_backward_weights_from_planes(&dy, &xp, &mut scratch);
            scratch.recycle(dw);
        });
        wu_cols_total += time(3, || {
            let dw = conv2d_backward_weights_from_cols(&dy, cols.data(), c, 3, 3, &mut scratch);
            scratch.recycle(dw);
        });
        scatter_total += time(3, || {
            let dx = conv2d_backward_input(&dy, &w, hw, hw, 1, 1);
            let dw = conv2d_backward_weights(&x, &dy, 3, 3, 1, 1);
            (dx, dw)
        });
    }
    println!("conv backward over fig06 stack: gemm {gemm_total:?} vs scatter {scatter_total:?}");
    println!(
        "weight update over fig06 stack: from planes {wu_planes_total:?} vs from im2col \
         columns {wu_cols_total:?}"
    );

    if cfg!(not(debug_assertions)) {
        assert!(
            gemm_total * 2 <= scatter_total,
            "optimized GEMM backward ({gemm_total:?}) must be >=2x faster than the seed \
             scatter kernels ({scatter_total:?})"
        );
    }
}
