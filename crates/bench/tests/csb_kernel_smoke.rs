//! A criterion-free performance guard for the CSB compute kernels: at
//! high weight sparsity the compressed conv forward must not lose to the
//! dense im2col path, because its inner-loop work scales with the stored
//! nonzeros (~5% of the MACs here) rather than the dense volume.
//!
//! Runs under plain `cargo test` in the offline build. The timing
//! assertions are conditional, per the offline/1-CPU environment:
//! unoptimized (debug) builds on a shared single-core runner are too
//! noisy to gate on wall-clock ratios, so there the test verifies
//! bitwise agreement and *reports* the timings; optimized builds (the
//! CI perf job, `cargo test --release`) additionally assert the sparse
//! path wins.

use procrustes_bench::best_of as time;
use procrustes_prng::{UniformRng, Xorshift64};
use procrustes_sparse::{csb_conv2d, csb_fc_forward, CsbTensor};
use procrustes_tensor::{reference::conv2d_im2col, Tensor};

const KEEP: f64 = 0.05;

fn sparse_tensor(dims: &[usize], keep: f64, seed: u64) -> Tensor {
    let mut rng = Xorshift64::new(seed);
    Tensor::from_fn(dims, |_| {
        if rng.next_f64() < keep {
            rng.next_f32() * 2.0 - 1.0
        } else {
            0.0
        }
    })
}

#[test]
fn csb_conv_forward_not_slower_than_dense_at_high_sparsity() {
    let w = sparse_tensor(&[32, 32, 3, 3], KEEP, 1);
    let csb = CsbTensor::from_dense_conv(&w);
    let x = Tensor::randn(&[2, 32, 16, 16], 1.0, &mut Xorshift64::new(2));

    // Same operands, same results — the timing comparison is honest.
    let dense_y = conv2d_im2col(&x, &w, 1, 1);
    let csb_y = csb_conv2d(&x, &csb, 1, 1);
    assert_eq!(dense_y.data(), csb_y.data(), "kernels must agree bitwise");

    let dense_t = time(5, || conv2d_im2col(&x, &w, 1, 1));
    let csb_t = time(5, || csb_conv2d(&x, &csb, 1, 1));
    println!("conv fw at {KEEP} density: csb {csb_t:?} vs dense {dense_t:?}");

    if cfg!(not(debug_assertions)) {
        assert!(
            csb_t < dense_t,
            "optimized csb conv ({csb_t:?}) must beat dense ({dense_t:?}) at {KEEP} density"
        );
    }
}

#[test]
fn csb_fc_forward_not_slower_than_dense_at_high_sparsity() {
    let w = sparse_tensor(&[512, 512], KEEP, 3);
    let csb = CsbTensor::from_dense_fc(&w, 64);
    let x = Tensor::randn(&[16, 512], 1.0, &mut Xorshift64::new(4));

    let wt = w.transpose2d();
    assert_eq!(
        x.matmul(&wt).data(),
        csb_fc_forward(&x, &csb).data(),
        "kernels must agree bitwise"
    );

    // The dense timing includes neither the transpose nor compression:
    // both paths are measured on their steady-state hot loop.
    let dense_t = time(5, || x.matmul(&wt));
    let csb_t = time(5, || csb_fc_forward(&x, &csb));
    println!("fc fw at {KEEP} density: csb {csb_t:?} vs dense {dense_t:?}");

    if cfg!(not(debug_assertions)) {
        assert!(
            csb_t < dense_t,
            "optimized csb fc ({csb_t:?}) must beat dense ({dense_t:?}) at {KEEP} density"
        );
    }
}
