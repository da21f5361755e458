//! A `#[test]`-based performance guard for the kernel subsystem: on the
//! pinned BENCH GEMM shapes the selector-chosen routine must beat the
//! seed naive-ikj loop by at least 2× — the floor the packed kernels
//! were built to clear.
//!
//! Runs under plain `cargo test` in the offline build. The timing
//! assertion is conditional, per the offline/1-CPU environment:
//! unoptimized (debug) builds on a shared single-core runner are too
//! noisy to gate on wall-clock ratios, so there the test verifies
//! bitwise agreement and *reports* the timings; optimized builds (the
//! CI perf job, `cargo test --release`) additionally assert the ≥2×
//! speedup.

use procrustes_bench::best_of as time;
use procrustes_prng::Xorshift64;
use procrustes_tensor::kernel::{self, Blueprint};
use procrustes_tensor::{reference::matmul_ikj, Scratch, Tensor};

#[test]
fn selector_chosen_gemm_beats_naive_by_2x_on_pinned_shapes() {
    let mut scratch = Scratch::new();
    for &(m, k, n) in &[
        (64usize, 288usize, 2048usize),
        (256, 256, 256),
        (64, 576, 512),
    ] {
        let mut rng = Xorshift64::new((m + n) as u64);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let bp = Blueprint::nn(m, k, n);
        let routine = kernel::select(&bp);

        // Same operands, same results — the timing comparison is honest.
        let mut dst = vec![0.0f32; m * n];
        kernel::gemm(&bp, &mut dst, a.data(), b.data(), &mut scratch);
        assert_eq!(
            dst,
            matmul_ikj(a.data(), b.data(), m, k, n),
            "kernel must agree bitwise with the reference"
        );

        let kernel_t = time(5, || {
            kernel::gemm(&bp, &mut dst, a.data(), b.data(), &mut scratch)
        });
        let naive_t = time(5, || matmul_ikj(a.data(), b.data(), m, k, n));
        let ratio = naive_t.as_secs_f64() / kernel_t.as_secs_f64();
        println!(
            "gemm {m}x{k}x{n} via {}: kernel {kernel_t:?} vs \
             naive {naive_t:?} ({ratio:.2}x)",
            routine.describe()
        );

        if cfg!(not(debug_assertions)) {
            assert!(
                ratio >= 2.0,
                "optimized kernel ({kernel_t:?}) must be >=2x the naive loop \
                 ({naive_t:?}) on {m}x{k}x{n}, got {ratio:.2}x"
            );
        }
    }
}
