//! Performance smokes of the Procrustes reproduction.
//!
//! Measurement lives in the `#[test]`-based smokes under `tests/` and in
//! the `benchmark/` package (`bash benchmark/run.sh`); this library
//! hosts the helpers both share, so the measurement policy and reference
//! workloads stay in one place.

use std::time::{Duration, Instant};

/// One warm-up call, then the best of `reps` — robust against scheduler
/// noise on shared runners. The result is routed through
/// [`std::hint::black_box`] so the timed work cannot be elided.
pub fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..=reps {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed());
    }
    best
}

/// `(c_in, c_out, spatial)` of the fig06-style conv stack's 3×3 layers
/// (the tiny-VGG geometries at 32×32) — the reference workload of the
/// GEMM-vs-seed kernel comparisons and the committed `BENCH_pr4.json`
/// trajectory.
pub const FIG06_CONV_LAYERS: &[(usize, usize, usize)] = &[
    (3, 16, 32),
    (16, 16, 32),
    (16, 32, 16),
    (32, 32, 16),
    (32, 64, 8),
];

/// Batch size the fig06-stack comparisons run at.
pub const FIG06_BATCH: usize = 8;
