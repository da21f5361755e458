//! Advisory wall-clock sweep for the kernel cost model.
//!
//! `cargo run --release -p procrustes-tensor --bin kernel_autotune`
//! times every candidate routine over the pinned shapes (best-of-5
//! GFLOP/s) and marks the one the selector picks, then times the
//! selected plan through `kernel::gemm` at worker budgets 1/2/4/8. Use
//! it to re-calibrate the constants in `kernel::autotune` and to catch
//! the "only 64-wide inner loops vectorize" footgun; nothing reads its
//! output. Takes no arguments and rejects any.

use std::process::ExitCode;
use std::time::Instant;

use procrustes_prng::{UniformRng, Xorshift64};
use procrustes_tensor::kernel::{self, autotune, routine, selector, Blueprint, Op};
use procrustes_tensor::Scratch;

/// Dense seeded operands: zero-free, like the benchmark's GEMM data, so
/// the lhs zero-skip branch stays predictable.
fn seeded_operands(bp: &Blueprint, seed: u64) -> (Vec<f32>, Vec<f32>) {
    let mut rng = Xorshift64::new(seed);
    let mut fill =
        |len: usize| -> Vec<f32> { (0..len).map(|_| rng.next_f32() * 2.0 - 1.0).collect() };
    (fill(bp.lhs_len()), fill(bp.rhs_len()))
}

fn main() -> ExitCode {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("kernel_autotune: unexpected argument {arg} (the sweep takes none)");
        return ExitCode::FAILURE;
    }
    let mut scratch = Scratch::new();
    println!("advisory wall-clock sweep (best of 5, GFLOP/s); never affects selection");
    for &(op, m, k, n) in autotune::PINNED_SHAPES {
        let bp = Blueprint {
            m,
            k,
            n,
            op,
            threads: 1,
        };
        let (lhs, rhs) = seeded_operands(&bp, (m * 7 + k * 11 + n * 13) as u64);
        let flops = bp.flops() as f64;
        println!("shape {}x{}x{} ({}):", m, k, n, op.tag());
        let mut pool: Vec<_> = autotune::candidates().collect();
        match op {
            Op::Nn => pool.push(routine::Routine::RowStream),
            Op::Nt => pool.push(routine::Routine::NtRegTile),
            Op::Tn => {}
        }
        let selected = selector::select(&bp).routine;
        for r in pool {
            if !r.supports(&bp) {
                continue;
            }
            let mut dst = vec![0.0f32; m * n];
            let mut best = f64::MAX;
            for _ in 0..5 {
                let t = Instant::now();
                routine::execute(r, &bp, &mut dst, &lhs, &rhs, &mut scratch);
                best = best.min(t.elapsed().as_secs_f64());
            }
            std::hint::black_box(&dst);
            println!(
                "  {:20} {:8.2}{}",
                r.describe(),
                flops / best / 1e9,
                if r == selected { "   <- selected" } else { "" }
            );
        }
        // Per-tier sweep: the plan the selector resolves at each worker
        // budget, timed through the real `kernel::gemm` dispatch so
        // threaded timings include pool overhead.
        println!("  tier sweep:");
        for budget in [1, 2, 4, 8] {
            let wide = bp.with_threads(budget);
            let plan = selector::select(&wide);
            let mut dst = vec![0.0f32; m * n];
            let mut best = f64::MAX;
            for _ in 0..5 {
                let t = Instant::now();
                kernel::gemm(&wide, &mut dst, &lhs, &rhs, &mut scratch);
                best = best.min(t.elapsed().as_secs_f64());
            }
            std::hint::black_box(&dst);
            println!(
                "    budget {budget}: {:32} {:8.2}",
                plan.describe(),
                flops / best / 1e9
            );
        }
    }
    ExitCode::SUCCESS
}
