//! The perf-trajectory harness: deterministic workloads, measured wall
//! clock, machine-readable output.
//!
//! Times (a) the selector-chosen GEMM kernel against the seed naive-ikj
//! matmul — recording which routine served each pinned shape and which
//! selector step (model/tiny) chose it, so every BENCH entry is
//! attributable — (b) the three conv training kernels (GEMM form vs
//! seed scatter form) over the fig06-style tiny-VGG geometries, and (c)
//! one full training step of the dense and Procrustes trainers on that
//! stack — the Procrustes one under its default `ComputeBackend::auto()` and only
//! after it is past the decay flush and provably on the CSB kernels at
//! ~90 % weight sparsity — then writes `BENCH_pr10.json` so future PRs
//! can diff the trajectory instead of guessing. Since PR 10 every GEMM entry is
//! timed on both kernel tiers: `serial_gflops` pins the single-thread
//! routine and `threaded_gflops` the worker pool at a 4-thread budget,
//! with the resolved tier and worker count recorded next to each (and
//! the host's available parallelism in the header, so a 1-core runner's
//! flat ratios are interpretable). Run from the repo root:
//!
//! ```text
//! cargo run --release -p procrustes-bench --bin perf_trajectory
//! ```
//!
//! Workloads are seeded and fixed; only the timings vary run to run
//! (best-of-N to damp scheduler noise on shared runners).

use std::time::Duration;

use procrustes_bench::{best_of as time, FIG06_BATCH, FIG06_CONV_LAYERS};
use procrustes_dropback::{
    DenseSgdTrainer, ProcrustesConfig, ProcrustesTrainer, StepStats, Trainer,
};
use procrustes_nn::{arch, data::SyntheticImages, Layer};
use procrustes_prng::Xorshift64;
use procrustes_tensor::reference::{conv2d_backward_input, conv2d_backward_weights, matmul_ikj};
use procrustes_tensor::{
    conv2d_backward_input_gemm, conv2d_backward_weights_from_cols, conv2d_from_cols, conv_out_dim,
    im2col, im2col_into, kernel, Scratch, Tensor,
};

fn gflops(flops: u128, t: Duration) -> f64 {
    flops as f64 / t.as_secs_f64() / 1e9
}

struct GemmPoint {
    m: usize,
    k: usize,
    n: usize,
    serial: f64,
    threaded: f64,
    naive: f64,
    /// Which routine the selector dispatched (e.g. `packed-2x64/kc128`).
    routine: String,
    /// The tier the 4-thread budget resolved to, with worker count
    /// (e.g. `threadedx4`).
    tier: String,
    /// Worker count of the threaded plan (1 if it stayed serial).
    workers: usize,
    /// Which selector step decided: `model` or `tiny`.
    selector: &'static str,
}

fn bench_gemm() -> Vec<GemmPoint> {
    let mut out = Vec::new();
    for &(m, k, n) in &[
        (64usize, 288usize, 2048usize),
        (256, 256, 256),
        (64, 576, 512),
    ] {
        let mut rng = Xorshift64::new((m + n) as u64);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        assert_eq!(
            a.matmul(&b).data(),
            &matmul_ikj(a.data(), b.data(), m, k, n)[..],
            "gemm must equal the reference before timing it"
        );
        let mut scratch = Scratch::new();
        let serial_bp = kernel::Blueprint::nn(m, k, n); // threads = 1
        let wide_bp = serial_bp.with_threads(4);
        // Both tiers are timed through `kernel::gemm` on explicit
        // blueprints, so the attribution names exactly what ran; the
        // tiers are bitwise-identical (pinned by the kernel test
        // suites), so the comparison is honest.
        let (plan, selector) = kernel::explain(&wide_bp);
        let mut dst = vec![0.0f32; m * n];
        let flops = 2 * (m * k * n) as u128;
        let serial = gflops(
            flops,
            time(7, || {
                kernel::gemm(&serial_bp, &mut dst, a.data(), b.data(), &mut scratch)
            }),
        );
        let threaded = gflops(
            flops,
            time(7, || {
                kernel::gemm(&wide_bp, &mut dst, a.data(), b.data(), &mut scratch)
            }),
        );
        let naive = gflops(flops, time(7, || matmul_ikj(a.data(), b.data(), m, k, n)));
        out.push(GemmPoint {
            m,
            k,
            n,
            serial,
            threaded,
            naive,
            routine: plan.routine.describe(),
            tier: match plan.tier() {
                kernel::Tier::Serial => "serial".to_string(),
                kernel::Tier::Threaded => format!("threadedx{}", plan.workers),
            },
            workers: plan.workers,
            selector,
        });
    }
    out
}

/// Per-kernel aggregate times over the tiny-VGG conv geometries
/// (batch 8): (forward, backward-input, backward-weights) for the GEMM
/// path and the seed path.
struct ConvAggregate {
    gemm_ns: u128,
    seed_ns: u128,
}

fn bench_conv_kernels() -> ConvAggregate {
    let layers = FIG06_CONV_LAYERS;
    let batch = FIG06_BATCH;
    let mut scratch = Scratch::new();
    let mut gemm_total = Duration::ZERO;
    let mut seed_total = Duration::ZERO;
    for (li, &(c, k, hw)) in layers.iter().enumerate() {
        let mut rng = Xorshift64::new(7 + li as u64);
        let x = Tensor::randn(&[batch, c, hw, hw], 1.0, &mut rng);
        let w = Tensor::randn(&[k, c, 3, 3], 0.1, &mut rng);
        let p = conv_out_dim(hw, 3, 1, 1);
        let dy = Tensor::randn(&[batch, k, p, p], 1.0, &mut rng);
        let cols = im2col(&x, 3, 3, 1, 1);
        let mut colbuf = vec![0.0f32; cols.len()];

        gemm_total += time(3, || {
            im2col_into(&x, 3, 3, 1, 1, &mut colbuf);
            let y = conv2d_from_cols(&w, &colbuf, batch, p, p, &mut scratch);
            let dx = conv2d_backward_input_gemm(&dy, &w, hw, hw, 1, 1, &mut scratch);
            let dw = conv2d_backward_weights_from_cols(&dy, &colbuf, c, 3, 3, &mut scratch);
            scratch.recycle(y);
            scratch.recycle(dx);
            scratch.recycle(dw);
        });
        seed_total += time(3, || {
            // The seed forward was im2col + the naive ikj matmul.
            let cols = im2col(&x, 3, 3, 1, 1);
            let y = matmul_ikj(w.data(), cols.data(), k, c * 9, batch * p * p);
            let dx = conv2d_backward_input(&dy, &w, hw, hw, 1, 1);
            let dw = conv2d_backward_weights(&x, &dy, 3, 3, 1, 1);
            (y, dx, dw)
        });
    }
    ConvAggregate {
        gemm_ns: gemm_total.as_nanos(),
        seed_ns: seed_total.as_nanos(),
    }
}

/// Steps the Procrustes trainer runs before it is timed: past step 263,
/// where the λ = 0.9 decay flushes the initial weights to exact zero and
/// `Auto` promotes the layers to CSB.
const PROCRUSTES_WARMUP_STEPS: usize = 270;

fn bench_train_steps() -> (u128, u128) {
    let data = SyntheticImages::new(10, 32, 32, 0.2, 3);
    let mut rng = Xorshift64::new(11);
    let (x, labels) = data.batch(8, &mut rng);

    let mut dense = DenseSgdTrainer::new(arch::tiny_vgg(10, &mut Xorshift64::new(1)), 0.05, 0.9);
    dense.train_step(&x, &labels);
    dense.train_step(&x, &labels);
    let dense_ns = time(3, || dense.train_step(&x, &labels)).as_nanos();

    // Dense kernels on weights that have not decayed say nothing about
    // sparse training: time the step only in the regime it is for.
    let mut sparse = ProcrustesTrainer::new(
        arch::tiny_vgg(10, &mut Xorshift64::new(1)),
        ProcrustesConfig::default(),
        42,
    );
    let mut warmed = StepStats::default();
    for _ in 0..PROCRUSTES_WARMUP_STEPS {
        warmed = sparse.train_step(&x, &labels);
    }
    let csb_stores = sparse.model_mut().csb_store_count();
    assert!(
        csb_stores > 0 && warmed.weight_sparsity >= 0.89,
        "the Procrustes step is not on the sparse path after {PROCRUSTES_WARMUP_STEPS} steps \
         (csb stores {csb_stores}, weight sparsity {:.4}): refusing to time it",
        warmed.weight_sparsity
    );
    let sparse_ns = time(3, || sparse.train_step(&x, &labels)).as_nanos();

    (dense_ns, sparse_ns)
}

fn main() {
    let optimized = cfg!(not(debug_assertions));
    eprintln!("perf trajectory (optimized build: {optimized}) ...");

    let gemm = bench_gemm();
    let conv = bench_conv_kernels();
    let (dense_ns, sparse_ns) = bench_train_steps();

    let parallelism = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut json = String::new();
    json.push_str("{\n  \"pr\": 10,\n");
    json.push_str("  \"harness\": \"perf_trajectory\",\n");
    json.push_str(&format!("  \"optimized\": {optimized},\n"));
    json.push_str(&format!("  \"parallelism\": {parallelism},\n"));
    json.push_str("  \"gemm\": [\n");
    for (i, g) in gemm.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"m\": {}, \"k\": {}, \"n\": {}, \"routine\": \"{}\", \
             \"tier\": \"{}\", \"workers\": {}, \"selector\": \"{}\", \
             \"serial_gflops\": {:.3}, \"threaded_gflops\": {:.3}, \
             \"naive_gflops\": {:.3}, \"speedup\": {:.2}, \
             \"thread_speedup\": {:.2}}}{}\n",
            g.m,
            g.k,
            g.n,
            g.routine,
            g.tier,
            g.workers,
            g.selector,
            g.serial,
            g.threaded,
            g.naive,
            g.serial / g.naive,
            g.threaded / g.serial,
            if i + 1 < gemm.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"conv_kernels_fig06_stack\": {{\"gemm_ns\": {}, \"seed_ns\": {}, \
         \"speedup\": {:.2}}},\n",
        conv.gemm_ns,
        conv.seed_ns,
        conv.seed_ns as f64 / conv.gemm_ns as f64
    ));
    json.push_str(&format!(
        "  \"train_step_tiny_vgg_batch8\": {{\"dense_ns\": {dense_ns}, \
         \"procrustes_ns\": {sparse_ns}, \"procrustes_backend\": \"auto\", \
         \"procrustes_warmup_steps\": {PROCRUSTES_WARMUP_STEPS}}}\n"
    ));
    json.push_str("}\n");

    print!("{json}");
    std::fs::write("BENCH_pr10.json", &json).expect("write BENCH_pr10.json");
    eprintln!("wrote BENCH_pr10.json");
}
