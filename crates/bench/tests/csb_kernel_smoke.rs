//! A `#[test]`-based performance guard for the CSB compute kernels in the
//! paper's regime: the five tiny-VGG conv geometries at batch 8 with
//! 10 % of the weights stored. Both sides run their steady-state hot
//! loop — the forward kernels read the same padded input planes (as
//! `Conv2d` hands them over: the gather on the CSB side, the view-fed
//! GEMM on the dense one), the backward-input kernels the same upstream
//! gradient, every output comes from a warmed pool — and the compressed
//! kernels must beat the dense GEMMs on the summed stack, because their
//! work scales with the stored nonzeros. The forward pair over
//! materialised im2col columns (the SpMM and the GEMM the planes are
//! tested against) is timed and printed beside it. A 512×512 fc layer
//! at the same density is guarded the same way, forward and backward,
//! on the cached `FcDecode` that `Linear` runs.
//!
//! The same comparison is printed (never asserted) at
//! `ComputeBackend::AUTO_MAX_DENSITY`, the density at which `Auto`
//! starts promoting layers: that constant's documentation quotes it.
//! The forward + backward-input pair is also printed at densities
//! 0.5 / 0.6 / 0.7 / 0.8, CSB against dense with their ratio, so the
//! crossover density reads off one command.
//! So is the resync of tiny-VGG's weight stores at 10 % density — the
//! re-encode of every promoted master into its CSRs that a sparse
//! training step pays once.
//!
//! Runs under plain `cargo test` in the offline build. The timing
//! assertions are conditional, per the offline/1-CPU environment:
//! unoptimized (debug) builds on a shared single-core runner are too
//! noisy to gate on wall-clock ratios, so there the test verifies
//! bitwise agreement and *reports* the timings; optimized builds (the
//! CI perf job, `cargo test --release`) additionally assert the sparse
//! path wins.

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use procrustes_bench::{best_of as time, FIG06_BATCH, FIG06_CONV_LAYERS};
use procrustes_nn::{arch, ComputeBackend, Layer, ParamKind, WeightStore};
use procrustes_prng::{UniformRng, Xorshift64};
use procrustes_sparse::{ConvDecode, FcDecode};
use procrustes_tensor::kernel::{self, Blueprint};
use procrustes_tensor::{
    conv2d_backward_input_gemm, conv2d_from_cols, conv2d_from_planes, im2col, PaddedPlanes,
    Scratch, Tensor,
};

/// The paper's operating point: one weight in ten survives.
const KEEP: f64 = 0.1;

/// Densities at which the forward + backward-input pair is printed, CSB
/// against dense, to locate the crossover `Auto` could move to.
const CROSSOVER_DENSITIES: [f64; 4] = [0.5, 0.6, 0.7, 0.8];

/// The harness runs tests on parallel threads and the dense GEMMs
/// occupy every core: a timing taken beside another test's measures the
/// neighbour, so the tests of this file take turns.
fn exclusive() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    // A failed assertion in the other test poisons nothing worth keeping.
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

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

/// Summed best-of times over the conv stack at one weight density:
/// `(csb forward, dense forward, csb backward-input, dense
/// backward-input)` on the layers' path, then `(csb forward, dense
/// forward)` over im2col columns.
fn conv_stack_times(keep: f64) -> [Duration; 6] {
    let mut scratch = Scratch::new();
    let mut total = [Duration::ZERO; 6];
    for (li, &(c, k, hw)) in FIG06_CONV_LAYERS.iter().enumerate() {
        let seed = 10 * li as u64;
        let w = sparse_tensor(&[k, c, 3, 3], keep, seed + 1);
        let decode = ConvDecode::from_dense(&w);
        let x = Tensor::randn(
            &[FIG06_BATCH, c, hw, hw],
            1.0,
            &mut Xorshift64::new(seed + 2),
        );
        let dy = Tensor::randn(
            &[FIG06_BATCH, k, hw, hw],
            1.0,
            &mut Xorshift64::new(seed + 3),
        );
        let cols = im2col(&x, 3, 3, 1, 1);
        let xp = PaddedPlanes::of_input(&x, 3, 3, 1, 1, &mut scratch);

        // Same operands, same results — the timing comparison is honest.
        let dense_y = conv2d_from_planes(&w, &xp, &mut scratch);
        let csb_y = decode.forward(&xp, &mut scratch);
        assert_eq!(dense_y.data(), csb_y.data(), "forward must agree bitwise");
        for oracle in [
            conv2d_from_cols(&w, cols.data(), FIG06_BATCH, hw, hw, &mut scratch),
            decode.forward_from_cols(cols.data(), FIG06_BATCH, hw, hw, &mut scratch),
        ] {
            assert_eq!(
                oracle.data(),
                csb_y.data(),
                "planes must agree with columns"
            );
            scratch.recycle(oracle);
        }
        let dense_dx = conv2d_backward_input_gemm(&dy, &w, hw, hw, 1, 1, &mut scratch);
        let csb_dx = decode.backward_input(&dy, hw, hw, 1, 1, &mut scratch);
        assert_eq!(
            dense_dx.data(),
            csb_dx.data(),
            "backward-input must agree bitwise"
        );
        for t in [dense_y, csb_y, dense_dx, csb_dx] {
            scratch.recycle(t);
        }

        total[0] += time(5, || {
            let y = decode.forward(&xp, &mut scratch);
            scratch.recycle(y);
        });
        total[1] += time(5, || {
            let y = conv2d_from_planes(&w, &xp, &mut scratch);
            scratch.recycle(y);
        });
        total[4] += time(5, || {
            let y = decode.forward_from_cols(cols.data(), FIG06_BATCH, hw, hw, &mut scratch);
            scratch.recycle(y);
        });
        total[5] += time(5, || {
            let y = conv2d_from_cols(&w, cols.data(), FIG06_BATCH, hw, hw, &mut scratch);
            scratch.recycle(y);
        });
        total[2] += time(5, || {
            let dx = decode.backward_input(&dy, hw, hw, 1, 1, &mut scratch);
            scratch.recycle(dx);
        });
        total[3] += time(5, || {
            let dx = conv2d_backward_input_gemm(&dy, &w, hw, hw, 1, 1, &mut scratch);
            scratch.recycle(dx);
        });
    }
    total
}

#[test]
fn csb_conv_kernels_beat_dense_on_the_fig06_stack_at_paper_density() {
    let _turn = exclusive();
    let [csb_fw, dense_fw, csb_bw, dense_bw, spmm_fw, cols_fw] = conv_stack_times(KEEP);
    println!("conv stack at {KEEP} density: forward csb {csb_fw:?} vs dense {dense_fw:?}");
    println!(
        "conv stack at {KEEP} density: forward over im2col columns csb {spmm_fw:?} vs dense {cols_fw:?}"
    );
    println!("conv stack at {KEEP} density: backward-input csb {csb_bw:?} vs dense {dense_bw:?}");

    let auto = ComputeBackend::AUTO_MAX_DENSITY;
    let [fw, dfw, bw, dbw, spmm, cols] = conv_stack_times(auto);
    println!("conv stack at {auto} density (Auto threshold): forward csb {fw:?} vs dense {dfw:?}");
    println!(
        "conv stack at {auto} density (Auto threshold): forward over im2col columns csb {spmm:?} vs dense {cols:?}"
    );
    println!(
        "conv stack at {auto} density (Auto threshold): backward-input csb {bw:?} vs dense {dbw:?}"
    );
    println!(
        "conv stack at {auto} density (Auto threshold): pair csb {:?} vs dense {:?}",
        fw + bw,
        dfw + dbw
    );

    // Where the sparse pair stops paying: printed, never asserted.
    for keep in CROSSOVER_DENSITIES {
        let [fw, dfw, bw, dbw, ..] = conv_stack_times(keep);
        let (csb, dense) = (fw + bw, dfw + dbw);
        println!(
            "conv stack at {keep} density: pair csb {csb:?} vs dense {dense:?} ({:.2}x)",
            csb.as_secs_f64() / dense.as_secs_f64()
        );
    }

    if cfg!(not(debug_assertions)) {
        assert!(
            csb_fw < dense_fw,
            "optimized csb conv forward ({csb_fw:?}) must beat dense ({dense_fw:?}) at {KEEP} density"
        );
        assert!(
            csb_bw < dense_bw,
            "optimized csb conv backward-input ({csb_bw:?}) must beat dense ({dense_bw:?}) at {KEEP} density"
        );
    }
}

#[test]
fn csb_fc_forward_not_slower_than_dense_at_high_sparsity() {
    let _turn = exclusive();
    const N: usize = 16;
    let w = sparse_tensor(&[512, 512], KEEP, 3);
    let decode = FcDecode::from_dense(&w);
    let x = Tensor::randn(&[N, 512], 1.0, &mut Xorshift64::new(4));
    let dy = Tensor::randn(&[N, 512], 1.0, &mut Xorshift64::new(5));
    let mut scratch = Scratch::new();

    // The GEMMs `Linear` runs on a dense store: y = x·Wᵀ, dx = dy·W.
    let dense = |bp: Blueprint, lhs: &Tensor, scratch: &mut Scratch| {
        let mut dst = scratch.take_tensor_any(&[N, 512]);
        let bp = bp.with_threads(kernel::default_threads());
        kernel::gemm(&bp, dst.data_mut(), lhs.data(), w.data(), scratch);
        dst
    };
    let (nt, nn) = (Blueprint::nt(N, 512, 512), Blueprint::nn(N, 512, 512));

    let y = decode.forward(&x, &mut scratch);
    let dense_y = dense(nt, &x, &mut scratch);
    assert_eq!(dense_y.data(), y.data(), "forward must agree bitwise");
    assert_eq!(x.matmul(&w.transpose2d()).data(), y.data());
    let dx = decode.backward_input(&dy, &mut scratch);
    let dense_dx = dense(nn, &dy, &mut scratch);
    assert_eq!(dense_dx.data(), dx.data(), "backward must agree bitwise");
    assert_eq!(dy.matmul(&w).data(), dx.data());
    for t in [y, dense_y, dx, dense_dx] {
        scratch.recycle(t);
    }

    // Neither side's timing includes the encode or the decode (`Linear`
    // caches both per resync): each path is measured on its steady-state
    // loop, outputs from a warmed pool.
    let csb_fw = time(5, || {
        let y = decode.forward(&x, &mut scratch);
        scratch.recycle(y);
    });
    let dense_fw = time(5, || {
        let y = dense(nt, &x, &mut scratch);
        scratch.recycle(y);
    });
    let csb_bw = time(5, || {
        let dx = decode.backward_input(&dy, &mut scratch);
        scratch.recycle(dx);
    });
    let dense_bw = time(5, || {
        let dx = dense(nn, &dy, &mut scratch);
        scratch.recycle(dx);
    });
    println!("fc forward at {KEEP} density: csb {csb_fw:?} vs dense {dense_fw:?}");
    println!("fc backward at {KEEP} density: csb {csb_bw:?} vs dense {dense_bw:?}");

    if cfg!(not(debug_assertions)) {
        assert!(
            csb_fw < dense_fw,
            "optimized csb fc forward ({csb_fw:?}) must beat dense ({dense_fw:?}) at {KEEP} density"
        );
    }
}

#[test]
fn tiny_vgg_weight_store_resync_time_is_printed() {
    let _turn = exclusive();
    // Tiny-VGG's conv and fc weights, 10 % of each kept, on the CSB
    // backend.
    let mut model = arch::tiny_vgg(10, &mut Xorshift64::new(1));
    let mut stores = Vec::new();
    model.visit_params(&mut |p| {
        if p.kind == ParamKind::Prunable {
            let seed = stores.len() as u64;
            let mut store = WeightStore::new(sparse_tensor(p.values.shape().dims(), KEEP, seed));
            store.set_backend(ComputeBackend::Csb);
            store.sync();
            stores.push(store);
        }
    });
    assert!(stores.iter().all(WeightStore::is_csb));
    // What a training step does to each store: write the master, then
    // resync before the next forward.
    let resync = time(20, || {
        for store in &mut stores {
            store.tensor_mut();
            store.sync();
        }
    });
    println!(
        "weight-store resync of tiny-VGG at {KEEP} density: {resync:?} over {} stores",
        stores.len()
    );
}
