//! The kernel subsystem's bit-for-bit equality contract, pinned over
//! seeded randomized shapes.
//!
//! Whatever plan the selector dispatches — the one packed 2×64 kernel
//! at any worker count the cost model ranks — the `f32` output must
//! equal the naive reference
//! `matmul_ikj` **exactly** (`==` on every element, not a tolerance).
//! The sweep deliberately includes the shapes that bend kernel edge
//! cases: `k = 0` (pure zeroing), `m = 1` (only the MR=1 tail runs),
//! `n` not divisible by any panel width (ragged last panel), all-zero
//! and zero-free operands, and all three operand layouts.

use procrustes_prng::{UniformRng, Xorshift64};
use procrustes_tensor::kernel::{self, Blueprint, Op};
use procrustes_tensor::reference::matmul_ikj;
use procrustes_tensor::Scratch;

/// A seeded operand with a `zero_frac` share of stored zeros,
/// exercising the zero-skip branches without changing the reduction
/// order.
fn operand(len: usize, zero_frac: f64, rng: &mut Xorshift64) -> Vec<f32> {
    (0..len)
        .map(|_| {
            if rng.next_f64() < zero_frac {
                0.0
            } else {
                rng.next_f32() * 2.0 - 1.0
            }
        })
        .collect()
}

/// Row-major transpose: `src: [r, c]` → `[c, r]`.
fn transpose(src: &[f32], r: usize, c: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; src.len()];
    for i in 0..r {
        for j in 0..c {
            out[j * r + i] = src[i * c + j];
        }
    }
    out
}

/// Runs one (m, k, n) problem, its operands holding a `zero_frac` share
/// of stored zeros, through every op and asserts bitwise equality with
/// the reference product.
fn check_shape(m: usize, k: usize, n: usize, zero_frac: f64, seed: u64, scratch: &mut Scratch) {
    let mut rng = Xorshift64::new(seed);
    let a = operand(m * k, zero_frac, &mut rng); // [m, k]
    let b = operand(k * n, zero_frac, &mut rng); // [k, n]
    let expect = matmul_ikj(&a, &b, m, k, n);

    let at = transpose(&a, m, k); // [k, m]
    let bt = transpose(&b, k, n); // [n, k]
    let mut dst = vec![f32::NAN; m * n]; // stale contents must be overwritten

    for op in [Op::Nn, Op::Nt, Op::Tn] {
        let bp = match op {
            Op::Nn => Blueprint::nn(m, k, n),
            Op::Nt => Blueprint::nt(m, k, n),
            Op::Tn => Blueprint::tn(m, k, n),
        };
        let (lhs, rhs): (&[f32], &[f32]) = match op {
            Op::Nn => (&a, &b),
            Op::Nt => (&a, &bt),
            Op::Tn => (&at, &b),
        };
        dst.fill(f32::NAN);
        kernel::gemm(&bp, &mut dst, lhs, rhs, scratch);
        let routine = kernel::select(&bp).describe();
        assert_eq!(
            dst,
            expect,
            "{}x{}x{} {} via {} diverged from matmul_ikj",
            m,
            k,
            n,
            op.tag(),
            routine
        );
    }
}

#[test]
fn pinned_edge_shapes_match_reference_bitwise() {
    let mut scratch = Scratch::new();
    // (m, k, n): the degenerate and ragged corners called out in the
    // kernel contract.
    let pinned: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (4, 0, 7), // k = 0: dst must be zeroed, operands untouched
        (1, 64, 1),
        (1, 96, 130), // m = 1: only the MR=1 tail path runs
        (3, 17, 63),  // n = 63: ragged against every panel width
        (5, 33, 65),  // n = 65: one full 64-panel plus a width-1 tail
        (7, 128, 64), // n = 64: exactly one packed panel
        (64, 31, 80), // kc tail: k smaller than every kc candidate
        (2, 256, 16),
    ];
    for (i, &(m, k, n)) in pinned.iter().enumerate() {
        check_shape(m, k, n, 0.3, 0x9e37 + i as u64, &mut scratch);
    }
    // Small sizes straddling every tile boundary, at the density
    // extremes: all-zero operands (every term skipped) and zero-free
    // ones (no term skipped).
    for &(m, k, n) in &[
        (4, 3, 16),
        (5, 7, 17),
        (3, 16, 15),
        (9, 2, 33),
        (16, 16, 16),
        (13, 21, 40),
        (12, 3, 24),
    ] {
        for zero_frac in [1.0, 0.0] {
            check_shape(m, k, n, zero_frac, (m * 31 + n) as u64, &mut scratch);
        }
    }
}

#[test]
fn randomized_shapes_match_reference_bitwise() {
    let mut scratch = Scratch::new();
    let mut rng = Xorshift64::new(0xc0ffee);
    for case in 0..40u64 {
        // Skewed small so debug-build runtime stays bounded while still
        // crossing the 64-column panel width.
        let m = 1 + (rng.next_u64() % 64) as usize;
        let k = (rng.next_u64() % 97) as usize; // includes k = 0
        let n = 1 + (rng.next_u64() % 160) as usize;
        check_shape(m, k, n, 0.3, 0xfeed + case, &mut scratch);
    }
}
