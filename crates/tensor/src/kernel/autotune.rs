//! The deterministic cost model the [selector](super::selector) ranks
//! plans with, and the pinned shapes the equality suites cover.
//!
//! # Why a cost model and not a stopwatch
//!
//! A plan must be reproducible on *any* machine — benchmark
//! attribution and the golden plan test compare plan strings across
//! hosts — so selection cannot depend on one host's wall-clock noise.
//! Every product runs the one [`MR`]×[`NR`] register tile over
//! 128-row reduction blocks; all that is left to choose is the worker count,
//! and it is ranked with a deterministic integer cost model (micro-op
//! count plus memory traffic), calibrated once against wall-clock
//! sweeps on the development host.
//!
//! # The parallelism dimension
//!
//! Since the threaded tier never changes a result byte (see
//! [`super::thread`]), serial-vs-threaded is purely a cost question.
//! The model charges a flat per-dispatch overhead
//! (`DISPATCH_COST`: publish, wake, join) plus a per-worker term
//! (`PER_WORKER_COST`: one extra pack of shared panels and the
//! condvar round-trip), then divides the serial cost by the worker
//! count. The constants put the crossover near a 128³ problem —
//! smaller products stay serial no matter the budget, which matches
//! the measured behaviour that a pool dispatch costs a few
//! microseconds.

use super::blueprint::{Blueprint, Op};
use super::routine::{KC, MR, NR};
use super::selector::Plan;
use super::thread;

/// The pinned shapes the equality suites cover: the
/// three GEMM shapes behind the benchmark's `tensor.gemm_gflops`, the
/// conv im2col products and fc forward/backward shapes of the FIG06
/// training stack, and degenerate extents (vector-matrix, skinny
/// reductions).
pub const PINNED_SHAPES: &[(Op, usize, usize, usize)] = &[
    // The benchmark's dense GEMM trio.
    (Op::Nn, 64, 288, 2048),
    (Op::Nn, 256, 256, 256),
    (Op::Nn, 64, 576, 512),
    // Larger square point.
    (Op::Nn, 512, 512, 512),
    // Conv im2col products: dst [k_out, n·p·q] = w [k_out, c·r·s] · cols.
    (Op::Nn, 32, 27, 8192),
    (Op::Nn, 64, 288, 1024),
    // Vector-matrix (batch-1 inference row).
    (Op::Nn, 1, 512, 512),
    // fc forward y = x·Wᵀ and conv dW = dy·colsᵀ.
    (Op::Nt, 64, 2048, 288),
    (Op::Nt, 64, 512, 576),
    (Op::Nt, 8, 512, 256),
    (Op::Nt, 64, 256, 10),
    // fc dW = dyᵀ·x (Tn, skinny reduction over the batch).
    (Op::Tn, 256, 64, 512),
    (Op::Tn, 10, 64, 256),
    (Op::Tn, 512, 64, 2048),
];

/// Flat model cost of one threaded dispatch (publish the job, wake the
/// pool, join), in the same scaled units as [`model_cost`]. Together
/// with [`PER_WORKER_COST`] this puts the serial/threaded crossover
/// near a 128³ product.
const DISPATCH_COST: u128 = 6_000_000;

/// Additional model cost per participating worker: each packs its own
/// rhs panels and pays one condvar round-trip.
const PER_WORKER_COST: u128 = 500_000;

/// Deterministic cost of serving `bp` on one thread, in abstract integer
/// units scaled by 100 (lower is better).
///
/// The model charges the microkernel inner loop (`W = NR/16` SIMD lanes
/// worth of FMA, lhs loads, and loop overhead per reduction step per
/// tile), then adds memory traffic (pack writes+reads, dst reload per
/// extra k-block, lhs re-read per j-panel) at a quarter-unit per
/// element. On `Tn` the lhs reads stride by `m` — one cache line per
/// element — so its lhs traffic is charged ×4. Only the induced
/// *ordering* of worker counts matters.
fn model_cost(bp: &Blueprint) -> u128 {
    let (m, k, n) = (bp.m as u128, bp.k as u128, bp.n as u128);
    if m == 0 || n == 0 {
        return 0;
    }
    let (mr, nr) = (MR as u128, NR as u128);
    let kc = (KC as u128).min(k.max(1));
    let w = nr / 16;
    let tiles_i = m.div_ceil(mr);
    let panels_j = n.div_ceil(nr);
    let kblocks = k.max(1).div_ceil(kc);
    let micro = tiles_i * k * panels_j * (mr * w + mr + 2 + w);
    let pack = 2 * panels_j * k * nr;
    let dst_traffic = m * n * (2 * kblocks - 1);
    let lhs_traffic = if bp.op == Op::Tn {
        // Strided lhs reads: one cache line touched per element.
        4 * panels_j * m * k
    } else {
        panels_j * m * k
    };
    micro * 100 + (pack + dst_traffic + lhs_traffic) * 100 / 4
}

/// [`model_cost`] extended with the threaded tier: `workers > 1`
/// divides the serial cost across workers and adds the dispatch and
/// per-worker overhead charges.
fn plan_cost(bp: &Blueprint, workers: usize) -> u128 {
    let serial = model_cost(bp);
    if workers <= 1 {
        serial
    } else {
        let w = workers as u128;
        serial / w + DISPATCH_COST + w * PER_WORKER_COST
    }
}

/// The model's best plan for `bp`: the cheapest feasible worker count —
/// 1, the powers of two, and the shape's clamped budget, so at most four
/// cost evaluations. Ties break toward the smaller worker count, so the
/// result is fully deterministic.
pub fn best_plan(bp: &Blueprint) -> Plan {
    let cap = thread::effective_workers(bp, bp.threads);
    let mut best = (plan_cost(bp, 1), 1);
    for workers in 2..=cap {
        if !workers.is_power_of_two() && workers != cap {
            continue;
        }
        let c = plan_cost(bp, workers);
        if c < best.0 {
            best = (c, workers);
        }
    }
    Plan { workers: best.1 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_is_deterministic_and_positive() {
        let bp = Blueprint::nn(64, 288, 2048);
        let c = model_cost(&bp);
        assert!(c > 0);
        assert_eq!(c, model_cost(&bp));
    }

    #[test]
    fn threaded_crossover_sits_between_small_and_large() {
        // A 64³ product must stay serial even with a full budget; a
        // 512³ one must go wide.
        let small = best_plan(&Blueprint::nn(64, 64, 64).with_threads(8));
        assert_eq!(small.workers, 1, "64^3 should not amortize a dispatch");
        let large = best_plan(&Blueprint::nn(512, 512, 512).with_threads(8));
        assert!(large.workers > 1, "512^3 should go threaded");
    }

    #[test]
    fn plan_cost_charges_dispatch_overhead() {
        let bp = Blueprint::nn(256, 256, 256);
        let serial = plan_cost(&bp, 1);
        let wide = plan_cost(&bp, 4);
        assert_eq!(serial, model_cost(&bp));
        assert!(wide > serial / 4, "overhead must not be free");
        assert!(
            wide >= DISPATCH_COST + 4 * PER_WORKER_COST,
            "flat charges present"
        );
    }

    #[test]
    fn budget_one_never_plans_threads() {
        for &(op, m, k, n) in PINNED_SHAPES {
            let bp = Blueprint {
                m,
                k,
                n,
                op,
                threads: 1,
            };
            assert_eq!(best_plan(&bp).workers, 1);
        }
    }
}
