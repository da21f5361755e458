//! The deterministic cost model the [selector](super::selector) ranks
//! plans with, and the pinned shapes the equality suites cover.
//!
//! # Why a cost model and not a stopwatch
//!
//! A plan must be reproducible on *any* machine — benchmark
//! attribution and the golden plan test compare plan strings across
//! hosts — so selection cannot depend on one host's wall-clock noise.
//! Every product runs the one [`MR`]×[`NR`] register tile; what is left
//! to choose — the reduction block `kc`, whether a `Tn` lhs is packed,
//! and the worker count — is ranked with a deterministic integer cost
//! model (micro-op count plus memory traffic, with an L1-overflow
//! penalty), calibrated once against wall-clock sweeps on the
//! development host.
//!
//! # The parallelism dimension
//!
//! Since the threaded tier never changes a result byte (see
//! [`super::thread`]), serial-vs-threaded is purely a cost question.
//! The model charges a flat per-dispatch overhead
//! ([`DISPATCH_COST`]: publish, wake, join) plus a per-worker term
//! ([`PER_WORKER_COST`]: one extra pack of shared panels and the
//! condvar round-trip), then divides the serial cost by the worker
//! count. The constants put the crossover near a 128³ problem —
//! smaller products stay serial no matter the budget, which matches
//! the measured behaviour that a pool dispatch costs a few
//! microseconds.

use super::blueprint::{Blueprint, Op};
use super::routine::{Routine, MR, NR};
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
pub const DISPATCH_COST: u128 = 6_000_000;

/// Additional model cost per participating worker: each packs its own
/// rhs panels and pays one condvar round-trip.
pub const PER_WORKER_COST: u128 = 500_000;

/// Every routine the model ranks: the two `kc` rungs that can win, in
/// both the plain and the packed-lhs (`Tn`-only) variants.
///
/// Every routine listed here must be selectable — the
/// `every_candidate_is_selectable` test exhibits a shape for each — so
/// before adding a rung, check it against [`model_cost`]: **`kc = 256`
/// wins exactly where `128 < k ≤ 148`; no larger rung wins anywhere.**
/// The effective block is `min(kc, k)`, so for `k ≤ 128` every rung is
/// the same loop and the tie goes to the first. A block above 148 rows
/// overflows L1 and costs ×1.5 on the microkernel term — at least
/// `6.25·m·k·n` units — while the most a larger block can save is all of
/// `kc = 128`'s `dst` reload traffic, `50·m·n·(⌈k/128⌉ − 1) < 0.4·m·k·n`.
/// So past `k = 148` the 128 rung wins, in `128 < k ≤ 148` a single
/// un-penalized block saves one `dst` round trip, and a `kc = 512` rung
/// would only ever tie with 256.
///
/// An iterator rather than a collection: the selector ranks on the
/// `kernel::gemm` hot path, whose steady-state zero-allocation contract
/// a collected pool would break.
pub fn candidates() -> impl Iterator<Item = Routine> {
    [128u16, 256]
        .into_iter()
        .flat_map(|kc| [Routine::Packed { kc }, Routine::PackedLhs { kc }])
}

/// Deterministic cost of serving `bp` with `r` on one thread, in
/// abstract integer units scaled by 100 (lower is better).
///
/// The model charges the microkernel inner loop (`W = NR/16` SIMD lanes
/// worth of FMA, lhs loads, and loop overhead per reduction step per
/// tile), multiplies in a ×1.5 penalty when the packed panel overflows
/// L1 (`NR·kc·4 > 37 KB` — this is what steers Nt shapes, whose packing
/// reads are strided, to `kc = 128`), then adds memory traffic (pack
/// writes+reads, dst reload per extra k-block, lhs re-read per j-panel)
/// at a quarter-unit per element. On `Tn` the plain packed kernel's
/// lhs reads stride by `m` — one cache line per element — so its lhs
/// traffic is charged ×4; the packed-lhs variant instead pays a
/// one-time `4·m·k` pack (strided read + contiguous write) and reads
/// the panel contiguously thereafter, which is why it wins every `Tn`
/// shape with more than a handful of rows. Only the induced *ordering*
/// matters, and it reproduces the measured ordering on the pinned
/// shapes (where measured differences exceed run-to-run noise).
pub fn model_cost(bp: &Blueprint, r: Routine) -> u128 {
    let (m, k, n) = (bp.m as u128, bp.k as u128, bp.n as u128);
    if m == 0 || n == 0 {
        return 0;
    }
    let (pack_lhs, kc) = match r {
        Routine::Packed { kc } => (false, kc),
        Routine::PackedLhs { kc } => (true, kc),
    };
    let (mr, nr) = (MR as u128, NR as u128);
    let kc = (kc as u128).min(k.max(1));
    let w = nr / 16;
    let tiles_i = m.div_ceil(mr);
    let panels_j = n.div_ceil(nr);
    let kblocks = k.max(1).div_ceil(kc);
    let micro = tiles_i * k * panels_j * (mr * w + mr + 2 + w);
    let mut scaled = micro * 100;
    if nr * kc * 4 > 37 * 1024 {
        scaled = scaled * 150 / 100;
    }
    let pack = 2 * panels_j * k * nr;
    let dst_traffic = m * n * (2 * kblocks - 1);
    let lhs_traffic = if pack_lhs {
        // One strided pack of the whole lhs, contiguous panel reads per
        // j-panel thereafter.
        4 * m * k + panels_j * m * k
    } else if bp.op == Op::Tn {
        // Strided lhs reads: one cache line touched per element.
        4 * panels_j * m * k
    } else {
        panels_j * m * k
    };
    scaled + (pack + dst_traffic + lhs_traffic) * 100 / 4
}

/// [`model_cost`] extended with the threaded tier: `workers > 1`
/// divides the serial cost across workers and adds the dispatch and
/// per-worker overhead charges.
pub fn plan_cost(bp: &Blueprint, r: Routine, workers: usize) -> u128 {
    let serial = model_cost(bp, r);
    if workers <= 1 {
        serial
    } else {
        let w = workers as u128;
        serial / w + DISPATCH_COST + w * PER_WORKER_COST
    }
}

/// The model's best plan for `bp`: every [candidate](candidates)
/// routine crossed with every feasible worker count (1, the powers of
/// two, and the shape's clamped budget). Ties break toward the earlier
/// candidate and the smaller worker count, so the result is fully
/// deterministic.
pub fn best_plan(bp: &Blueprint) -> Plan {
    let cap = thread::effective_workers(bp, bp.threads);
    let mut best: Option<(u128, Plan)> = None;
    for r in candidates() {
        if !r.supports(bp) {
            continue;
        }
        for workers in 1..=cap {
            if !workers.is_power_of_two() && workers != cap {
                continue;
            }
            let c = plan_cost(bp, r, workers);
            if best.is_none_or(|(bc, _)| c < bc) {
                best = Some((
                    c,
                    Plan {
                        routine: r,
                        workers,
                    },
                ));
            }
        }
    }
    best.expect("candidate pool is never empty").1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_is_deterministic_and_positive() {
        let bp = Blueprint::nn(64, 288, 2048);
        for r in candidates() {
            if !r.supports(&bp) {
                continue;
            }
            let c = model_cost(&bp, r);
            assert!(c > 0);
            assert_eq!(c, model_cost(&bp, r));
        }
    }

    /// Keeps dead candidates from coming back: each routine the model
    /// ranks must be the plan of at least one shape (see
    /// [`candidates`] for why these four and no others can be).
    #[test]
    fn every_candidate_is_selectable() {
        let witnesses = [
            Blueprint::nn(64, 288, 2048),
            Blueprint::nn(16, 144, 8192),
            Blueprint::tn(256, 64, 512),
            Blueprint::tn(256, 144, 512),
        ];
        for r in candidates() {
            assert!(
                witnesses.iter().any(|bp| best_plan(bp).routine == r),
                "no witness shape selects {}",
                r.describe()
            );
        }
    }

    #[test]
    fn model_prefers_packed_at_size() {
        let r = best_plan(&Blueprint::nn(512, 512, 512)).routine;
        assert!(matches!(r, Routine::Packed { .. }), "got {}", r.describe());
    }

    #[test]
    fn packed_lhs_wins_nontiny_tn() {
        let r = best_plan(&Blueprint::tn(256, 64, 512)).routine;
        assert!(
            matches!(r, Routine::PackedLhs { .. }),
            "got {}",
            r.describe()
        );
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
        let r = Routine::Packed { kc: 128 };
        let serial = plan_cost(&bp, r, 1);
        let wide = plan_cost(&bp, r, 4);
        assert_eq!(serial, model_cost(&bp, r));
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
