//! Property suite pinning the threaded tier's bitwise-determinism
//! contract: for every shape and layout, `kernel::gemm` produces
//! byte-identical output at every worker budget (1/2/4/8), and that
//! output equals the naive `reference::matmul_ikj` loop.
//!
//! The equality is structural, not numerical luck: the threaded tier
//! partitions the *output* into disjoint slabs and each element's `k`
//! reduction stays strictly sequential on one worker (see
//! `kernel::thread`), so no thread count can re-associate a single
//! sum. This suite exists to keep that property pinned as the kernels
//! evolve — any cross-worker reduction sneaking in fails it
//! immediately.
//!
//! Seeded and deterministic: shapes are drawn from a fixed Xorshift
//! stream, plus hand-picked edge geometries (k = 0, m = 1, ragged n,
//! wide-m/narrow-n row-split shapes). The suite also asserts that the
//! threaded tier actually engaged a healthy number of times, so a
//! selector regression that silently serializes everything cannot pass
//! vacuously.

use procrustes_prng::{UniformRng, Xorshift64};
use procrustes_tensor::kernel::autotune::PINNED_SHAPES;
use procrustes_tensor::kernel::{self, Blueprint, Op};
use procrustes_tensor::reference::matmul_ikj;
use procrustes_tensor::Scratch;

/// Operands with ~30% exact zeros so the lhs zero-skip path is
/// exercised.
fn sparse(len: usize, rng: &mut Xorshift64) -> Vec<f32> {
    (0..len)
        .map(|_| {
            if rng.next_f64() < 0.3 {
                0.0
            } else {
                rng.next_f32() * 2.0 - 1.0
            }
        })
        .collect()
}

/// Naive reference for any op: materialize untransposed operands and
/// run the seed ikj loop.
fn reference_for(bp: &Blueprint, lhs: &[f32], rhs: &[f32]) -> Vec<f32> {
    let (m, k, n) = (bp.m, bp.k, bp.n);
    let a: Vec<f32> = match bp.op {
        Op::Tn => {
            let mut a = vec![0.0f32; m * k];
            for p in 0..k {
                for i in 0..m {
                    a[i * k + p] = lhs[p * m + i];
                }
            }
            a
        }
        _ => lhs.to_vec(),
    };
    let b: Vec<f32> = match bp.op {
        Op::Nt => {
            let mut b = vec![0.0f32; k * n];
            for j in 0..n {
                for p in 0..k {
                    b[p * n + j] = rhs[j * k + p];
                }
            }
            b
        }
        _ => rhs.to_vec(),
    };
    matmul_ikj(&a, &b, m, k, n)
}

/// Runs one `(m, k, n)` geometry through every op × worker budget and
/// returns how many of those runs resolved to the threaded tier.
fn check_shape(m: usize, k: usize, n: usize, seed: u64, scratch: &mut Scratch) -> usize {
    let mut threaded = 0;
    for op in [Op::Nn, Op::Nt, Op::Tn] {
        let base = Blueprint {
            m,
            k,
            n,
            op,
            threads: 1,
        };
        let mut rng = Xorshift64::new(seed ^ ((op as u64) << 32));
        let lhs = sparse(base.lhs_len(), &mut rng);
        let rhs = sparse(base.rhs_len(), &mut rng);
        let want = reference_for(&base, &lhs, &rhs);
        for budget in [1usize, 2, 4, 8] {
            let bp = base.with_threads(budget);
            let (plan, source) = kernel::explain(&bp);
            if plan.workers > 1 {
                threaded += 1;
            }
            let mut got = vec![f32::NAN; m * n];
            kernel::gemm(&bp, &mut got, &lhs, &rhs, scratch);
            assert_eq!(got.len(), want.len());
            for (idx, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    g.to_bits() == w.to_bits(),
                    "bit mismatch at [{},{}] ({g:e} vs {w:e}): {}x{}x{} {} \
                     budget={} plan={} ({source})",
                    idx / n.max(1),
                    idx % n.max(1),
                    m,
                    k,
                    n,
                    op.tag(),
                    budget,
                    plan.describe()
                );
            }
        }
    }
    threaded
}

#[test]
fn threaded_gemm_is_bitwise_equal_across_worker_counts() {
    let mut scratch = Scratch::new();
    let mut threaded_runs = 0;

    // Hand-picked edges: degenerate reduction (k = 0 must zero every
    // slab, not the whole dst twice), single-row outputs, ragged column
    // counts straddling the 64-wide split unit, and wide-m/narrow-n
    // shapes that take the row split.
    for &(m, k, n) in &[
        (3usize, 0usize, 129usize), // k = 0 across a 3-chunk column split
        (1, 64, 200),               // m = 1: single row, column split only
        (65, 33, 65),               // ragged everywhere
        (97, 50, 321),              // ragged n across multiple units
        (512, 48, 64),              // wide-m/narrow-n: row split (fc dW shape)
        (300, 40, 70),              // row split with ragged tail rows
        (128, 96, 256),             // past the threaded crossover
        (160, 64, 640),             // wide column split, 10 units
    ] {
        threaded_runs += check_shape(m, k, n, (m * 1_000_003 + k * 1009 + n) as u64, &mut scratch);
    }

    // The shapes the kernel sweep and the training stack pin: every
    // one must stay bitwise-equal to the reference at every budget.
    for &(_, m, k, n) in PINNED_SHAPES {
        threaded_runs += check_shape(m, k, n, (m * 1_000_003 + k * 1009 + n) as u64, &mut scratch);
    }

    // Seeded random geometries spanning both sides of the
    // serial/threaded crossover.
    let mut rng = Xorshift64::new(0xD15B_A7C4_7EA5);
    for _ in 0..24 {
        let m = 1 + (rng.next_u64() % 288) as usize;
        let k = (rng.next_u64() % 160) as usize;
        let n = 1 + (rng.next_u64() % 520) as usize;
        threaded_runs += check_shape(m, k, n, rng.next_u64(), &mut scratch);
    }

    // The property must not hold vacuously: a healthy share of the
    // runs above must actually have engaged the worker pool.
    assert!(
        threaded_runs >= 40,
        "only {threaded_runs} runs used the threaded tier — selector or \
         pool regression is hiding the property under test"
    );
}

/// A panic inside one pool job must cost the next ones nothing: after a
/// dispatch that panics at index `bad` — the caller's own index and
/// every helper's in turn — each pinned shape still comes out of the
/// public `kernel::gemm` bit-equal to the reference at budgets 2/4/8.
/// A pool that lost a helper, kept a stale `pending`, or poisoned a
/// lock hangs or panics here instead.
#[test]
fn gemm_is_bitwise_equal_after_a_panicking_dispatch_at_each_index() {
    use procrustes_tensor::pool;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let mut scratch = Scratch::new();
    let problems: Vec<_> = PINNED_SHAPES
        .iter()
        .map(|&(op, m, k, n)| {
            let base = Blueprint {
                m,
                k,
                n,
                op,
                threads: 1,
            };
            let mut rng = Xorshift64::new((m * 1_000_003 + k * 1009 + n) as u64);
            let lhs = sparse(base.lhs_len(), &mut rng);
            let rhs = sparse(base.rhs_len(), &mut rng);
            let want = reference_for(&base, &lhs, &rhs);
            (base, lhs, rhs, want)
        })
        .collect();

    const WORKERS: usize = 4;
    let mut threaded_runs = 0;
    for bad in 0..WORKERS {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool::run(WORKERS, &mut Scratch::new(), &|index, _| {
                assert!(index != bad, "injected at index {index}");
            })
        }));
        let payload = caught.expect_err("the injected panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some(format!("injected at index {bad}").as_str())
        );

        for (base, lhs, rhs, want) in &problems {
            for budget in [2usize, 4, 8] {
                let bp = base.with_threads(budget);
                let plan = kernel::explain(&bp).0;
                threaded_runs += usize::from(plan.workers > 1);
                let mut got = vec![f32::NAN; bp.m * bp.n];
                kernel::gemm(&bp, &mut got, lhs, rhs, &mut scratch);
                assert!(
                    got.iter()
                        .zip(want)
                        .all(|(g, w)| g.to_bits() == w.to_bits()),
                    "{}x{}x{} {} differs after a panic at index {bad}: plan={}",
                    bp.m,
                    bp.k,
                    bp.n,
                    bp.op.tag(),
                    plan.describe()
                );
            }
        }
    }
    assert!(
        threaded_runs >= WORKERS * 20,
        "only {threaded_runs} runs went through the pool after a panic"
    );
}
