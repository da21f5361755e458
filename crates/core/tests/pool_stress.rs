//! Two kinds of job on one pool: four caller threads, each alternating
//! threaded GEMMs with `Engine::run_all`, all dispatching through
//! `procrustes_tensor::pool` at once. Whatever the interleaving, every
//! product must equal the serial kernel's bit for bit and every result
//! document must equal `Engine::serial()`'s byte for byte.
//!
//! Seeded and free of clocks: the per-caller choice of shape, worker
//! budget and engine temperature comes from a fixed Xorshift stream,
//! and a barrier starts the callers together so they contend from the
//! first round.

use std::sync::Barrier;

use procrustes_core::{Engine, EvalResult, Fidelity, Scenario, SparsityGen, Sweep};
use procrustes_prng::{UniformRng, Xorshift64};
use procrustes_sim::Mapping;
use procrustes_tensor::kernel::{self, Blueprint};
use procrustes_tensor::Scratch;

const CALLERS: usize = 4;
const ROUNDS: usize = 50;
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Shapes past the serial/threaded crossover: three pinned ones that
/// split by columns, one per layout, and a wide-m one that splits by
/// rows.
fn shapes() -> [Blueprint; 4] {
    [
        Blueprint::nn(64, 288, 1024),
        Blueprint::nt(64, 512, 576),
        Blueprint::tn(256, 64, 512),
        Blueprint::tn(1024, 64, 256),
    ]
}

fn operand(len: usize, rng: &mut Xorshift64) -> Vec<f32> {
    (0..len).map(|_| rng.next_f32() * 2.0 - 1.0).collect()
}

fn docs(results: &[EvalResult]) -> Vec<String> {
    results.iter().map(EvalResult::to_json).collect()
}

#[test]
fn interleaved_gemm_and_engine_jobs_keep_their_answers() {
    let grid: Vec<Scenario> = Sweep::new()
        .networks(["DenseNet"])
        .mappings(Mapping::ALL)
        .sparsities([SparsityGen::Dense, SparsityGen::PaperSynthetic { seed: 5 }])
        .fidelities([Fidelity::Analytic])
        .build()
        .unwrap();
    let expected = docs(&Engine::serial().run_all(&grid).unwrap());

    let mut rng = Xorshift64::new(SEED);
    let mut scratch = Scratch::new();
    let problems: Vec<_> = shapes()
        .into_iter()
        .map(|bp| {
            let lhs = operand(bp.lhs_len(), &mut rng);
            let rhs = operand(bp.rhs_len(), &mut rng);
            let mut serial = vec![f32::NAN; bp.m * bp.n];
            kernel::gemm(&bp, &mut serial, &lhs, &rhs, &mut scratch);
            (bp, lhs, rhs, serial)
        })
        .collect();
    for (bp, ..) in &problems {
        for budget in [2, 4, 8] {
            let plan = kernel::explain(&bp.with_threads(budget)).0;
            assert!(plan.workers > 1, "{} would not dispatch", plan.describe());
        }
    }

    let start = Barrier::new(CALLERS);
    std::thread::scope(|scope| {
        for caller in 0..CALLERS {
            let (grid, expected, problems, start) = (&grid, &expected, &problems, &start);
            scope.spawn(move || {
                let mut rng = Xorshift64::new(SEED ^ (caller as u64 + 1));
                let mut scratch = Scratch::new();
                let mut engine = Engine::with_threads(2);
                start.wait();
                for round in 0..ROUNDS {
                    let (bp, lhs, rhs, serial) = &problems[(rng.next_u64() % 4) as usize];
                    let bp = bp.with_threads([2, 4, 8][(rng.next_u64() % 3) as usize]);
                    let mut got = scratch.take_any(bp.m * bp.n);
                    kernel::gemm(&bp, &mut got, lhs, rhs, &mut scratch);
                    assert!(
                        got.iter()
                            .zip(serial)
                            .all(|(g, s)| g.to_bits() == s.to_bits()),
                        "caller {caller} round {round}: {}x{}x{} at budget {}",
                        bp.m,
                        bp.k,
                        bp.n,
                        bp.threads
                    );
                    scratch.recycle_vec(got);

                    // Now and then start cold, so that some passes
                    // synthesise masks and cost layers inside the pool
                    // and the rest only read the memo.
                    if rng.next_u64() % 8 == 0 {
                        engine = Engine::with_threads(2);
                    }
                    let results = engine.run_all(grid).unwrap();
                    assert_eq!(&docs(&results), expected, "caller {caller} round {round}");
                }
            });
        }
    });
}
