//! The selector layer: maps a [`Blueprint`] to the [`Plan`] that
//! serves it — a [`Routine`] plus the worker count to run it at.
//!
//! Every plan comes from the cost model: [`autotune::best_plan`] ranks
//! every candidate routine crossed with every feasible worker count on
//! the problem's real extents and worker budget, including the
//! per-dispatch overhead charge that keeps small products serial. The
//! ranking is integer arithmetic over at most four routines and four
//! worker counts (well under a microsecond) and allocates nothing.
//!
//! `select` is a pure function of the blueprint — same key (extents,
//! layout, worker budget), same plan, on every call and
//! every machine — which is what makes benchmark attribution (routine,
//! tier, and worker count recorded per shape) and the bit-for-bit
//! equality tests meaningful. The *tier* never affects result bytes,
//! only wall-clock: see [`super::thread`].

use super::autotune;
use super::blueprint::Blueprint;
use super::routine::Routine;

/// A resolved execution plan: which kernel, and how many workers run
/// it (`1` = the serial tier).
///
/// The worker count is already clamped to what the shape can feed
/// ([`effective_workers`](super::thread::effective_workers)), so
/// `workers > 1` is executable as is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Plan {
    /// The kernel to run.
    pub routine: Routine,
    /// Total threads computing the product, including the caller.
    pub workers: usize,
}

impl Plan {
    /// Human-readable tag for benchmark attribution, e.g.
    /// `packed-2x64/kc128@serial` or `packed-2x64/kc128@threadedx4`.
    pub fn describe(&self) -> String {
        let routine = self.routine.describe();
        if self.workers > 1 {
            format!("{routine}@threadedx{}", self.workers)
        } else {
            format!("{routine}@serial")
        }
    }
}

/// Chooses the plan for a blueprint. Pure and deterministic; a product
/// whose rhs is a [`ColsView`](super::cols::ColsView) gets the same
/// plan as over the unfolded matrix, since `Packed` reads either
/// through its pack step.
pub fn select(bp: &Blueprint) -> Plan {
    autotune::best_plan(bp)
}

/// [`select`], plus the name of the resolution step that decided. The
/// cost model is the only step, so the name is always `"model"`; the
/// pair is kept for callers that record it next to a timing.
pub fn explain(bp: &Blueprint) -> (Plan, &'static str) {
    (select(bp), "model")
}

#[cfg(test)]
mod tests {
    use super::super::blueprint::Op;
    use super::super::thread;
    use super::*;

    /// A 64-unit product at a budget of 8 could split eight ways; the
    /// dispatch charge alone keeps it serial.
    #[test]
    fn tiny_problems_stay_serial() {
        for op in [Op::Nn, Op::Nt, Op::Tn] {
            let bp = Blueprint {
                m: 1,
                k: 1,
                n: 4096,
                op,
                threads: 8,
            };
            assert_eq!(thread::effective_workers(&bp, 8), 8, "{}", op.tag());
            assert_eq!(select(&bp).workers, 1, "{}", op.tag());
        }
    }

    /// Golden plans for every GEMM one tiny-VGG batch-8 training step
    /// issues (13 conv, 6 fc) plus the three benchmark GEMM shapes: the
    /// routine, and the worker count at budgets 1/2/4/8. These are the
    /// products the benchmark times, so a cost-model or candidate-list
    /// change that moves one must update this table on purpose.
    #[test]
    fn step_and_benchmark_shapes_keep_their_recorded_plans() {
        /// `(op, m, k, n, routine, workers at budgets 1/2/4/8)`.
        type Golden = (Op, usize, usize, usize, &'static str, [usize; 4]);
        #[rustfmt::skip]
        let golden: &[Golden] = &[
            (Op::Nn, 16, 27, 8192, "packed-2x64/kc128", [1, 2, 4, 8]),
            (Op::Nt, 16, 8192, 27, "packed-2x64/kc128", [1, 1, 1, 1]),
            (Op::Nn, 3, 144, 8192, "packed-2x64/kc256", [1, 2, 4, 8]),
            (Op::Nn, 16, 144, 8192, "packed-2x64/kc256", [1, 2, 4, 8]),
            (Op::Nt, 16, 8192, 144, "packed-2x64/kc128", [1, 2, 3, 3]),
            (Op::Nn, 32, 144, 2048, "packed-2x64/kc256", [1, 2, 4, 8]),
            (Op::Nt, 32, 2048, 144, "packed-2x64/kc128", [1, 2, 3, 3]),
            (Op::Nn, 16, 288, 2048, "packed-2x64/kc128", [1, 2, 4, 8]),
            (Op::Nn, 32, 288, 2048, "packed-2x64/kc128", [1, 2, 4, 8]),
            (Op::Nt, 32, 2048, 288, "packed-2x64/kc128", [1, 2, 4, 5]),
            (Op::Nn, 64, 288, 512, "packed-2x64/kc128", [1, 2, 4, 8]),
            (Op::Nt, 64, 512, 288, "packed-2x64/kc128", [1, 2, 4, 5]),
            (Op::Nn, 32, 576, 512, "packed-2x64/kc128", [1, 2, 4, 8]),
            (Op::Nt, 8, 1024, 64, "packed-2x64/kc128", [1, 1, 1, 1]),
            (Op::Tn, 64, 8, 1024, "packed-lhs-2x64/kc128", [1, 1, 1, 1]),
            (Op::Nn, 8, 64, 1024, "packed-2x64/kc128", [1, 1, 1, 1]),
            (Op::Nt, 8, 64, 10, "packed-2x64/kc128", [1, 1, 1, 1]),
            (Op::Tn, 10, 8, 64, "packed-2x64/kc128", [1, 1, 1, 1]),
            (Op::Nn, 8, 10, 64, "packed-2x64/kc128", [1, 1, 1, 1]),
            (Op::Nn, 64, 288, 2048, "packed-2x64/kc128", [1, 2, 4, 8]),
            (Op::Nn, 256, 256, 256, "packed-2x64/kc128", [1, 2, 4, 4]),
            (Op::Nn, 64, 576, 512, "packed-2x64/kc128", [1, 2, 4, 8]),
        ];
        for &(op, m, k, n, routine, workers) in golden {
            for (budget, w) in [1, 2, 4, 8].into_iter().zip(workers) {
                let bp = Blueprint {
                    m,
                    k,
                    n,
                    op,
                    threads: budget,
                };
                let want = match w {
                    1 => format!("{routine}@serial"),
                    _ => format!("{routine}@threadedx{w}"),
                };
                assert_eq!(
                    explain(&bp).0.describe(),
                    want,
                    "{} {m}x{k}x{n} at budget {budget}",
                    op.tag()
                );
            }
        }
    }

    /// The same table for the products whose rhs is a column view — the
    /// fifteen conv products of that step (forward, weight update,
    /// backward-input per layer; the first layer's backward-input only
    /// runs when its `dx` is asked for). A view gets the extents' own
    /// plan: both routines read it through their pack step.
    #[test]
    fn view_fed_conv_products_keep_their_recorded_plans() {
        type Golden = (Op, usize, usize, usize, &'static str, [usize; 4]);
        #[rustfmt::skip]
        let golden: &[Golden] = &[
            (Op::Nn, 16, 27, 8192, "packed-2x64/kc128", [1, 2, 4, 8]),
            (Op::Nn, 16, 144, 8192, "packed-2x64/kc256", [1, 2, 4, 8]),
            (Op::Nn, 32, 144, 2048, "packed-2x64/kc256", [1, 2, 4, 8]),
            (Op::Nn, 32, 288, 2048, "packed-2x64/kc128", [1, 2, 4, 8]),
            (Op::Nn, 64, 288, 512, "packed-2x64/kc128", [1, 2, 4, 8]),
            (Op::Nt, 16, 8192, 27, "packed-2x64/kc128", [1, 1, 1, 1]),
            (Op::Nt, 16, 8192, 144, "packed-2x64/kc128", [1, 2, 3, 3]),
            (Op::Nt, 32, 2048, 144, "packed-2x64/kc128", [1, 2, 3, 3]),
            (Op::Nt, 32, 2048, 288, "packed-2x64/kc128", [1, 2, 4, 5]),
            (Op::Nt, 64, 512, 288, "packed-2x64/kc128", [1, 2, 4, 5]),
            (Op::Nn, 3, 144, 8192, "packed-2x64/kc256", [1, 2, 4, 8]),
            (Op::Nn, 16, 144, 8192, "packed-2x64/kc256", [1, 2, 4, 8]),
            (Op::Nn, 16, 288, 2048, "packed-2x64/kc128", [1, 2, 4, 8]),
            (Op::Nn, 32, 288, 2048, "packed-2x64/kc128", [1, 2, 4, 8]),
            (Op::Nn, 32, 576, 512, "packed-2x64/kc128", [1, 2, 4, 8]),
        ];
        for &(op, m, k, n, routine, workers) in golden {
            for (budget, w) in [1, 2, 4, 8].into_iter().zip(workers) {
                let bp = Blueprint {
                    m,
                    k,
                    n,
                    op,
                    threads: budget,
                };
                let want = match w {
                    1 => format!("{routine}@serial"),
                    _ => format!("{routine}@threadedx{w}"),
                };
                assert_eq!(
                    select(&bp).describe(),
                    want,
                    "{} {m}x{k}x{n} at budget {budget}",
                    op.tag()
                );
            }
        }
    }

    #[test]
    fn selection_is_stable() {
        let bp = Blueprint::nn(64, 288, 2048).with_threads(4);
        assert_eq!(select(&bp), select(&bp));
    }

    #[test]
    fn explain_names_the_resolution_step() {
        assert_eq!(explain(&Blueprint::nn(4, 4, 4)).1, "model");
        let (plan, source) = explain(&Blueprint::nn(64, 288, 2048));
        assert_eq!(source, "model");
        assert_eq!(plan, select(&Blueprint::nn(64, 288, 2048)));
    }

    #[test]
    fn serial_budget_never_yields_a_threaded_plan() {
        for &(op, m, k, n) in autotune::PINNED_SHAPES {
            let bp = Blueprint {
                m,
                k,
                n,
                op,
                threads: 1,
            };
            assert_eq!(select(&bp).workers, 1, "{}x{}x{} {}", m, k, n, op.tag());
        }
    }

    #[test]
    fn wide_budget_goes_threaded_at_size() {
        let p = select(&Blueprint::nn(512, 512, 512).with_threads(8));
        assert!(p.workers > 1);
        assert!(p.describe().contains("threadedx"));
    }

    #[test]
    fn plan_workers_are_executable() {
        // Whatever the selector returns must already be clamped to the
        // shape's split capacity.
        for &(op, m, k, n) in autotune::PINNED_SHAPES {
            for budget in [1, 2, 4, 8] {
                let bp = Blueprint {
                    m,
                    k,
                    n,
                    op,
                    threads: budget,
                };
                let p = select(&bp);
                assert_eq!(
                    p.workers,
                    thread::effective_workers(&bp, p.workers),
                    "unexecutable plan for {}x{}x{}",
                    m,
                    k,
                    n
                );
            }
        }
    }

    #[test]
    fn skinny_reductions_get_a_supported_plan() {
        // Huge m and n over k = 2: far from every pinned shape.
        let bp = Blueprint::nn(4096, 2, 4096);
        assert!(select(&bp).routine.supports(&bp));
    }
}
