//! The threaded tier: splits one GEMM's output across the workers of
//! the pool.
//!
//! # Why splitting the output preserves bitwise equality
//!
//! The kernel contract (see [`crate::kernel`]) fixes each output
//! element's reduction: ascending `p`, sequential, starting from `0.0`.
//! This tier partitions the *output space* — disjoint
//! `Slab`s of j-panels (or m-tiles for wide-m /
//! narrow-n shapes like the fc weight-update `Tn` problems) — and runs
//! the ordinary serial kernel on each slab. No reduction is ever split
//! across workers, so there is no cross-lane combine step whose order
//! could vary: every element's float sequence is *identical* to the
//! serial tier's, at every worker count, by construction. (Kraken's PE
//! partitioning motivates the same shape of split in hardware.)
//!
//! # Determinism of the partition
//!
//! Chunk assignment is **static**: worker `w` of a `workers`-wide job
//! always computes chunk `w` of that blueprint, and `chunk` is a pure
//! function of `(blueprint, workers, w)`. Results do not depend on this
//! (any disjoint partition gives the same bytes), but static assignment
//! makes each worker's scratch *warm sizes* reproducible, which is what
//! lets the counting-allocator test pin zero steady-state allocations
//! for the threaded tier too.
//!
//! # The other two output splits
//!
//! Two kernels outside the GEMM split their output over the same pool
//! by the same rule — a static, disjoint cut, no reduction split —
//! through [`run_split`]: the convolution weight update
//! (`conv2d_backward_weights_from_planes`) deals its filter taps to the
//! workers in whole 8-tap tiles, and the CSB gather of
//! `procrustes-sparse` deals whole samples. Both ask for the
//! [`default_threads`] budget.
//!
//! # Dispatch
//!
//! The chunks go to the workspace's worker pool ([`crate::pool`]): the
//! caller computes chunk 0 with its own [`Scratch`], pool thread `w`
//! chunk `w` with the scratch it keeps, so packing buffers are reused
//! across products without cross-thread traffic. Each worker reaches
//! `dst` only through the `SlabMut` view of its own chunk, which
//! yields row segments inside that chunk and nothing else.

use super::blueprint::Blueprint;
use super::routine::{execute_slab, Rhs, Slab, SlabDeal, MR, NR};
use crate::pool;
use crate::scratch::Scratch;
use std::ops::Range;
use std::sync::{Mutex, OnceLock};

/// Hard ceiling on workers per job (including the calling thread);
/// budgets above it are clamped.
pub const MAX_WORKERS: usize = 8;

/// Environment variable overriding [`default_threads`] — CI pins a
/// non-default worker count through it to catch thread-count-sensitive
/// regressions (there should be none: results are bitwise-equal at
/// every count).
pub const THREADS_ENV: &str = "PROCRUSTES_KERNEL_THREADS";

/// The worker budget hot-path callers grant the selector: the
/// [`THREADS_ENV`] override if set, else the machine's available
/// parallelism, clamped to `1..=`[`MAX_WORKERS`]. Cached after the
/// first call.
///
/// # Panics
///
/// Panics if [`THREADS_ENV`] is set to something other than an
/// unsigned integer or the empty string.
pub fn default_threads() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| {
        let host = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        parse_threads(std::env::var(THREADS_ENV).ok().as_deref(), host)
    })
}

/// [`default_threads`] without the environment: `var` is the override's
/// value if set, `host` the machine's parallelism. Empty counts as
/// unset (CI's default-budget legs pass `""`); anything else that is
/// not an integer panics rather than silently testing the host budget.
fn parse_threads(var: Option<&str>, host: usize) -> usize {
    let budget = match var {
        None | Some("") => host,
        Some(v) => v
            .parse::<usize>()
            .unwrap_or_else(|_| panic!("{THREADS_ENV}={v:?} is not a worker count")),
    };
    budget.clamp(1, MAX_WORKERS)
}

/// Row-split granularity: m is chunked in units of 8 rows, four
/// [`MR`]-row register tiles, so interior chunk boundaries never create
/// ragged rows.
pub(crate) const M_UNIT: usize = 4 * MR;

/// Column-split granularity: n is chunked in units of one [`NR`]-wide
/// packed panel, so interior chunk boundaries never create ragged
/// panels.
pub(crate) const N_UNIT: usize = NR;

/// Whether this shape splits by rows (m-tiles) instead of columns
/// (j-panels): wide-m / narrow-n problems — the fc weight-update `Tn`
/// shapes — have too few column units to feed the pool.
pub(crate) fn split_rows(bp: &Blueprint) -> bool {
    bp.m >= 2 * bp.n
}

/// The number of split units the shape offers along its split axis.
fn units(bp: &Blueprint) -> usize {
    if split_rows(bp) {
        bp.m.div_ceil(M_UNIT)
    } else {
        bp.n.div_ceil(N_UNIT)
    }
}

/// Clamps a worker budget to what the shape can actually feed: at most
/// [`MAX_WORKERS`], and at most one worker per split unit so no chunk
/// is empty. A result of 1 means the problem stays serial.
pub fn effective_workers(bp: &Blueprint, budget: usize) -> usize {
    budget.min(MAX_WORKERS).min(units(bp).max(1)).max(1)
}

/// Balanced partition of `units` units across `workers`: worker `idx`
/// gets the half-open unit range returned. The first `units % workers`
/// workers take one extra unit.
fn part(units: usize, workers: usize, idx: usize) -> (usize, usize) {
    let base = units / workers;
    let extra = units % workers;
    let u0 = idx * base + idx.min(extra);
    (u0, u0 + base + usize::from(idx < extra))
}

/// Runs `f(items, slab)` once per worker of a pool job over `dst`, an
/// output of `items` equal runs: worker `idx` computes the items of a
/// static cut in whole `grain`s (the same balanced partition as the
/// GEMM's chunks, a pure function of `(items, grain, workers, idx)`)
/// into `slab`, the contiguous part of `dst` that holds them. `workers`
/// is clamped to `1..=`[`MAX_WORKERS`] and to the grains there are.
///
/// Each slab reaches its worker through a `Mutex` on the caller's
/// stack, locked once, so the split needs neither `unsafe` nor a heap
/// allocation; a kernel that computes every item the way a serial loop
/// would gives the same bytes at every worker count.
///
/// # Panics
///
/// Panics if `items` or `grain` is zero or `dst.len()` is not a
/// multiple of `items`; re-raises a panic of `f`.
///
/// # Examples
///
/// ```
/// use procrustes_tensor::kernel::thread::run_split;
/// use procrustes_tensor::Scratch;
/// // Five items of two elements, dealt to two workers in grains of two.
/// let mut dst = [0.0f32; 10];
/// run_split(2, 5, 2, &mut dst, &mut Scratch::new(), &|items, slab| {
///     for (item, run) in items.zip(slab.chunks_exact_mut(2)) {
///         run.fill(item as f32);
///     }
/// });
/// assert_eq!(dst, [0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0]);
/// ```
pub fn run_split(
    workers: usize,
    items: usize,
    grain: usize,
    dst: &mut [f32],
    scratch: &mut Scratch,
    f: &(dyn Fn(Range<usize>, &mut [f32]) + Sync),
) {
    assert!(
        items > 0 && grain > 0 && dst.len() % items == 0,
        "kernel: cannot split {} elements into {items} items in grains of {grain}",
        dst.len()
    );
    let run = dst.len() / items;
    let grains = items.div_ceil(grain);
    let workers = workers.clamp(1, MAX_WORKERS).min(grains);
    let items_of = |idx: usize| {
        let (g0, g1) = part(grains, workers, idx);
        (g0 * grain).min(items)..(g1 * grain).min(items)
    };
    let mut rest = dst;
    let slabs: [Mutex<&mut [f32]>; MAX_WORKERS] = std::array::from_fn(|idx| {
        let len = if idx < workers {
            items_of(idx).len() * run
        } else {
            0
        };
        let (slab, tail) = std::mem::take(&mut rest).split_at_mut(len);
        rest = tail;
        Mutex::new(slab)
    });
    pool::run(workers, scratch, &|idx, _| {
        let mut slab = slabs[idx]
            .lock()
            .expect("a slab is locked once, by its own worker");
        f(items_of(idx), &mut slab);
    });
}

/// The output slab worker `idx` of a `workers`-wide job computes. Pure
/// in its arguments; chunks of one job tile the output disjointly.
pub(crate) fn chunk(bp: &Blueprint, workers: usize, idx: usize) -> Slab {
    debug_assert!(idx < workers);
    if split_rows(bp) {
        let (u0, u1) = part(units(bp), workers, idx);
        Slab {
            i0: (u0 * M_UNIT).min(bp.m),
            i1: (u1 * M_UNIT).min(bp.m),
            j0: 0,
            j1: bp.n,
        }
    } else {
        let (u0, u1) = part(units(bp), workers, idx);
        Slab {
            i0: 0,
            i1: bp.m,
            j0: (u0 * N_UNIT).min(bp.n),
            j1: (u1 * N_UNIT).min(bp.n),
        }
    }
}

/// Runs the packed kernel on `bp` across `workers` threads (the caller plus
/// `workers - 1` pool helpers), bitwise-identically to the serial tier.
///
/// Worker `idx` claims the view of chunk `idx` from a [`SlabDeal`] over
/// `dst` and runs the serial kernel on it — the caller with its own
/// `scratch`, each helper with the one it keeps. [`pool::run`] returns
/// once every worker has finished, so on return `dst` is fully written;
/// nested inside another pool job (say an engine worker's) the chunks
/// run one after another on the calling thread, to the same bytes.
///
/// # Panics
///
/// Panics if `workers` exceeds what [`effective_workers`] allows for
/// `bp` — the selector never produces such a plan — or if a slice
/// length disagrees with the blueprint.
pub(crate) fn run(
    bp: &Blueprint,
    workers: usize,
    dst: &mut [f32],
    lhs: &[f32],
    rhs: Rhs<'_>,
    scratch: &mut Scratch,
) {
    assert!(
        workers >= 2 && workers == effective_workers(bp, workers),
        "kernel: invalid worker count {workers} for {}x{}x{}",
        bp.m,
        bp.k,
        bp.n
    );
    let deal = SlabDeal::new(bp, workers, dst);
    pool::run(workers, scratch, &|idx, scratch| {
        execute_slab(bp, deal.claim(idx), lhs, rhs, scratch);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_override_is_parsed_strictly() {
        assert_eq!(parse_threads(None, 2), 2);
        assert_eq!(parse_threads(Some(""), 2), 2);
        assert_eq!(parse_threads(Some("3"), 2), 3);
        assert_eq!(parse_threads(Some("0"), 2), 1);
        assert_eq!(parse_threads(Some("64"), 2), MAX_WORKERS);
        assert_eq!(parse_threads(None, 64), MAX_WORKERS);
        for bad in ["four", "3 ", "-1"] {
            let caught = std::panic::catch_unwind(|| parse_threads(Some(bad), 2));
            assert!(caught.is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn chunks_tile_the_output_disjointly() {
        for &(m, n) in &[(64, 2048), (512, 64), (1, 300), (100, 100), (7, 65)] {
            let bp = Blueprint::nn(m, 128, n);
            for workers in 1..=MAX_WORKERS {
                let w = effective_workers(&bp, workers);
                let mut covered = vec![0u8; m * n];
                for idx in 0..w {
                    let s = chunk(&bp, w, idx);
                    for i in s.i0..s.i1 {
                        for j in s.j0..s.j1 {
                            covered[i * n + j] += 1;
                        }
                    }
                }
                assert!(
                    covered.iter().all(|&c| c == 1),
                    "m={m} n={n} workers={w}: output not tiled exactly once"
                );
            }
        }
    }

    #[test]
    fn wide_m_narrow_n_splits_rows() {
        let dw = Blueprint::tn(512, 64, 64);
        assert!(split_rows(&dw));
        let s = chunk(&dw, 4, 1);
        assert_eq!((s.j0, s.j1), (0, 64), "row split keeps full columns");
        let fwd = Blueprint::nn(64, 64, 512);
        assert!(!split_rows(&fwd));
        let s = chunk(&fwd, 4, 1);
        assert_eq!((s.i0, s.i1), (0, 64), "column split keeps full rows");
    }

    #[test]
    fn effective_workers_clamps_to_units_and_ceiling() {
        // 100 columns = 2 units of 64 → at most 2 workers.
        assert_eq!(effective_workers(&Blueprint::nn(4, 4, 100), 8), 2);
        // Degenerate output: stays serial.
        assert_eq!(effective_workers(&Blueprint::nn(0, 4, 0), 8), 1);
        assert_eq!(
            effective_workers(&Blueprint::nn(4096, 4, 4096), 64),
            MAX_WORKERS
        );
        assert_eq!(effective_workers(&Blueprint::nn(4096, 4, 4096), 0), 1);
    }

    #[test]
    fn chunk_is_static_per_worker() {
        // The same (blueprint, workers, idx) always yields the same
        // slab — the property the alloc test's warm-size argument needs.
        let bp = Blueprint::nn(256, 256, 1024);
        for idx in 0..4 {
            assert_eq!(chunk(&bp, 4, idx), chunk(&bp, 4, idx));
        }
    }

    /// Every item goes to exactly one worker, in order and in whole
    /// grains, with the slab that holds it; a budget past the grains
    /// leaves the extra workers out.
    #[test]
    fn split_slabs_tile_the_items_in_whole_grains() {
        for items in [1, 3, 8, 27, 144, 577] {
            for grain in [1, 8] {
                for workers in 1..=MAX_WORKERS + 1 {
                    let mut dst = vec![f32::NAN; items * 2];
                    let seen = Mutex::new(Vec::new());
                    run_split(
                        workers,
                        items,
                        grain,
                        &mut dst,
                        &mut Scratch::new(),
                        &|r, slab| {
                            assert_eq!(slab.len(), r.len() * 2);
                            slab.fill(r.start as f32);
                            seen.lock().unwrap().push(r);
                        },
                    );
                    let mut seen = seen.into_inner().unwrap();
                    seen.sort_by_key(|r| r.start);
                    let what = format!("{items} items, grain {grain}, {workers} workers");
                    let dealt = workers.min(MAX_WORKERS).min(items.div_ceil(grain));
                    assert_eq!(seen.len(), dealt, "{what}");
                    let mut next = 0;
                    for r in &seen {
                        assert_eq!(r.start, next, "{what}");
                        assert!(r.start % grain == 0 && !r.is_empty(), "{what}");
                        let start = r.start as f32;
                        assert!(dst[r.start * 2..r.end * 2].iter().all(|&v| v == start));
                        next = r.end;
                    }
                    assert_eq!(next, items, "{what}");
                }
            }
        }
    }

    #[test]
    fn threaded_run_matches_serial_bitwise() {
        let bp = Blueprint::nn(48, 96, 640);
        let lhs: Vec<f32> = (0..bp.lhs_len()).map(|i| (i as f32).sin()).collect();
        let rhs: Vec<f32> = (0..bp.rhs_len()).map(|i| (i as f32).cos()).collect();
        let mut scratch = Scratch::new();
        let mut serial = vec![f32::NAN; bp.m * bp.n];
        super::super::gemm(&bp, &mut serial, &lhs, &rhs, &mut scratch);
        for workers in 2..=4 {
            let mut threaded = vec![f32::NAN; bp.m * bp.n];
            run(
                &bp,
                workers,
                &mut threaded,
                &lhs,
                Rhs::Slice(&rhs),
                &mut scratch,
            );
            assert!(
                serial
                    .iter()
                    .zip(&threaded)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "threaded ({workers}) != serial"
            );
        }
    }
}
