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
//! # Claimed pieces
//!
//! A product's output is cut into pieces: up to `MAX_PIECES` (32) runs
//! of whole j-panels for a column split, one run of m-tiles per worker for
//! a row split (each row piece packs the whole rhs, so finer ones would
//! repack it). The cut, `chunk(bp, pieces, idx)`, is a pure function of
//! the shape. Who computes a piece is not: every worker takes the next
//! unclaimed piece from one shared counter until none is left, so a
//! helper that wakes late or runs slow just claims fewer, and the
//! caller never parks with work still unclaimed. Results do not depend
//! on the claim order — any disjoint partition gives the same bytes.
//!
//! Nor do allocations. Every piece of one product needs the same two
//! `KC × NR` rhs panels, and each worker takes them from its scratch
//! before it claims anything, so a worker's scratch sees the same sizes
//! whichever pieces it gets, none included; that is what lets the
//! counting-allocator tests pin zero steady-state allocations for the
//! threaded tier too.
//!
//! # The other two output splits
//!
//! Two kernels outside the GEMM split their output over the same pool
//! by the same rule — claimed pieces of a disjoint cut, no reduction
//! split — through [`run_split`]: the convolution weight update
//! (`conv2d_backward_weights_from_planes`) cuts its filter taps into
//! pieces of whole 8-tap tiles, and the CSB gather of
//! `procrustes-sparse` cuts its output into (sample, 8-row) pieces.
//! Both ask for the [`default_threads`] budget.
//!
//! # Dispatch
//!
//! The workers are the workspace's worker pool ([`crate::pool`]): the
//! caller runs pool index 0 with its own [`Scratch`], pool thread `w`
//! index `w` with the scratch it keeps, so packing buffers are reused
//! across products without cross-thread traffic; each index then claims
//! pieces until none is left. A worker reaches `dst` only through the
//! `SlabMut` view of a piece it claimed, which yields row segments
//! inside that piece and nothing else.

use super::blueprint::Blueprint;
use super::routine::{execute_slabs, Rhs, Slab, SlabDeal, MR, NR};
use crate::pool;
use crate::scratch::Scratch;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Hard ceiling on workers per job (including the calling thread);
/// budgets above it are clamped.
pub const MAX_WORKERS: usize = 8;

/// Most pieces one split cuts its output into: four per worker at
/// [`MAX_WORKERS`], and as many as [`SlabDeal`]'s claim mask holds.
pub(crate) const MAX_PIECES: usize = 32;

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

/// The pieces a threaded product's output is cut into: up to
/// [`MAX_PIECES`] runs of whole j-panels for a column split, where a
/// piece packs only its own panels; one run of m-tiles per worker for a
/// row split, where every piece packs the whole rhs.
pub(crate) fn pieces(bp: &Blueprint, workers: usize) -> usize {
    if split_rows(bp) {
        workers
    } else {
        units(bp).min(MAX_PIECES)
    }
}

/// Balanced partition of `units` units into `pieces`: piece `idx` is
/// the half-open unit range returned. The first `units % pieces` pieces
/// take one extra unit.
fn part(units: usize, pieces: usize, idx: usize) -> (usize, usize) {
    let base = units / pieces;
    let extra = units % pieces;
    let u0 = idx * base + idx.min(extra);
    (u0, u0 + base + usize::from(idx < extra))
}

/// The pieces a worker claims from `next`, the counter its job shares:
/// each call takes the next unclaimed one, until all `pieces` are out.
/// Every piece goes to exactly one worker, whichever asks first.
fn claims(next: &AtomicUsize, pieces: usize) -> impl Iterator<Item = usize> + '_ {
    // Relaxed is enough: the read-modify-write hands each number out
    // once whatever the ordering, and what a piece writes reaches the
    // caller through `pool::run`'s join.
    std::iter::from_fn(move || {
        let piece = next.fetch_add(1, Ordering::Relaxed);
        (piece < pieces).then_some(piece)
    })
}

/// Runs `f(items, slab)` once per piece of `dst`, an output of `items`
/// equal runs, on up to `workers` workers of the pool. `dst` is cut
/// into up to 32 pieces of whole `grain`s (the balanced
/// partition of the GEMM's column split, a pure function of `(items,
/// grain)`), and every worker claims the next unclaimed piece until
/// none is left, so a helper that starts late just computes fewer;
/// `slab` is the contiguous part of `dst` that holds the piece's items.
/// `workers` is clamped to `1..=`[`MAX_WORKERS`] and to the pieces.
///
/// Each slab reaches its worker through a `Mutex` on the caller's
/// stack, locked once, so the split needs neither `unsafe` nor a heap
/// allocation; a kernel that computes every item the way a serial loop
/// would gives the same bytes at every worker count and claim order.
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
/// // Five items of two elements, cut in grains of two for two workers.
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
    let pieces = grains.min(MAX_PIECES);
    let items_of = |piece: usize| {
        let (g0, g1) = part(grains, pieces, piece);
        (g0 * grain).min(items)..(g1 * grain).min(items)
    };
    let mut rest = dst;
    let slabs: [Mutex<&mut [f32]>; MAX_PIECES] = std::array::from_fn(|piece| {
        let len = if piece < pieces {
            items_of(piece).len() * run
        } else {
            0
        };
        let (slab, tail) = std::mem::take(&mut rest).split_at_mut(len);
        rest = tail;
        Mutex::new(slab)
    });
    let next = AtomicUsize::new(0);
    let workers = workers.clamp(1, MAX_WORKERS).min(pieces);
    pool::run(workers, scratch, &|_, _| {
        for piece in claims(&next, pieces) {
            let mut slab = slabs[piece]
                .lock()
                .expect("a slab is locked once, by the worker that claimed it");
            f(items_of(piece), &mut slab);
        }
    });
}

/// Piece `idx` of `bp`'s output cut into `pieces`. Pure in its
/// arguments; the pieces of one cut tile the output disjointly.
pub(crate) fn chunk(bp: &Blueprint, pieces: usize, idx: usize) -> Slab {
    debug_assert!(idx < pieces);
    if split_rows(bp) {
        let (u0, u1) = part(units(bp), pieces, idx);
        Slab {
            i0: (u0 * M_UNIT).min(bp.m),
            i1: (u1 * M_UNIT).min(bp.m),
            j0: 0,
            j1: bp.n,
        }
    } else {
        let (u0, u1) = part(units(bp), pieces, idx);
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
/// `dst` is cut into the [`pieces`] of a [`SlabDeal`], and every worker
/// claims the next unclaimed piece and runs the serial kernel on its
/// view until none is left — the caller with its own `scratch`, each
/// helper with the one it keeps — so a helper that wakes late leaves
/// its share to the others. [`pool::run`] returns once every worker has
/// finished, so on return `dst` is fully written; nested inside another
/// pool job (say an engine worker's) the caller claims every piece
/// itself, to the same bytes.
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
    let pieces = pieces(bp, workers);
    let deal = SlabDeal::new(bp, pieces, dst);
    let next = AtomicUsize::new(0);
    pool::run(workers, scratch, &|_, scratch| {
        let slabs = claims(&next, pieces).map(|piece| deal.claim(piece));
        execute_slabs(bp, slabs, lhs, rhs, scratch);
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

    /// Every item goes to exactly one piece, in order and in whole
    /// grains, with the slab that holds it, and every piece runs once:
    /// up to `MAX_PIECES` of them, however many workers claim them.
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
                    let pieces = items.div_ceil(grain).min(MAX_PIECES);
                    assert_eq!(seen.len(), pieces, "{what}");
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

    /// Records who claims each piece of a two-worker split whose helper
    /// is late: the helper's first claim waits until every other piece
    /// has been claimed, however long that takes (up to ten seconds, so
    /// a split that deals the helper a fixed share fails instead of
    /// hanging). The caller never waits, so with claimed pieces the
    /// outcome does not depend on timing.
    struct LateHelper {
        caller: std::thread::ThreadId,
        claimed: Vec<AtomicUsize>,
        by_caller: AtomicUsize,
        helper_started: std::sync::atomic::AtomicBool,
    }

    impl LateHelper {
        fn new(pieces: usize) -> Self {
            Self {
                caller: std::thread::current().id(),
                claimed: (0..pieces).map(|_| AtomicUsize::new(0)).collect(),
                by_caller: AtomicUsize::new(0),
                helper_started: Default::default(),
            }
        }

        /// Notes that the current thread claimed `piece`, stalling it
        /// first if it is the helper and this is its first claim.
        fn claim(&self, piece: usize) {
            if std::thread::current().id() == self.caller {
                self.by_caller.fetch_add(1, Ordering::SeqCst);
            } else if !self.helper_started.swap(true, Ordering::SeqCst) {
                let pieces = self.claimed.len();
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                while self.total() < pieces - 1 && std::time::Instant::now() < deadline {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
            self.claimed[piece].fetch_add(1, Ordering::SeqCst);
        }

        fn total(&self) -> usize {
            self.claimed.iter().map(|c| c.load(Ordering::SeqCst)).sum()
        }

        fn check(&self, what: &str) {
            let pieces = self.claimed.len();
            assert!(
                self.claimed.iter().all(|c| c.load(Ordering::SeqCst) == 1),
                "{what}: a piece ran other than once"
            );
            let by_caller = self.by_caller.load(Ordering::SeqCst);
            assert!(
                by_caller >= pieces - 1,
                "{what}: the caller ran {by_caller} of {pieces} pieces"
            );
        }
    }

    fn bitwise_eq(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// A helper that starts late on its first piece leaves every other
    /// piece to the caller, and the output is the serial one.
    #[test]
    fn a_late_helper_leaves_its_split_pieces_to_the_caller() {
        // One item per piece, so a piece is named by its item.
        let (items, run) = (MAX_PIECES, 3);
        let fill = |r: Range<usize>, slab: &mut [f32]| {
            for (item, out) in r.zip(slab.chunks_exact_mut(run)) {
                for (e, v) in out.iter_mut().enumerate() {
                    *v = (item * run + e) as f32 * 0.5;
                }
            }
        };
        let mut serial = vec![f32::NAN; items * run];
        run_split(1, items, 1, &mut serial, &mut Scratch::new(), &fill);
        let late = LateHelper::new(items);
        let mut split = vec![f32::NAN; items * run];
        run_split(2, items, 1, &mut split, &mut Scratch::new(), &|r, slab| {
            assert_eq!(r.len(), 1);
            late.claim(r.start);
            fill(r, slab);
        });
        late.check("run_split");
        assert!(bitwise_eq(&serial, &split), "run_split != serial");
    }

    /// The threaded GEMM's claim loop — [`run`]'s body, with the helper
    /// stalled on its first claim — over a column split of 32 pieces
    /// with a ragged last panel.
    #[test]
    fn a_late_helper_leaves_its_gemm_pieces_to_the_caller() {
        let bp = Blueprint::nn(16, 80, 32 * NR - 12);
        let lhs: Vec<f32> = (0..bp.lhs_len()).map(|i| (i as f32).sin()).collect();
        let rhs: Vec<f32> = (0..bp.rhs_len()).map(|i| (i as f32).cos()).collect();
        let mut scratch = Scratch::new();
        let mut serial = vec![f32::NAN; bp.m * bp.n];
        super::super::gemm(&bp, &mut serial, &lhs, &rhs, &mut scratch);
        let pieces = pieces(&bp, 2);
        assert_eq!(pieces, MAX_PIECES);
        let late = LateHelper::new(pieces);
        let mut threaded = vec![f32::NAN; bp.m * bp.n];
        let deal = SlabDeal::new(&bp, pieces, &mut threaded);
        let next = AtomicUsize::new(0);
        pool::run(2, &mut scratch, &|_, scratch| {
            let slabs = claims(&next, pieces).map(|piece| {
                late.claim(piece);
                deal.claim(piece)
            });
            execute_slabs(&bp, slabs, &lhs, Rhs::Slice(&rhs), scratch);
        });
        late.check("gemm");
        assert!(bitwise_eq(&serial, &threaded), "threaded gemm != serial");
    }
}
