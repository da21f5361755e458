//! The threaded tier: a small long-lived worker pool that splits one
//! GEMM's output across threads.
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
//! # Pool shape
//!
//! Workers are spawned lazily on first threaded dispatch and then live
//! for the process lifetime, parked on a condvar between jobs. Each
//! owns a private [`Scratch`] pool, so packing buffers are reused
//! across jobs without cross-thread traffic. A dispatch publishes one
//! job under a mutex, the caller computes chunk 0 itself (with its own
//! scratch), and the pool's remaining participants compute chunks
//! `1..workers`; a second mutex serializes concurrent dispatching
//! callers so at most one job is in flight.

use super::blueprint::Blueprint;
use super::routine::{execute_slab, Routine, Slab};
use crate::scratch::Scratch;
use std::sync::{Condvar, Mutex, OnceLock};

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

/// Row-split granularity: m is chunked in units of 8 rows (a full
/// register tile for every supported `mr`).
pub(crate) const M_UNIT: usize = 8;

/// Column-split granularity: n is chunked in units of 64 columns — a
/// multiple of every supported `nr`, so interior chunk boundaries never
/// create ragged packed panels.
pub(crate) const N_UNIT: usize = 64;

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

/// One published unit of work: the problem plus raw views of the
/// caller's buffers. Workers reconstruct slices from these pointers for
/// exactly the duration of the dispatch (see the safety argument on
/// [`run`]).
#[derive(Clone, Copy)]
struct Job {
    dst: *mut f32,
    dst_len: usize,
    lhs: *const f32,
    lhs_len: usize,
    rhs: *const f32,
    rhs_len: usize,
    bp: Blueprint,
    routine: Routine,
    workers: usize,
}

// SAFETY: a Job only crosses threads while the dispatching caller is
// blocked inside `run`, which keeps the borrows behind these pointers
// alive; workers write disjoint dst slabs (see `run`).
#[allow(unsafe_code)]
unsafe impl Send for Job {}

struct State {
    /// Monotone job counter: workers run a job at most once by
    /// comparing against the last sequence number they observed.
    seq: u64,
    job: Option<Job>,
    /// Helper workers still to finish the current job (the caller's own
    /// chunk is not counted).
    pending: usize,
}

struct Pool {
    state: Mutex<State>,
    /// Workers park here between jobs.
    work_cv: Condvar,
    /// The dispatching caller parks here until `pending == 0`.
    done_cv: Condvar,
    /// Serializes dispatching callers; holds the spawned-helper count.
    dispatch: Mutex<usize>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(State {
            seq: 0,
            job: None,
            pending: 0,
        }),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
        dispatch: Mutex::new(0),
    })
}

/// Executes the caller-side view of one chunk.
///
/// # Safety
///
/// `job`'s pointers must be live and sized as recorded, and no other
/// thread may touch the dst elements inside this chunk's slab for the
/// duration of the call. `run` upholds this: slabs of one job are
/// disjoint by construction and the caller's buffers outlive the
/// dispatch.
#[allow(unsafe_code)]
unsafe fn run_chunk(job: &Job, idx: usize, scratch: &mut Scratch) {
    // SAFETY: per the function contract — pointers live for the whole
    // dispatch, lengths as recorded at publication. The dst slice
    // nominally spans the full output, but this worker writes (and
    // reads) only the elements inside its disjoint slab.
    let dst = unsafe { std::slice::from_raw_parts_mut(job.dst, job.dst_len) };
    let lhs = unsafe { std::slice::from_raw_parts(job.lhs, job.lhs_len) };
    let rhs = unsafe { std::slice::from_raw_parts(job.rhs, job.rhs_len) };
    let slab = chunk(&job.bp, job.workers, idx);
    execute_slab(job.routine, &job.bp, dst, lhs, rhs, scratch, slab);
}

/// Helper-thread body: wait for a job with a fresh sequence number,
/// compute chunk `idx` if this worker participates, repeat forever.
fn worker_loop(idx: usize) {
    let p = pool();
    let mut scratch = Scratch::new();
    let mut last_seen = 0u64;
    loop {
        let job = {
            let mut st = p.state.lock().expect("kernel pool poisoned");
            loop {
                if st.seq > last_seen {
                    last_seen = st.seq;
                    if let Some(job) = st.job.filter(|j| idx < j.workers) {
                        break job;
                    }
                }
                st = p.work_cv.wait(st).expect("kernel pool poisoned");
            }
        };
        // SAFETY: the dispatching caller is blocked in `run` until this
        // worker decrements `pending` below, so the buffers behind the
        // job's pointers are live; slab disjointness per `chunk`.
        #[allow(unsafe_code)]
        unsafe {
            run_chunk(&job, idx, &mut scratch)
        };
        let mut st = p.state.lock().expect("kernel pool poisoned");
        st.pending -= 1;
        if st.pending == 0 {
            p.done_cv.notify_all();
        }
    }
}

/// Runs `routine` on `bp` across `workers` threads (the caller plus
/// `workers - 1` pool helpers), bitwise-identically to the serial tier.
///
/// The caller computes chunk 0 with its own `scratch` and blocks until
/// every helper finishes its chunk, so on return `dst` is fully
/// written and no worker retains a reference into the caller's
/// buffers. Helper threads are spawned on first use (the only
/// allocation this tier performs after its scratch pools are warm).
///
/// # Panics
///
/// Panics if `workers` exceeds what [`effective_workers`] allows for
/// `bp` — the selector never produces such a plan.
pub(crate) fn run(
    routine: Routine,
    bp: &Blueprint,
    workers: usize,
    dst: &mut [f32],
    lhs: &[f32],
    rhs: &[f32],
    scratch: &mut Scratch,
) {
    assert!(
        workers >= 2 && workers == effective_workers(bp, workers),
        "kernel: invalid worker count {workers} for {}x{}x{}",
        bp.m,
        bp.k,
        bp.n
    );
    assert_eq!(lhs.len(), bp.lhs_len(), "kernel: lhs length != m*k");
    assert_eq!(rhs.len(), bp.rhs_len(), "kernel: rhs length != k*n");
    assert_eq!(dst.len(), bp.m * bp.n, "kernel: dst length != m*n");
    let p = pool();
    // One job in flight at a time: concurrent callers queue here.
    let mut spawned = p.dispatch.lock().expect("kernel pool poisoned");
    while *spawned < workers - 1 {
        *spawned += 1;
        let idx = *spawned;
        std::thread::Builder::new()
            .name(format!("procrustes-kernel-{idx}"))
            .spawn(move || worker_loop(idx))
            .expect("kernel: failed to spawn pool worker");
    }
    let job = Job {
        dst: dst.as_mut_ptr(),
        dst_len: dst.len(),
        lhs: lhs.as_ptr(),
        lhs_len: lhs.len(),
        rhs: rhs.as_ptr(),
        rhs_len: rhs.len(),
        bp: *bp,
        routine,
        workers,
    };
    {
        let mut st = p.state.lock().expect("kernel pool poisoned");
        st.job = Some(job);
        st.pending = workers - 1;
        st.seq += 1;
        p.work_cv.notify_all();
    }
    // SAFETY: dst/lhs/rhs are borrowed for this whole call; chunk 0 is
    // disjoint from every helper's chunk.
    #[allow(unsafe_code)]
    unsafe {
        run_chunk(&job, 0, scratch)
    };
    let mut st = p.state.lock().expect("kernel pool poisoned");
    while st.pending != 0 {
        st = p.done_cv.wait(st).expect("kernel pool poisoned");
    }
    // Keep `spawned` (the dispatch guard) alive until the job fully
    // drained so the next caller cannot republish over a live job.
    drop(st);
    drop(spawned);
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

    #[test]
    fn threaded_run_matches_serial_bitwise() {
        let routine = Routine::Packed {
            mr: 2,
            nr: 64,
            kc: 128,
        };
        let bp = Blueprint::nn(48, 96, 640);
        let lhs: Vec<f32> = (0..bp.lhs_len()).map(|i| (i as f32).sin()).collect();
        let rhs: Vec<f32> = (0..bp.rhs_len()).map(|i| (i as f32).cos()).collect();
        let mut scratch = Scratch::new();
        let mut serial = vec![f32::NAN; bp.m * bp.n];
        super::super::routine::execute(routine, &bp, &mut serial, &lhs, &rhs, &mut scratch);
        for workers in 2..=4 {
            let mut threaded = vec![f32::NAN; bp.m * bp.n];
            run(
                routine,
                &bp,
                workers,
                &mut threaded,
                &lhs,
                &rhs,
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
