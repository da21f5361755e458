//! The workspace's one worker pool: [`run`] calls a closure once per
//! worker index, on long-lived threads.
//!
//! Every compute fan-out goes through here — the threaded GEMM tier
//! ([`crate::kernel::thread`]) and `procrustes_core::Engine::run_all` —
//! so the process holds one set of helper threads however many kinds of
//! job it runs. The pool knows nothing about what a job computes: how
//! the work is cut is the caller's business, and a caller that makes it
//! a pure function of `(problem, workers, index)` gets the same bytes
//! wherever an index happens to execute.
//!
//! # Rules
//!
//! - **Static assignment.** The caller runs index 0 with the
//!   [`Scratch`] it passed in; pool thread `w` always runs index `w`,
//!   with a `Scratch` it keeps for life. A worker therefore sees the
//!   same buffer sizes dispatch after dispatch and allocates nothing
//!   once warm.
//! - **One job in flight.** A `run` that arrives while another is
//!   dispatched waits for it to finish. Helpers are spawned on first
//!   need and parked on a condvar between jobs; the pool puts no
//!   ceiling on `workers`.
//! - **Nesting runs inline.** A `run` called from inside a job — on the
//!   caller's thread or on a helper — executes all its indices in order
//!   on that thread, with that call's scratch. It never waits for the
//!   pool, so it cannot deadlock.
//! - **A panic neither hangs nor poisons.** Every index runs under
//!   `catch_unwind`. The caller always waits for every helper before it
//!   returns — nothing a job borrowed is freed under a running helper —
//!   and then re-raises the first recorded payload. No lock is held
//!   while user code runs, so none can be poisoned, and the pool serves
//!   the next job as if nothing had happened.

use crate::scratch::Scratch;
use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard};

/// What a job runs at each index.
type Task<'a> = &'a (dyn Fn(usize, &mut Scratch) + Sync);

struct State {
    /// Counts jobs: a helper takes part in a job at most once by
    /// remembering the last count it saw.
    seq: u64,
    /// The job in flight and its width; `None` between jobs.
    job: Option<(Task<'static>, usize)>,
    /// Helpers still inside the job in flight.
    pending: usize,
    /// The first panic a helper caught in the job in flight.
    panic: Option<Box<dyn Any + Send>>,
    /// Helper threads alive; helper `w` runs index `w`.
    spawned: usize,
}

struct Pool {
    state: Mutex<State>,
    /// Helpers park here between jobs.
    work: Condvar,
    /// The dispatching caller parks here until `pending == 0`.
    done: Condvar,
    /// Callers park here while another caller's job is in flight.
    free: Condvar,
}

static POOL: Pool = Pool {
    state: Mutex::new(State {
        seq: 0,
        job: None,
        pending: 0,
        panic: None,
        spawned: 0,
    }),
    work: Condvar::new(),
    done: Condvar::new(),
    free: Condvar::new(),
};

thread_local! {
    /// Whether this thread is executing an index of a job.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

const UNPOISONED: &str = "the pool holds no lock while user code runs";

impl Pool {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect(UNPOISONED)
    }
}

fn wait<'a>(cv: &Condvar, guard: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
    cv.wait(guard).expect(UNPOISONED)
}

/// Calls `f(index, scratch)` once for every index in `0..workers` and
/// returns when all have finished: index 0 on the calling thread with
/// the caller's `scratch`, index `w > 0` on pool thread `w` with that
/// thread's own. See the [module docs](self) for what queues, what
/// runs inline and what a panic does.
///
/// # Panics
///
/// Re-raises the first panic of any index, after every index has
/// finished or unwound. Panics if a helper thread cannot be spawned.
///
/// # Examples
///
/// ```
/// use procrustes_tensor::{pool, Scratch};
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// let sum = AtomicUsize::new(0);
/// pool::run(3, &mut Scratch::new(), &|index, _| {
///     sum.fetch_add(index + 1, Ordering::Relaxed);
/// });
/// assert_eq!(sum.into_inner(), 1 + 2 + 3);
/// ```
pub fn run(workers: usize, scratch: &mut Scratch, f: &(dyn Fn(usize, &mut Scratch) + Sync)) {
    if workers <= 1 || IN_JOB.get() {
        for index in 0..workers {
            f(index, scratch);
        }
        return;
    }
    // SAFETY: only the lifetime changes. The erased reference is read
    // by helpers that `pending` counts, and this function does not
    // return — by any path, the closure's panic included — before
    // `pending` is back to zero and the reference is cleared from the
    // pool, so every use of it happens while `f` is borrowed.
    #[allow(unsafe_code)]
    let task = unsafe { std::mem::transmute::<Task<'_>, Task<'static>>(f) };
    let pool = &POOL;
    let mut st = pool.lock();
    while st.job.is_some() {
        st = wait(&pool.free, st);
    }
    while st.spawned < workers - 1 {
        let index = st.spawned + 1;
        let spawned = std::thread::Builder::new()
            .name(format!("procrustes-pool-{index}"))
            .spawn(move || helper(index));
        if let Err(e) = spawned {
            drop(st);
            panic!("pool: failed to spawn helper {index}: {e}");
        }
        st.spawned = index;
    }
    st.job = Some((task, workers));
    st.pending = workers - 1;
    st.seq += 1;
    drop(st);
    pool.work.notify_all();

    IN_JOB.set(true);
    let own = catch_unwind(AssertUnwindSafe(|| f(0, scratch)));
    IN_JOB.set(false);

    let mut st = pool.lock();
    while st.pending != 0 {
        st = wait(&pool.done, st);
    }
    st.job = None;
    let helpers = st.panic.take();
    drop(st);
    pool.free.notify_one();
    if let Some(payload) = own.err().or(helpers) {
        resume_unwind(payload);
    }
}

/// Body of pool thread `index`: wait for a job it has not seen that is
/// wide enough to include it, run its index, report, repeat forever.
fn helper(index: usize) {
    // Whatever a job dispatches from this thread runs inline.
    IN_JOB.set(true);
    let pool = &POOL;
    let mut scratch = Scratch::new();
    let mut seen = 0u64;
    loop {
        let outcome = {
            let mut st = pool.lock();
            let task = loop {
                if st.seq > seen {
                    seen = st.seq;
                    if let Some((task, _)) = st.job.filter(|&(_, workers)| index < workers) {
                        break task;
                    }
                }
                st = wait(&pool.work, st);
            };
            drop(st);
            catch_unwind(AssertUnwindSafe(|| task(index, &mut scratch)))
        };
        let mut st = pool.lock();
        if let Err(payload) = outcome {
            st.panic.get_or_insert(payload);
        }
        st.pending -= 1;
        if st.pending == 0 {
            pool.done.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Runs a counting closure and returns how often each index ran.
    fn count(workers: usize) -> Vec<usize> {
        let ran: Vec<AtomicUsize> = (0..workers).map(|_| AtomicUsize::new(0)).collect();
        run(workers, &mut Scratch::new(), &|index, _| {
            ran[index].fetch_add(1, Ordering::SeqCst);
        });
        ran.into_iter().map(AtomicUsize::into_inner).collect()
    }

    #[test]
    fn every_index_runs_exactly_once() {
        for workers in [0, 1, 2, 5, 12] {
            assert_eq!(count(workers), vec![1; workers]);
        }
    }

    /// The thread each index of a `workers`-wide job runs on.
    fn threads_of(workers: usize) -> Vec<std::thread::ThreadId> {
        let ids = Mutex::new(vec![None; workers]);
        run(workers, &mut Scratch::new(), &|index, _| {
            ids.lock().unwrap()[index] = Some(std::thread::current().id());
        });
        let ids = ids.into_inner().unwrap();
        ids.into_iter().map(|id| id.expect("ran")).collect()
    }

    #[test]
    fn index_w_always_runs_on_pool_thread_w() {
        let wide = threads_of(4);
        assert_eq!(wide[0], std::thread::current().id());
        for round in 0..3 {
            assert_eq!(threads_of(4), wide, "round {round}");
            // A narrower job uses a prefix of the same threads.
            assert_eq!(threads_of(2), wide[..2], "round {round}");
        }
        let mut distinct = wide.clone();
        distinct.dedup();
        assert_eq!(distinct.len(), 4, "one thread per index");
    }

    #[test]
    fn a_panic_at_any_index_is_reraised_and_the_pool_survives() {
        for workers in 2..=4 {
            for bad in 0..workers {
                let finished: Vec<AtomicUsize> =
                    (0..workers).map(|_| AtomicUsize::new(0)).collect();
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    run(workers, &mut Scratch::new(), &|index, _| {
                        if index == bad {
                            panic!("index {index} of {workers}");
                        }
                        finished[index].fetch_add(1, Ordering::SeqCst);
                    })
                }));
                let payload = caught.expect_err("the panic must reach the caller");
                assert_eq!(
                    payload.downcast_ref::<String>().map(String::as_str),
                    Some(format!("index {bad} of {workers}").as_str())
                );
                for (index, done) in finished.iter().enumerate() {
                    assert_eq!(
                        done.load(Ordering::SeqCst),
                        usize::from(index != bad),
                        "index {index}, panic at {bad} of {workers}"
                    );
                }
                assert_eq!(count(workers), vec![1; workers], "pool unusable after");
            }
        }
    }

    #[test]
    fn nested_run_executes_inline_on_the_calling_worker() {
        let inner_runs = AtomicUsize::new(0);
        run(3, &mut Scratch::new(), &|outer, scratch| {
            let here = std::thread::current().id();
            let order = Mutex::new(Vec::new());
            run(4, scratch, &|inner, _| {
                assert_eq!(std::thread::current().id(), here, "outer index {outer}");
                order.lock().unwrap().push(inner);
                inner_runs.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(order.into_inner().unwrap(), [0, 1, 2, 3]);
        });
        assert_eq!(inner_runs.into_inner(), 12);
        // The caller's thread is outside a job again: it dispatches.
        let ids = threads_of(2);
        assert_ne!(ids[0], ids[1]);
    }
}
