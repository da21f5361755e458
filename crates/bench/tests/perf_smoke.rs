//! `#[test]`-based performance guards for the evaluation engine: a
//! Fig 17–20-class sweep single- and multi-threaded, cold and warm, where
//! the parallel path must not be slower. Runs under plain `cargo test`;
//! the wall-clock assertions hold in optimized builds only.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use procrustes_core::{Engine, Fidelity, SparsityGen, Sweep, PAPER_NETWORKS};
use procrustes_sim::Mapping;

/// Held by each test for its whole run: both time the engine on the one
/// worker pool, so they must not overlap.
fn timing() -> MutexGuard<'static, ()> {
    static TIMING: Mutex<()> = Mutex::new(());
    TIMING.lock().unwrap_or_else(PoisonError::into_inner)
}

fn sweep_wall_clock(engine: &Engine, scenarios: &[procrustes_core::Scenario]) -> Duration {
    let start = Instant::now();
    let results = engine.run_all(scenarios).expect("sweep runs");
    assert_eq!(results.len(), scenarios.len());
    start.elapsed()
}

/// The satellite guard: a 20+-scenario sweep, serial vs parallel. On a
/// single-core machine the parallel path may pay a small scheduling tax
/// (bounded below); on ≥4 cores it must win outright.
#[test]
fn parallel_sweep_is_not_slower_than_serial() {
    let _timing = timing();
    let scenarios = Sweep::new()
        .networks(PAPER_NETWORKS)
        .mappings(Mapping::ALL)
        .sparsities([SparsityGen::Dense, SparsityGen::PaperSynthetic { seed: 2 }])
        .build()
        .expect("perf sweep is valid");
    assert!(
        scenarios.len() >= 20,
        "sweep too small to time meaningfully"
    );

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    // ≥4 threads even on small machines; fresh engines so both paths
    // start with a cold memoization cache.
    let threads = cores.max(4);
    let serial = sweep_wall_clock(&Engine::with_threads(1), &scenarios);
    let parallel = sweep_wall_clock(&Engine::with_threads(threads), &scenarios);

    println!("sweep wall clock: serial {serial:?}, parallel({threads}) {parallel:?}");

    // Wall-clock assertions only in optimized builds: the blocking CI
    // test job runs `cargo test` in debug mode, where timing is noise;
    // the non-blocking perf job runs `--release` and enforces these.
    if cfg!(debug_assertions) {
        return;
    }
    // Thread-pool overhead must stay in the noise even with one core
    // (measured ~4% there); any real slowdown is a regression. 25% slack
    // absorbs scheduler jitter on machines that cannot run workers
    // concurrently.
    let ceiling = serial + serial / 4;
    assert!(
        parallel <= ceiling,
        "parallel sweep {parallel:?} slower than serial {serial:?} (+25% ceiling {ceiling:?})"
    );
    if cores >= 4 {
        assert!(
            parallel < serial,
            "with {cores} cores the parallel sweep ({parallel:?}) must beat serial ({serial:?})"
        );
    }
}

/// The memo-lock guard: a warm pass of the Fig 17–20 grid (both
/// fidelities, 80 scenarios) is answered from the layer-cost cache alone,
/// so its workers only read the memo. With reads taken shared they run
/// side by side, and two or more workers must beat one; a lock that
/// serialises every lookup makes the parallel pass the slower one.
#[test]
fn warm_parallel_sweep_beats_serial() {
    if cfg!(debug_assertions) {
        return;
    }
    let _timing = timing();
    let scenarios = Sweep::new()
        .networks(PAPER_NETWORKS)
        .mappings(Mapping::ALL)
        .sparsities([SparsityGen::Dense, SparsityGen::PaperSynthetic { seed: 1 }])
        .fidelities(Fidelity::ALL)
        .build()
        .expect("figure grid is valid");
    assert_eq!(scenarios.len(), 80);

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let threads = cores.max(2);
    let engines = [Engine::with_threads(1), Engine::with_threads(threads)];
    for engine in &engines {
        sweep_wall_clock(engine, &scenarios); // the cold pass fills the memo
    }
    // Alternate the two engines pass by pass, so host drift falls on both.
    const PASSES: usize = 61;
    let mut times = [Vec::new(), Vec::new()];
    for _ in 0..PASSES {
        for (engine, times) in engines.iter().zip(&mut times) {
            times.push(sweep_wall_clock(engine, &scenarios));
        }
    }
    let [serial, parallel] = times.map(|mut t| {
        t.sort_unstable();
        t[PASSES / 2]
    });
    println!("warm pass, median of {PASSES}: serial {serial:?}, parallel({threads}) {parallel:?}");
    for engine in &engines {
        assert_eq!(
            engine.memo_stats().sets_resolved,
            10,
            "the warm passes resolved a set"
        );
    }
    if cores >= 2 {
        assert!(
            parallel < serial,
            "with {cores} cores the warm parallel pass ({parallel:?}) must beat serial ({serial:?})"
        );
    }
}
