//! Design-space search: find the cycles/energy/area Pareto front of a
//! mapping × architecture × batch grid without sweeping it exhaustively.
//!
//! The search is seeded and deterministic — the same spec produces the
//! same front byte for byte on any thread count — and rides the same
//! memoized `Engine` as every sweep. This example runs the pinned
//! small-grid oracle both ways (exhaustive and searched) and shows the
//! search recovering the exact front from a fraction of the grid.

use procrustes::core::Engine;
use procrustes::search::oracle::{oracle_spec, oracle_sweep};
use procrustes::search::{exhaustive_front, run_search_on_engine, EngineBackend, RoundUpdate};

fn main() {
    let engine = Engine::default();
    let spec = oracle_spec();
    let grid = oracle_sweep().cardinality();

    // Ground truth: sweep all scenarios and accumulate the front.
    let truth =
        exhaustive_front(&spec, &mut EngineBackend::new(&engine)).expect("exhaustive oracle sweep");
    println!(
        "exhaustive: {grid} scenarios -> {}-point front",
        truth.len()
    );

    // The search: same front, a fraction of the evaluations.
    let outcome = run_search_on_engine(&spec, &engine, print_round).expect("seeded search");
    println!(
        "search:     {} scenarios ({:.1} % of the grid) -> {}-point front",
        outcome.evaluated,
        100.0 * outcome.evaluated as f64 / grid as f64,
        outcome.front.len()
    );
    assert_eq!(
        outcome.front.to_json(),
        truth.to_json(),
        "the pinned oracle search recovers the exact exhaustive front"
    );
    for point in outcome.front.points() {
        println!(
            "  front member {:016x}: {:?}",
            point.fingerprint, point.objectives
        );
    }
}

/// The search's per-round callback: one line of progress per round.
fn print_round(round: &RoundUpdate) {
    println!(
        "  round {}: evaluated {} (+{} -{}), front size {}",
        round.round, round.evaluated, round.added, round.removed, round.front_size
    );
}
