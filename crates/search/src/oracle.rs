//! The pinned small-grid oracle: a subset of the paper's Fig 17–20
//! space small enough to sweep exhaustively, used to prove the search
//! recovers the exact Pareto front while evaluating a fraction of the
//! grid.
//!
//! The grid is 72 scenarios (VGG-S × 4 mappings × {dense, paper-sparse}
//! × 3 architectures × 3 batch sizes) with a deliberately structured
//! landscape over the `[cycles, energy, area]` objective vector:
//!
//! * the bandwidth-starved 16×16 variant is strictly dominated by the
//!   stock 16×16 (same silicon, same access counts, more stall
//!   cycles) — a trap region the search should learn to leave;
//! * larger batches scale cycles and energy together at constant area,
//!   so the front lives at the smallest batch;
//! * the 32×32 array trades area for cycles against the 16×16, keeping
//!   both architectures (under their best mappings) on the front.
//!
//! The spec's seed/population/budget are **pinned**: the bench smoke
//! and the oracle tests assert that this exact configuration recovers
//! the exhaustive front while evaluating under 25 % of the grid,
//! byte-identically across thread counts. If
//! a model change legitimately moves the oracle landscape, re-tune the
//! pinned seed here and record why in the commit.

use procrustes_core::{SparsityGen, Sweep};
use procrustes_sim::{ArchConfig, Mapping};

use crate::objectives::Objective;
use crate::search::SearchSpec;

/// The pinned PRNG seed (see the module docs for the re-tuning policy).
pub const ORACLE_SEED: u64 = 3;

/// Evaluation budget of the pinned spec: under 25 % of the 72-point
/// grid.
pub const ORACLE_BUDGET: usize = 17;

/// The oracle grid as a sweep declaration (exhaustively buildable).
pub fn oracle_sweep() -> Sweep {
    // A 16×16 array behind a quarter-width GLB port and a single
    // 32-bit DRAM channel: identical silicon and access counts to the
    // stock 16×16, strictly more stall cycles.
    let starved = ArchConfig {
        glb_bw_words: 8,
        dram_bw_words: 2,
        ..ArchConfig::procrustes_16x16()
    };
    Sweep::new()
        .networks(["VGG-S"])
        .mappings(Mapping::ALL)
        .sparsities([SparsityGen::Dense, SparsityGen::PaperSynthetic { seed: 1 }])
        .arches([
            ArchConfig::procrustes_16x16(),
            ArchConfig::procrustes_32x32(),
            starved,
        ])
        .batches([2, 4, 8])
}

/// The pinned search spec over [`oracle_sweep`].
pub fn oracle_spec() -> SearchSpec {
    let mut spec = SearchSpec::new(oracle_sweep());
    spec.objectives = vec![Objective::Cycles, Objective::Energy, Objective::Area];
    spec.seed = ORACLE_SEED;
    spec.population = 8;
    spec.budget = ORACLE_BUDGET;
    spec.rungs = 2;
    spec
}
