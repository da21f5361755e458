//! `procrustes-search` — seeded, deterministic Pareto design-space
//! search over the memoized
//! [`Engine`](procrustes_core::Engine).
//!
//! The paper's hardware conclusions come from exhaustive cartesian
//! sweeps, but the reproduction's axis space (mapping × arch × batch ×
//! sparsity × compute × fidelity) has grown to the point where a full
//! grid is millions of scenarios. This crate *searches* that space
//! instead of enumerating it, returning a Pareto front over a pluggable
//! objective vector — cycles, energy, and silicon area (the Table III
//! model in `procrustes-sim`):
//!
//! * [`SearchSpace`] — a [`Sweep`](procrustes_core::Sweep) declaration
//!   viewed as an indexable grid. Candidates are [`Genome`]s of
//!   per-axis indices; [`SearchSpace::scenario`] materializes exactly
//!   the scenario the sweep's own expansion would, so every result
//!   document a search produces is byte-identical to what the
//!   exhaustive sweep would emit for the same point.
//! * [`run_search`] — a successive-halving outer loop over a
//!   mutation/crossover inner loop, seeded via `procrustes-prng`
//!   ([`SplitMix64`](procrustes_prng::SplitMix64)). The control loop is
//!   single-threaded and all parallelism lives in the engine behind
//!   [`EngineBackend`], so population evolution is **independent of
//!   thread count**: the same spec yields the same evaluations, rounds,
//!   and front on a serial engine or a parallel one.
//! * [`ParetoFront`] — the dominance accumulator (minimization; equal
//!   vectors coexist), kept in a canonical order so fronts serialize
//!   byte-identically regardless of discovery order.
//! * Memoization-aware neighborhood: mutations are biased toward the
//!   axes (mapping, balance, fidelity, arch) that keep the per-layer
//!   task and sparsity fingerprints of the engine's cost-cache key
//!   intact, so a mutated neighbor shares its parent's entire
//!   workload-synthesis work and exact revisits are de-duplicated
//!   before they are ever scheduled.
//!
//! # Example
//!
//! ```
//! use procrustes_core::{Engine, Sweep, SparsityGen};
//! use procrustes_search::{run_search_on_engine, SearchSpec};
//! use procrustes_sim::Mapping;
//!
//! let mut spec = SearchSpec::new(
//!     Sweep::new()
//!         .networks(["VGG-S"])
//!         .mappings(Mapping::ALL)
//!         .sparsities([SparsityGen::Dense, SparsityGen::PaperSynthetic { seed: 1 }])
//!         .batches([2, 4]),
//! );
//! spec.population = 4;
//! spec.budget = 8;
//! let engine = Engine::default();
//! let outcome = run_search_on_engine(&spec, &engine, |round| {
//!     eprintln!("round {}: front size {}", round.round, round.front_size);
//! })
//! .unwrap();
//! assert!(outcome.evaluated <= 8 && !outcome.front.is_empty());
//! ```
//!
//! The same spec serializes to JSON ([`SearchSpec::to_json`], unknown
//! fields rejected on the way back in), so a spec can be kept in a file
//! and replayed.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod objectives;
pub mod oracle;
mod pareto;
mod search;
mod space;

pub use objectives::{measure, Objective};
pub use pareto::{dominates, Insert, ParetoFront, ParetoPoint};
pub use search::{
    exhaustive_front, run_search, run_search_on_engine, EngineBackend, RoundUpdate, SearchOutcome,
    SearchSpec,
};
pub use space::{Genome, SearchSpace, AXES};
