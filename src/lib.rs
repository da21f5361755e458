//! # Procrustes — sparse DNN training, end to end
//!
//! A from-scratch Rust reproduction of *“Procrustes: a Dataflow and
//! Accelerator for Sparse Deep Neural Network Training”* (MICRO 2020).
//!
//! This facade crate re-exports the whole workspace so applications can
//! depend on a single crate:
//!
//! * [`prng`] — deterministic xorshift generators (the WR unit's source);
//! * [`tensor`] — dense f32 tensors with conv/fc forward, backward, and
//!   weight-update kernels;
//! * [`sparse`] — the compressed sparse block (CSB) weight format and the
//!   sparse conv/fc compute kernels over CSRs encoded from the dense
//!   weights (work ∝ stored nonzeros, results bitwise-equal to the dense
//!   kernels);
//! * [`quantile`] — DUMIQUE streaming quantile estimation;
//! * [`nn`] — a small DNN training framework plus a tiny trainable
//!   variant of each paper network family; conv/fc layers dispatch
//!   between dense and CSB execution through a `ComputeBackend` knob;
//! * [`dropback`] — dense SGD, original Dropback, and the hardware-friendly
//!   Procrustes training algorithm;
//! * [`sim`] — the Timeloop/Accelergy-class accelerator model, with two
//!   latency fidelities: the closed-form analytic bound and a tile-timed
//!   wave simulator that replays the actual per-PE schedule;
//! * [`core`] — the Procrustes system: the paper's five full-size
//!   network geometries, load-balanced minibatch-spatial dataflows, mask
//!   synthesis, and the `Scenario`/`Sweep`/`Engine` evaluation API
//!   behind every paper figure;
//! * [`search`] — seeded, deterministic Pareto design-space search over
//!   the engine: successive halving over a mutation/crossover loop,
//!   pluggable cycles/energy/area objectives, and a memoization-aware
//!   neighborhood, with byte-identical fronts across thread counts;
//! * [`serve`] — the single-flight, cache-persistent evaluation daemon
//!   (`procrustes-serve`) and client (`procrustes-cli`) that expose the
//!   engine's `eval` and `sweep` over line-delimited JSON-over-TCP (a
//!   search runs in process, through [`search`]).
//!
//! # Quickstart
//!
//! ```
//! use procrustes::core::{Engine, Scenario, SparsityGen, Sweep};
//! use procrustes::sim::Mapping;
//!
//! // Evaluate one training iteration of VGG-S on a 16x16 accelerator,
//! // dense vs. Procrustes-sparse, with the paper's K,N dataflow. A
//! // Scenario is plain serializable data; the Engine evaluates it.
//! let engine = Engine::default();
//! let dense = engine
//!     .run(&Scenario::builder("VGG-S").mapping(Mapping::KN).build().unwrap())
//!     .unwrap();
//! let sparse = engine
//!     .run(
//!         &Scenario::builder("VGG-S")
//!             .mapping(Mapping::KN)
//!             .sparsity(SparsityGen::PaperSynthetic { seed: 42 })
//!             .build()
//!             .unwrap(),
//!     )
//!     .unwrap();
//! assert!(sparse.energy_saving_over(&dense) > 1.0);
//!
//! // Whole figure sweeps are one declaration, evaluated in parallel.
//! // Execution backend (dense vs CSB-compressed datapath) and latency
//! // fidelity (analytic bound vs tile-timed wave replay) are
//! // first-class axes, like mapping or sparsity:
//! use procrustes::core::{ComputeBackend, Fidelity};
//! let scenarios = Sweep::new()
//!     .networks(["VGG-S", "ResNet18"])
//!     .mappings(Mapping::ALL)
//!     .sparsities([SparsityGen::Dense, SparsityGen::PaperSynthetic { seed: 42 }])
//!     .computes([ComputeBackend::Dense, ComputeBackend::Csb])
//!     .fidelities(Fidelity::ALL)
//!     .build()
//!     .unwrap();
//! let results = engine.run_all(&scenarios).unwrap();
//! assert_eq!(results.len(), 64);
//! ```

pub use procrustes_core as core;
pub use procrustes_dropback as dropback;
pub use procrustes_nn as nn;
pub use procrustes_prng as prng;
pub use procrustes_quantile as quantile;
pub use procrustes_search as search;
pub use procrustes_serve as serve;
pub use procrustes_sim as sim;
pub use procrustes_sparse as sparse;
pub use procrustes_tensor as tensor;
