//! The Procrustes system: the paper's contribution assembled over the
//! workspace substrates.
//!
//! This crate glues together the training algorithm
//! (`procrustes-dropback`) and the analytical accelerator model
//! (`procrustes-sim`) into the artifacts the paper evaluates:
//!
//! * [`arch`] — the layer-geometry tables of the paper's five full-size
//!   networks, one `LayerTask` per weight layer;
//! * [`MaskGenConfig`] / [`masks`] — synthetic Dropback-like sparsity
//!   masks for the paper's five full-size networks (see docs/PAPER_MAP.md "Substitutions" for
//!   the substitution rationale), plus extraction of *real* masks from
//!   trained `procrustes-nn` models;
//! * [`engine`] — the unified evaluation API: declarative [`Scenario`]s,
//!   cartesian [`Sweep`]s, and the parallel, memoizing [`Engine`] behind
//!   Figs 1 and 17–20;
//! * [`CoSim`] — functional co-simulation of the Procrustes trainer with
//!   the accelerator's bookkeeping units (QE admissions, imbalance before
//!   and after the simulator's half-tile balancing of §IV-C) over real
//!   training steps;
//! * [`report`] — the text-table/CSV emitters shared by the experiment
//!   harness.
//!
//! # Examples
//!
//! ```
//! use procrustes_core::{Engine, Scenario, SparsityGen};
//!
//! let engine = Engine::default();
//! let dense = engine.run(&Scenario::builder("VGG-S").build().unwrap()).unwrap();
//! let sparse = engine
//!     .run(
//!         &Scenario::builder("VGG-S")
//!             .sparsity(SparsityGen::PaperSynthetic { seed: 42 })
//!             .build()
//!             .unwrap(),
//!     )
//!     .unwrap();
//! let saving = sparse.energy_saving_over(&dense);
//! assert!(saving > 1.5, "sparse training must save energy ({saving:.2}x)");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod arch;
mod codec;
mod cosim;
pub mod engine;
pub mod json;
pub mod masks;
pub mod report;
mod scenario;
mod sweep;

pub use cosim::{CoSim, CoSimRecord};
pub use engine::{
    paper_sparsity_factor, resolve_network, Engine, EngineOpts, EvalResult, MemoStats, NetworkCost,
    Scenario, ScenarioBuilder, ScenarioError, SparsityGen, Sweep, SweepAxes, PAPER_NETWORKS,
};
pub use masks::MaskGenConfig;
// The execution-backend axis of `Scenario`/`Sweep`; defined next to the
// layers that dispatch on it, re-exported here for scenario authors.
pub use procrustes_nn::ComputeBackend;
// The latency-fidelity axis; defined next to the simulator that
// implements both models, re-exported here for scenario authors.
pub use procrustes_sim::Fidelity;

// Tests only: the simulator's half-tile pairing (it balances; this
// crate does not) on masks read through `masks::from_model`, checked
// against the CSB format's pointer queries.
#[cfg(test)]
mod balancer {
    mod tests;
}
