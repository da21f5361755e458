//! An analytical performance and energy model for 2-D PE-array DNN
//! training accelerators — the Timeloop/Accelergy-class substrate of the
//! Procrustes reproduction.
//!
//! The paper evaluates Procrustes with an extended Timeloop (latency,
//! mappings, load imbalance) plus Accelergy (per-access energies). This
//! crate implements the same class of model from scratch:
//!
//! * [`ArchConfig`] — the hardware of the paper's Table I: a `rows×cols`
//!   PE array with per-PE register files, a shared global buffer, a DRAM
//!   channel, and three simple interconnects (horizontal multicast,
//!   vertical collect, unicast);
//! * [`EnergyTable`] — per-access energy constants calibrated to 40/45 nm
//!   literature values (see `energy.rs` for the calibration note);
//! * [`LayerTask`] / [`SparsityInfo`] — one layer × one training phase of
//!   work, with per-kernel nonzero counts driving sparse MAC and traffic
//!   accounting;
//! * [`Mapping`] — the four spatial partitionings the paper compares
//!   (`C,K` / `C,N` / `K,N` / `P,Q`; Figs 3, 11, 18, 19) and their
//!   per-phase dataflow roles;
//! * [`BalanceMode`] — no balancing, Procrustes half-tile balancing
//!   (§IV-C), or the idealized perfect balance of Fig 1;
//! * [`evaluate_layer`] / [`evaluate_layer_with`] — the cost model:
//!   sparse-aware MAC counts, reuse-based RF/GLB/DRAM access counting
//!   with CSB format overheads, wave-by-wave latency with load
//!   imbalance, bandwidth bounds, and utilization;
//! * [`MaskSummary`] / [`evaluate_layer_summarized`] — one pass over a
//!   layer's per-kernel counts reduced to the per-row, per-column and
//!   per-tile view the cost model reads, so a caller costing one mask
//!   set many times (a sweep) reads it once;
//! * [`Fidelity`] — the latency model: `Analytic` (the closed-form
//!   `max(compute, GLB, DRAM)` bound) or `TileTimed` (the [`timing`]
//!   module's wave-by-wave replay of the actual tile schedule, with
//!   double-buffered GLB prefetch and per-wave burst serialization).
//!   The two agree on uniform compute-bound workloads; under skewed
//!   sparsity the replay exposes pipeline bubbles the closed form hides;
//! * [`area`] — the silicon area/power model behind the paper's
//!   Table III.
//!
//! # Examples
//!
//! ```
//! use procrustes_sim::{
//!     evaluate_layer, ArchConfig, BalanceMode, LayerTask, Mapping, Phase, SparsityInfo,
//! };
//!
//! // One VGG-ish conv layer, forward pass, batch 16.
//! let task = LayerTask::conv("conv3_1", 16, 128, 256, 8, 8, 3, 1, 1);
//! let arch = ArchConfig::procrustes_16x16();
//! let dense = SparsityInfo::dense(&task);
//! let cost = evaluate_layer(&arch, &task, Phase::Forward, Mapping::KN, &dense, BalanceMode::None);
//! assert_eq!(cost.macs, task.dense_macs(Phase::Forward));
//! assert!(cost.cycles > 0 && cost.energy.total() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod arch;
pub mod area;
mod balance;
mod cost;
mod energy;
mod fingerprint;
pub mod interconnect;
pub mod mapper;
mod mapping;
mod model;
mod summary;
pub mod timing;
mod workload;

pub use arch::ArchConfig;
pub use balance::{
    balanced_assignment, half_tile_pairs, imbalance_overhead, working_set_overheads,
};
pub use cost::{CostSummary, EnergyBreakdown, LayerCost};
pub use energy::EnergyTable;
pub use fingerprint::Fnv1a;
pub use mapping::{DataflowRole, Mapping, TensorFlow};
pub use model::{
    csb_words, evaluate_layer, evaluate_layer_summarized, evaluate_layer_with, BalanceMode,
};
pub use summary::MaskSummary;
pub use timing::{simulate_waves, Fidelity, TimingReport, Wave};
pub use workload::{LayerTask, Phase, SparsityInfo};
