//! Cost types produced by the model.

use std::ops::{Add, AddAssign};
use std::sync::Arc;

use crate::{Fidelity, Mapping, Phase};

/// Energy in joules, broken down by component — the stacked bars of the
/// paper's Figs 1 and 17 (DRAM / GLB / RF / MAC) plus the Procrustes
/// overhead units (QE, WR, balancer, mask decode).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Multiply-accumulate energy.
    pub mac_j: f64,
    /// Register-file energy.
    pub rf_j: f64,
    /// Global-buffer energy.
    pub glb_j: f64,
    /// DRAM energy.
    pub dram_j: f64,
    /// Procrustes-specific units: quantile estimator, weight recompute,
    /// load balancer, mask decode.
    pub overhead_j: f64,
}

impl EnergyBreakdown {
    /// Total energy in joules.
    pub fn total(&self) -> f64 {
        self.mac_j + self.rf_j + self.glb_j + self.dram_j + self.overhead_j
    }
}

impl Add for EnergyBreakdown {
    type Output = EnergyBreakdown;

    fn add(self, rhs: EnergyBreakdown) -> EnergyBreakdown {
        EnergyBreakdown {
            mac_j: self.mac_j + rhs.mac_j,
            rf_j: self.rf_j + rhs.rf_j,
            glb_j: self.glb_j + rhs.glb_j,
            dram_j: self.dram_j + rhs.dram_j,
            overhead_j: self.overhead_j + rhs.overhead_j,
        }
    }
}

impl AddAssign for EnergyBreakdown {
    fn add_assign(&mut self, rhs: EnergyBreakdown) {
        *self = *self + rhs;
    }
}

/// The evaluated cost of one layer × one phase under one mapping.
///
/// Its two heap fields are shared, not owned: a clone bumps two reference
/// counts and copies no name or overhead, so a memoized cost can be
/// handed out any number of times at the price of the plain fields.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerCost {
    /// Layer name (from the task); shared with every clone of this cost
    /// and, in a memoizing engine, with the layer's cache key.
    pub name: Arc<str>,
    /// Training phase evaluated.
    pub phase: Phase,
    /// Mapping used.
    pub mapping: Mapping,
    /// Latency model that produced [`LayerCost::cycles`].
    pub fidelity: Fidelity,
    /// MACs actually executed (sparse-aware).
    pub macs: u64,
    /// End-to-end cycles. Under [`Fidelity::Analytic`] this is
    /// `max(compute, GLB-bandwidth, DRAM-bandwidth)`; under
    /// [`Fidelity::TileTimed`] it is the wave-replayed finish time of the
    /// critical PE (never below the analytic bound).
    pub cycles: u64,
    /// Compute-bound cycles including load imbalance and utilization.
    pub compute_cycles: u64,
    /// Cycles implied by GLB bandwidth.
    pub glb_cycles: u64,
    /// Cycles implied by DRAM bandwidth.
    pub dram_cycles: u64,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// PE-array utilization against the *bounding* cycle count:
    /// `macs / (cycles × PEs)`, in `[0, 1]` — a bandwidth-bound layer
    /// reports the utilization of its real elapsed time, not of the
    /// shorter compute-only window.
    pub utilization: f64,
    /// Load-imbalance overhead of each full-PE-array working set
    /// (`max/mean − 1`; the data behind Figs 5 and 13). Collected only
    /// under [`Fidelity::TileTimed`] (empty otherwise), built once per
    /// computed cost and shared by every clone of it.
    pub wave_overheads: Arc<[f32]>,
    /// Words moved through the GLB.
    pub glb_words: u64,
    /// Words moved through DRAM.
    pub dram_words: u64,
}

/// Aggregated cost over many layers/phases.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CostSummary {
    /// Total energy.
    pub energy: EnergyBreakdown,
    /// Total cycles (layers execute back-to-back).
    pub cycles: u64,
    /// Total MACs.
    pub macs: u64,
}

impl CostSummary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one layer cost into the summary.
    pub fn accumulate(&mut self, cost: &LayerCost) {
        self.energy += cost.energy;
        self.cycles += cost.cycles;
        self.macs += cost.macs;
    }

    /// Total energy in joules.
    pub fn energy_j(&self) -> f64 {
        self.energy.total()
    }
}

impl<'a> FromIterator<&'a LayerCost> for CostSummary {
    fn from_iter<T: IntoIterator<Item = &'a LayerCost>>(iter: T) -> Self {
        let mut s = Self::new();
        for c in iter {
            s.accumulate(c);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(macs: u64, cycles: u64, mac_j: f64) -> LayerCost {
        LayerCost {
            name: "t".into(),
            phase: Phase::Forward,
            mapping: Mapping::KN,
            fidelity: Fidelity::Analytic,
            macs,
            cycles,
            compute_cycles: cycles,
            glb_cycles: 0,
            dram_cycles: 0,
            energy: EnergyBreakdown {
                mac_j,
                ..EnergyBreakdown::default()
            },
            utilization: 1.0,
            wave_overheads: Arc::from([0.1]),
            glb_words: 0,
            dram_words: 0,
        }
    }

    #[test]
    fn breakdown_total_sums_components() {
        let e = EnergyBreakdown {
            mac_j: 1.0,
            rf_j: 2.0,
            glb_j: 3.0,
            dram_j: 4.0,
            overhead_j: 0.5,
        };
        assert_eq!(e.total(), 10.5);
    }

    #[test]
    fn summary_accumulates() {
        let summary: CostSummary = [&cost(10, 5, 1.0), &cost(20, 7, 2.0)].into_iter().collect();
        assert_eq!(summary.macs, 30);
        assert_eq!(summary.cycles, 12);
        assert_eq!(summary.energy_j(), 3.0);
    }
}
