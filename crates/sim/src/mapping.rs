//! Spatial mappings and their per-phase dataflows (Figs 3 and 11).
//!
//! A mapping names the two loop dimensions distributed across the PE
//! array during the *forward* pass; the backward and weight-update passes
//! reuse the same physical flows with different tensors (the tables in
//! Figs 3 and 11). The key Procrustes insight (§IV-C): mappings that
//! spatialize the minibatch dimension (`C,N` and `K,N`) confine weight
//! sparsity to one array dimension, so half-tile load balancing preserves
//! the simple three-interconnect topology.

use crate::{LayerTask, Phase};

/// How one tensor moves between the GLB and the PE array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TensorFlow {
    /// Broadcast along a row (one GLB read feeds `cols` PEs).
    MulticastH,
    /// Broadcast along a column (one GLB read feeds `rows` PEs).
    MulticastV,
    /// Point-to-point to a single PE.
    Unicast,
    /// Collected/reduced along a column into one GLB write per column.
    CollectV,
    /// Collected/reduced along a row.
    CollectH,
}

/// The three operand flows of one phase under one mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DataflowRole {
    /// Flow of the (possibly sparse) weight-like operand.
    pub weights: TensorFlow,
    /// Flow of the activation-like input operand.
    pub inputs: TensorFlow,
    /// Flow of the output/psum operand.
    pub outputs: TensorFlow,
}

/// The spatial partitioning schemes of the paper's evaluation (Fig 18/19).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mapping {
    /// Weight-stationary `C,K` (Fig 3): both spatial dims are sparse;
    /// load balancing requires a complex interconnect.
    CK,
    /// Minibatch-spatial `C,N` (Fig 11 family).
    CN,
    /// Minibatch-spatial `K,N` — the mapping Procrustes selects (§VI-D).
    KN,
    /// Activation-stationary `P,Q` (SCNN-style).
    PQ,
}

impl Mapping {
    /// All four schemes in the paper's figure order.
    pub const ALL: [Mapping; 4] = [Mapping::PQ, Mapping::CK, Mapping::CN, Mapping::KN];

    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Mapping::CK => "CK",
            Mapping::CN => "CN",
            Mapping::KN => "KN",
            Mapping::PQ => "PQ",
        }
    }

    /// True if load-balancing this mapping requires the complex
    /// interconnect of §IV-C Fig 10 (both spatial dimensions sparse).
    pub fn balance_needs_complex_interconnect(&self) -> bool {
        matches!(self, Mapping::CK)
    }

    /// The spatial extents `(rows_dim, cols_dim)` of `task` under this
    /// mapping for `phase`.
    ///
    /// Row/column assignments follow Figs 3 and 11: for `K,N` the sparse
    /// tensor dimension (output channels in fw/wu, input channels in bw)
    /// spans the rows and the minibatch spans the columns; `C,K` keeps the
    /// channel grid in all phases; `P,Q` spatializes the output map of the
    /// phase.
    pub fn spatial_extents(&self, task: &LayerTask, phase: Phase) -> (usize, usize) {
        match (self, phase) {
            (Mapping::KN, Phase::Forward | Phase::WeightUpdate) => (task.k, task.batch),
            (Mapping::KN, Phase::Backward) => (task.c, task.batch),
            (Mapping::CN, Phase::Forward | Phase::WeightUpdate) => (task.c, task.batch),
            (Mapping::CN, Phase::Backward) => (task.k, task.batch),
            (Mapping::CK, _) => (task.c, task.k),
            (Mapping::PQ, Phase::Forward | Phase::WeightUpdate) => (task.p, task.q),
            (Mapping::PQ, Phase::Backward) => (task.h, task.w),
        }
    }

    /// The operand flows for `phase` (the tables of Figs 3 and 11).
    pub fn roles(&self, phase: Phase) -> DataflowRole {
        match self {
            // K,N / C,N (Fig 11): weights multicast along the minibatch
            // (horizontal), inputs multicast vertically, outputs unicast.
            Mapping::KN | Mapping::CN => match phase {
                Phase::Forward | Phase::Backward => DataflowRole {
                    weights: TensorFlow::MulticastH,
                    inputs: TensorFlow::MulticastV,
                    outputs: TensorFlow::Unicast,
                },
                // wu: ∂L/∂w collected horizontally (reduced over the
                // minibatch), x multicast vertically, ∂L/∂y unicast.
                Phase::WeightUpdate => DataflowRole {
                    weights: TensorFlow::CollectH,
                    inputs: TensorFlow::MulticastV,
                    outputs: TensorFlow::Unicast,
                },
            },
            // C,K (Fig 3): weights unicast, iacts multicast horizontally,
            // psums collected vertically.
            Mapping::CK => DataflowRole {
                weights: TensorFlow::Unicast,
                inputs: TensorFlow::MulticastH,
                outputs: TensorFlow::CollectV,
            },
            // P,Q: input-stationary; weights broadcast to all PEs (model
            // as row multicast + column multicast ≈ H), inputs unicast
            // (stationary per PE), outputs collected.
            Mapping::PQ => DataflowRole {
                weights: TensorFlow::MulticastH,
                inputs: TensorFlow::Unicast,
                outputs: TensorFlow::CollectV,
            },
        }
    }

    /// True if, in `phase`, per-PE work varies along the *row* dimension
    /// due to weight sparsity (the imbalance the half-tile balancer
    /// fixes). `C,K` varies along both; `P,Q` not at all.
    pub fn row_work_is_weight_sparse(&self, phase: Phase) -> bool {
        match self {
            Mapping::KN | Mapping::CN => matches!(phase, Phase::Forward | Phase::Backward),
            Mapping::CK => true,
            Mapping::PQ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task() -> LayerTask {
        LayerTask::conv("t", 16, 64, 128, 28, 28, 3, 1, 1)
    }

    #[test]
    fn kn_spatializes_minibatch() {
        let t = task();
        assert_eq!(Mapping::KN.spatial_extents(&t, Phase::Forward), (128, 16));
        assert_eq!(Mapping::KN.spatial_extents(&t, Phase::Backward), (64, 16));
        // K,N spreads the minibatch across the columns in every phase; P,Q never does.
        let batch_cols = |m: Mapping| {
            Phase::ALL
                .iter()
                .all(|&p| m.spatial_extents(&t, p).1 == t.batch)
        };
        assert!(batch_cols(Mapping::KN));
        assert!(!batch_cols(Mapping::PQ));
    }

    #[test]
    fn ck_keeps_channel_grid_in_all_phases() {
        let t = task();
        for phase in Phase::ALL {
            assert_eq!(Mapping::CK.spatial_extents(&t, phase), (64, 128));
        }
        assert!(Mapping::CK.balance_needs_complex_interconnect());
    }

    #[test]
    fn pq_uses_output_map() {
        let t = task();
        assert_eq!(Mapping::PQ.spatial_extents(&t, Phase::Forward), (28, 28));
        assert_eq!(Mapping::PQ.spatial_extents(&t, Phase::Backward), (28, 28));
    }

    #[test]
    fn fig11_roles_for_kn() {
        let fw = Mapping::KN.roles(Phase::Forward);
        assert_eq!(fw.weights, TensorFlow::MulticastH);
        assert_eq!(fw.inputs, TensorFlow::MulticastV);
        assert_eq!(fw.outputs, TensorFlow::Unicast);
        let wu = Mapping::KN.roles(Phase::WeightUpdate);
        assert_eq!(wu.weights, TensorFlow::CollectH);
    }

    #[test]
    fn fig3_roles_for_ck() {
        let fw = Mapping::CK.roles(Phase::Forward);
        assert_eq!(fw.weights, TensorFlow::Unicast);
        assert_eq!(fw.inputs, TensorFlow::MulticastH);
        assert_eq!(fw.outputs, TensorFlow::CollectV);
    }

    #[test]
    fn pq_has_no_weight_imbalance() {
        assert!(!Mapping::PQ.row_work_is_weight_sparse(Phase::Forward));
        assert!(Mapping::KN.row_work_is_weight_sparse(Phase::Forward));
        assert!(!Mapping::KN.row_work_is_weight_sparse(Phase::WeightUpdate));
        assert!(Mapping::CK.row_work_is_weight_sparse(Phase::WeightUpdate));
    }
}
