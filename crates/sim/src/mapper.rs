//! Register-file-level tile planning — the per-layer "optimal tiling"
//! choice the paper obtains from Timeloop.
//!
//! A PE's register file cannot hold a full weight slice, a full input
//! window, and a full output tile at once, so one of the two stationary
//! candidates must re-stream:
//!
//! * **weights resident** (order A): the weight tile stays in the RF
//!   across all output positions; partial sums spill to the GLB once per
//!   extra contraction tile;
//! * **psums resident** (order B): the output tile accumulates fully in
//!   the RF; the weight stream repeats once per extra output tile.
//!
//! [`plan_rf`] sizes both candidates against the RF capacity and picks
//! the one that moves fewer words — a one-dimensional instance of the
//! loop-order search a full mapper performs.

use crate::{ArchConfig, LayerTask};

/// Which operand stays resident in the register file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TileOrder {
    /// Order A: weight tile pinned; psums spill per contraction tile.
    WeightsResident,
    /// Order B: psum tile pinned; weights re-stream per output tile.
    PsumsResident,
}

/// The chosen RF tiling for one layer-phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TilePlan {
    /// Contraction-dimension tiles needed to fit the per-PE weight slice.
    pub contraction_tiles: u64,
    /// Output-position tiles needed to fit the per-PE psum slice.
    pub position_tiles: u64,
    /// The resident operand.
    pub order: TileOrder,
    /// Extra GLB words moved by the chosen order (the spill cost).
    pub spill_words: u64,
}

/// Plans the RF tiling for one layer-phase.
///
/// `w_stream` is the weight stream of one pass (tiling granularity);
/// `w_refetch` the number of wave-level passes (so total weight traffic
/// is `w_stream · w_refetch`); `out_traffic` the output stream; `d_row`
/// the spatial extent sharing the weight slice across PEs. The RF is
/// split in thirds (weights / inputs / psums), the standard
/// double-buffered allocation.
///
/// # Examples
///
/// ```
/// use procrustes_sim::mapper::{plan_rf, TileOrder};
/// use procrustes_sim::{ArchConfig, LayerTask};
///
/// let arch = ArchConfig::procrustes_16x16();
/// // A small layer: everything fits, nothing spills.
/// let tiny = LayerTask::conv("t", 16, 8, 8, 8, 8, 3, 1, 1);
/// let plan = plan_rf(&arch, &tiny, 8 * 8 * 9, 1, 8 * 8 * 64, 8);
/// assert_eq!(plan.spill_words, 0);
///
/// // A huge layer: some order must spill, and the mapper picks the
/// // cheaper one.
/// let big = LayerTask::conv("b", 16, 512, 512, 14, 14, 3, 1, 1);
/// let plan = plan_rf(&arch, &big, 512 * 512 * 9, 1, 512 * 14 * 14 * 16, 512);
/// assert!(plan.spill_words > 0);
/// assert!(matches!(plan.order, TileOrder::WeightsResident | TileOrder::PsumsResident));
/// ```
pub fn plan_rf(
    arch: &ArchConfig,
    task: &LayerTask,
    w_stream: u64,
    w_refetch: u64,
    out_traffic: u64,
    d_row: usize,
) -> TilePlan {
    let rf_share = (arch.rf_words / 3).max(1) as u64;
    let w_per_pe = (w_stream / (d_row.max(1) as u64)).max(1);
    let contraction_tiles = w_per_pe.div_ceil(rf_share);
    let position_tiles = ((task.p * task.q) as u64).div_ceil(rf_share);

    // Order A cost: psums round-trip the GLB once per extra contraction
    // tile. Order B cost: the (refetch-inclusive) weight stream repeats
    // per extra output tile.
    let spill_a = 2 * out_traffic * contraction_tiles.saturating_sub(1);
    let spill_b = w_stream * w_refetch * position_tiles.saturating_sub(1);
    if spill_a <= spill_b {
        TilePlan {
            contraction_tiles,
            position_tiles,
            order: TileOrder::WeightsResident,
            spill_words: spill_a,
        }
    } else {
        TilePlan {
            contraction_tiles,
            position_tiles,
            order: TileOrder::PsumsResident,
            spill_words: spill_b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arch() -> ArchConfig {
        ArchConfig::procrustes_16x16()
    }

    /// Words the rejected order would have moved.
    fn alternative_spill(plan: &TilePlan, w_traffic: u64, out_traffic: u64) -> u64 {
        match plan.order {
            TileOrder::WeightsResident => w_traffic * plan.position_tiles.saturating_sub(1),
            TileOrder::PsumsResident => 2 * out_traffic * plan.contraction_tiles.saturating_sub(1),
        }
    }

    #[test]
    fn small_layers_fit_without_spill() {
        let t = LayerTask::conv("t", 16, 4, 4, 6, 6, 3, 1, 1);
        let plan = plan_rf(&arch(), &t, t.weights() as u64, 1, t.output_elems(), t.k);
        assert_eq!(plan.contraction_tiles, 1);
        assert_eq!(plan.position_tiles, 1);
        assert_eq!(plan.spill_words, 0);
    }

    #[test]
    fn mapper_picks_the_cheaper_order() {
        let t = LayerTask::conv("t", 16, 512, 512, 14, 14, 3, 1, 1);
        let w = t.weights() as u64;
        let y = t.output_elems();
        let plan = plan_rf(&arch(), &t, w, 1, y, t.k);
        // Its own spill must not exceed the alternative's.
        assert!(plan.spill_words <= alternative_spill(&plan, w, y));
    }

    #[test]
    fn big_weight_slices_force_contraction_tiling() {
        // One k's slice = 512 channels x 9 = 4608 words >> RF/3.
        let t = LayerTask::conv("t", 16, 512, 16, 14, 14, 3, 1, 1);
        let plan = plan_rf(&arch(), &t, t.weights() as u64, 1, t.output_elems(), t.k);
        assert!(plan.contraction_tiles > 1);
    }

    #[test]
    fn big_output_maps_force_position_tiling() {
        let t = LayerTask::conv("t", 16, 16, 16, 56, 56, 3, 1, 1);
        let plan = plan_rf(&arch(), &t, t.weights() as u64, 1, t.output_elems(), t.k);
        assert!(plan.position_tiles > 1, "56x56 = 3136 positions >> RF/3");
    }

    #[test]
    fn weight_heavy_layers_prefer_psum_residency() {
        // fc-like: enormous weights but a single output position, so the
        // psum tile trivially fits and streaming weights once is free.
        let t = LayerTask::fc("fc", 16, 4096, 4096);
        let plan = plan_rf(&arch(), &t, t.weights() as u64, 1, t.output_elems(), t.k);
        assert_eq!(plan.position_tiles, 1);
        assert_eq!(plan.order, TileOrder::PsumsResident);
        assert_eq!(
            plan.spill_words, 0,
            "one position tile -> no weight re-streaming"
        );
    }
}
