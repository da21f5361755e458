//! The simulator's half-tile pairing (§IV-C, Figs 9 and 12) on conv
//! masks read through [`masks::from_model`], checked against the halves
//! the CSB format gives by pointer subtraction.

use procrustes_nn::{Conv2d, Layer, ParamKind, Sequential};
use procrustes_prng::{UniformRng, Xorshift64};
use procrustes_sim::{half_tile_pairs, imbalance_overhead, working_set_overheads, MaskSummary};
use procrustes_sparse::CsbTensor;
use procrustes_tensor::Tensor;

use crate::masks;

/// Mixed-density filters: every fourth row dense, the rest nearly empty.
fn skewed(k: usize, c: usize, seed: u64) -> Tensor {
    let mut rng = Xorshift64::new(seed);
    Tensor::from_fn(&[k, c, 3, 3], |idx| {
        let row_keep = if idx[0] % 4 == 0 { 0.9 } else { 0.1 };
        if rng.next_f64() < row_keep {
            1.0
        } else {
            0.0
        }
    })
}

/// The summary `CoSim` reads of a conv layer holding weight `w`.
fn summary_of(w: &Tensor) -> MaskSummary {
    let (k, c, r) = (w.shape().dim(0), w.shape().dim(1), w.shape().dim(2));
    let mut model = Sequential::new();
    model.push(Conv2d::new(c, k, r, 1, 1, false, &mut Xorshift64::new(0)));
    model.visit_params(&mut |mut p| {
        if p.kind == ParamKind::Prunable {
            *p.values = w.clone();
        }
    });
    let (task, sp) = masks::from_model(&mut model, 1, 1.0).remove(0);
    MaskSummary::new(&task, &sp)
}

/// Each filter row's `(first, second)` halves by CSB pointer subtraction.
fn csb_halves(csb: &CsbTensor) -> Vec<(u64, u64)> {
    let (gr, gc) = csb.grid();
    (0..gr)
        .map(|gi| {
            let (begin, mid, end) = (gi * gc, gi * gc + gc / 2, (gi + 1) * gc);
            (
                csb.range_nnz(begin, mid) as u64,
                csb.range_nnz(mid, end) as u64,
            )
        })
        .collect()
}

/// Pairs each working set's CSB halves, checking that the set gets one
/// rebuilt tile per unit and keeps exactly its own nonzeros; returns the
/// rebuilt tiles of every set.
fn rebuilt_sets(csb: &CsbTensor, rows: usize) -> Vec<Vec<u64>> {
    let gc = csb.grid().1;
    csb_halves(csb)
        .chunks(rows)
        .enumerate()
        .map(|(i, set)| {
            let rebuilt = half_tile_pairs(set);
            assert_eq!(rebuilt.len(), set.len(), "set {i}");
            let blocks = (i * rows * gc, (i * rows + set.len()) * gc);
            let set_nnz = csb.range_nnz(blocks.0, blocks.1) as u64;
            assert_eq!(rebuilt.iter().sum::<u64>(), set_nnz, "set {i}");
            rebuilt
        })
        .collect()
}

#[test]
fn schedule_conserves_work() {
    let w = skewed(16, 8, 1);
    let csb = CsbTensor::from_dense_conv(&w);
    let total: u64 = rebuilt_sets(&csb, 16).iter().flatten().sum();
    assert_eq!(total, csb.nnz() as u64);
    assert_eq!(total, summary_of(&w).total_nnz());
}

#[test]
fn every_half_is_scheduled_exactly_once() {
    let csb = CsbTensor::from_dense_conv(&skewed(32, 8, 2));
    let sets = rebuilt_sets(&csb, 16);
    // 64 halves, two to a rebuilt tile, 16 tiles to a set.
    assert_eq!(sets.iter().map(Vec::len).collect::<Vec<_>>(), [16, 16]);
}

#[test]
fn balancing_reduces_worst_overhead() {
    let sets = working_set_overheads(&summary_of(&skewed(64, 16, 3)), 16);
    assert_eq!(sets.len(), 4);
    let unbal = sets.iter().map(|s| s.0).fold(0.0, f64::max);
    let bal = sets.iter().map(|s| s.1).fold(0.0, f64::max);
    assert!(unbal > 0.5, "skewed workload should be imbalanced: {unbal}");
    assert!(bal < unbal / 2.0, "balanced {bal} vs unbalanced {unbal}");
}

#[test]
fn half_works_match_pointer_queries() {
    let w = skewed(8, 6, 4);
    let csb = CsbTensor::from_dense_conv(&w);
    let halves = csb_halves(&csb);
    for (k, &(a, b)) in halves.iter().enumerate() {
        let first: usize = (0..3).map(|c| csb.block_nnz(k, c)).sum();
        let second: usize = (3..6).map(|c| csb.block_nnz(k, c)).sum();
        assert_eq!((a, b), (first as u64, second as u64), "row {k}");
    }
    let from_csb: Vec<(u64, u64)> = halves
        .chunks(4)
        .map(|set| {
            let totals: Vec<u64> = set.iter().map(|&(a, b)| a + b).collect();
            let rebuilt = half_tile_pairs(set);
            (
                imbalance_overhead(&totals).to_bits(),
                imbalance_overhead(&rebuilt).to_bits(),
            )
        })
        .collect();
    let from_summary: Vec<(u64, u64)> = working_set_overheads(&summary_of(&w), 4)
        .into_iter()
        .map(|(u, b)| (u.to_bits(), b.to_bits()))
        .collect();
    assert_eq!(from_summary, from_csb);
}

#[test]
fn pairs_stay_within_their_working_set() {
    // `rebuilt_sets` checks each set's sum against its own block range, so
    // a pair that mixed halves of two sets would move work between them.
    let csb = CsbTensor::from_dense_conv(&skewed(32, 8, 5));
    assert_eq!(rebuilt_sets(&csb, 16).len(), 2);
}

#[test]
fn uniform_density_needs_no_balancing() {
    let sets = working_set_overheads(&summary_of(&Tensor::ones(&[16, 4, 3, 3])), 16);
    assert_eq!(sets, [(0.0, 0.0)]);
}
