//! Half-tile load balancing (§IV-C, Figs 9 and 12).
//!
//! Each work tile is cut into two halves; halves are sorted by density and
//! matched from opposite ends (sparsest with densest), so every rebuilt
//! tile is as close as possible to the average. The pairing stays within
//! one full-PE-array working set and one array dimension, which is what
//! lets the `K,N`/`C,N` dataflows keep their simple interconnect.

use crate::MaskSummary;

/// Pairs half-tile work amounts from opposite ends of the density order,
/// returning the work of each rebuilt tile.
///
/// Input: the two halves of every tile in one working set. Output: one
/// combined work value per rebuilt tile (same count as input tiles).
///
/// # Examples
///
/// ```
/// use procrustes_sim::half_tile_pairs;
/// // Two very unbalanced tiles: (10, 8) and (1, 1).
/// let rebuilt = half_tile_pairs(&[(10, 8), (1, 1)]);
/// // Pairing 10+1 and 8+1 evens the load: max drops from 18 to 11.
/// assert_eq!(rebuilt.iter().max(), Some(&11));
/// assert_eq!(rebuilt.iter().sum::<u64>(), 20); // work conserved
/// ```
pub fn half_tile_pairs(halves: &[(u64, u64)]) -> Vec<u64> {
    let mut flat: Vec<u64> = Vec::with_capacity(halves.len() * 2);
    for &(a, b) in halves {
        flat.push(a);
        flat.push(b);
    }
    flat.sort_unstable();
    let n = flat.len();
    (0..n / 2).map(|i| flat[i] + flat[n - 1 - i]).collect()
}

/// The load-imbalance overhead of one working set: how much longer the
/// slowest PE runs than the average PE, as a fraction (Fig 5's x-axis).
///
/// Returns 0 for an empty or all-zero set.
///
/// # Examples
///
/// ```
/// use procrustes_sim::imbalance_overhead;
/// assert_eq!(imbalance_overhead(&[4, 4, 4, 4]), 0.0);
/// assert_eq!(imbalance_overhead(&[8, 0, 0, 0]), 3.0); // max 8 vs mean 2
/// ```
pub fn imbalance_overhead(work: &[u64]) -> f64 {
    if work.is_empty() {
        return 0.0;
    }
    let max = *work.iter().max().expect("non-empty") as f64;
    let mean = work.iter().sum::<u64>() as f64 / work.len() as f64;
    if mean == 0.0 {
        0.0
    } else {
        max / mean - 1.0
    }
}

/// Applies half-tile balancing to a working set of per-tile `(half, half)`
/// work values and reports `(max_work, mean_work)` of the rebuilt tiles.
pub fn balanced_assignment(halves: &[(u64, u64)]) -> (u64, f64) {
    let rebuilt = half_tile_pairs(halves);
    let max = rebuilt.iter().copied().max().unwrap_or(0);
    let mean = if rebuilt.is_empty() {
        0.0
    } else {
        rebuilt.iter().sum::<u64>() as f64 / rebuilt.len() as f64
    };
    (max, mean)
}

/// The Fig 5 and Fig 13 overheads of each working set of `rows`
/// output-channel units of `summary`, in order: `(unbalanced, balanced)`
/// is the [`imbalance_overhead`] of the units' totals and of the tiles
/// [`half_tile_pairs`] rebuilds from their halves.
///
/// # Panics
///
/// Panics if `rows == 0`.
///
/// # Examples
///
/// ```
/// use procrustes_sim::{working_set_overheads, LayerTask, MaskSummary, SparsityInfo};
///
/// // Two 2-channel filters of 1×1 kernels: one dense, one empty.
/// let task = LayerTask::conv("skew", 1, 2, 2, 4, 4, 1, 1, 0);
/// let mut sp = SparsityInfo::dense(&task);
/// sp.kernel_nnz = vec![1, 1, 0, 0];
/// let summary = MaskSummary::new(&task, &sp);
/// // Totals (2, 0) run 100 % over their mean; the halves pair as (1, 1).
/// assert_eq!(working_set_overheads(&summary, 2), vec![(1.0, 0.0)]);
/// ```
pub fn working_set_overheads(summary: &MaskSummary, rows: usize) -> Vec<(f64, f64)> {
    assert!(rows > 0, "working_set_overheads: need at least one row");
    summary
        .units(true)
        .chunks(rows)
        .map(|set| {
            let totals: Vec<u64> = set.iter().map(|u| u.total).collect();
            let halves: Vec<(u64, u64)> = set.iter().map(|u| u.halves()).collect();
            (
                imbalance_overhead(&totals),
                imbalance_overhead(&half_tile_pairs(&halves)),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use procrustes_prng::{UniformRng, Xorshift64};

    #[test]
    fn pairing_conserves_work() {
        let halves = [(5, 3), (9, 1), (0, 7), (2, 2)];
        let rebuilt = half_tile_pairs(&halves);
        assert_eq!(rebuilt.len(), 4);
        assert_eq!(rebuilt.iter().sum::<u64>(), 29);
    }

    #[test]
    fn pairing_never_worsens_max() {
        let mut rng = Xorshift64::new(1);
        for _ in 0..200 {
            let halves: Vec<(u64, u64)> = (0..16)
                .map(|_| (rng.next_below(100), rng.next_below(100)))
                .collect();
            let naive_max = halves.iter().map(|&(a, b)| a + b).max().unwrap();
            let rebuilt_max = *half_tile_pairs(&halves).iter().max().unwrap();
            assert!(
                rebuilt_max <= naive_max,
                "balancing increased max: {naive_max} -> {rebuilt_max}"
            );
        }
    }

    #[test]
    fn pairing_is_optimal_for_two_tiles() {
        // With halves {a ≥ b ≥ c ≥ d}, pairing (a+d, b+c) minimizes max.
        let rebuilt = half_tile_pairs(&[(10, 7), (4, 2)]);
        let mut sorted = rebuilt.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![11, 12]); // (10+2, 7+4)
    }

    #[test]
    fn skewed_sets_balance_dramatically() {
        // One dense tile among 15 sparse ones (the Fig 5 situation).
        let mut halves = vec![(2u64, 2u64); 15];
        halves.push((60, 60));
        let before: Vec<u64> = halves.iter().map(|&(a, b)| a + b).collect();
        let after = half_tile_pairs(&halves);
        let over_before = imbalance_overhead(&before);
        let over_after = imbalance_overhead(&after);
        assert!(over_before > 9.0, "before: {over_before}");
        assert!(over_after < over_before / 2.0, "after: {over_after}");
    }

    #[test]
    fn overhead_of_uniform_work_is_zero() {
        assert_eq!(imbalance_overhead(&[7, 7, 7]), 0.0);
        assert_eq!(imbalance_overhead(&[]), 0.0);
        assert_eq!(imbalance_overhead(&[0, 0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "need at least one row")]
    fn working_set_overheads_rejects_zero_rows() {
        let task = crate::LayerTask::fc("fc", 1, 2, 2);
        let summary = MaskSummary::new(&task, &crate::SparsityInfo::dense(&task));
        working_set_overheads(&summary, 0);
    }

    #[test]
    fn balanced_assignment_reports_max_and_mean() {
        let (max, mean) = balanced_assignment(&[(4, 0), (2, 2)]);
        assert_eq!(max, 4);
        assert!((mean - 4.0).abs() < 1e-12);
    }
}
