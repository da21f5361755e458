//! Per-layer mask summaries: everything the cost model reads of a mask
//! set, reduced once.
//!
//! The paper's CSB pointer array gives each kernel's nonzero count in
//! O(1) (§IV-A), and the Fig 9 half-tile balancer needs only the two
//! halves of each row or column unit (§IV-C). A [`MaskSummary`] holds
//! exactly those reductions of a [`SparsityInfo`], built in one pass
//! over `kernel_nnz` that also validates the set and, on request,
//! computes its fingerprint. The cost model then costs every phase,
//! mapping and balance mode of the layer from the summary; it reads
//! `kernel_nnz` only to lay out the per-PE work of a tile-timed,
//! unbalanced `C,K` wave, and to build the `C,K` tile grid once per
//! array shape.

use std::sync::{Arc, Mutex};

use crate::{LayerTask, SparsityInfo};

/// One row or column unit of the array's sparse dimension: its weight
/// nonzeros and the part of them in the first half of its extent (the
/// paper's Fig 9 cut).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Unit {
    pub total: u64,
    pub first: u64,
}

impl Unit {
    /// The unit's two halves, `(first, second)`.
    pub fn halves(self) -> (u64, u64) {
        (self.first, self.total - self.first)
    }
}

/// One array-sized tile of the `C,K` kernel grid: the PEs it fills, the
/// largest kernel among them and their nonzero sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Tile {
    pub kernels: u64,
    pub max: u64,
    pub sum: u64,
}

/// The `C,K` kernel grid cut into `rows × cols` tiles, in wave order:
/// input-channel tiles outermost, output-channel tiles inner.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct TileGrid {
    pub rows: usize,
    pub cols: usize,
    pub tiles: Vec<Tile>,
}

/// The geometry a summary was built for: what `kernel_nnz` is indexed by
/// and capped at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Shape {
    c: usize,
    k: usize,
    cap: u32,
    depthwise: bool,
}

impl Shape {
    fn of(task: &LayerTask) -> Self {
        Self {
            c: task.c,
            k: task.k,
            cap: (task.r * task.s) as u32,
            depthwise: task.depthwise,
        }
    }

    /// Kernels along the output-channel axis of `kernel_nnz`: a depthwise
    /// layer's one kernel per channel reads as a single row.
    fn k_rows(self) -> usize {
        if self.depthwise {
            1
        } else {
            self.k
        }
    }
}

/// The reductions of one layer's [`SparsityInfo`] that the cost model
/// reads: the total, the per-output-channel (`K`) and per-input-channel
/// (`C`) nonzeros with their Fig 9 halves, and, built on first request
/// for each array shape, the `C,K` tile grid's per-tile maximum and sum.
///
/// A summary is O(K + C + tiles) and holds no per-kernel copy. It is
/// bound to the mask set it was built from: the cost model takes both
/// and reads the set itself only where the summary cannot stand in (see
/// [`crate::evaluate_layer_summarized`]).
#[derive(Debug)]
pub struct MaskSummary {
    shape: Shape,
    kernels: usize,
    total: u64,
    /// Per output channel; per kernel for a depthwise layer, whose
    /// halves split the filter itself.
    k_units: Vec<Unit>,
    /// Per input channel; empty for a depthwise layer.
    c_units: Vec<Unit>,
    tiles: Mutex<Vec<Arc<TileGrid>>>,
}

impl MaskSummary {
    /// Summarises `sp` as the sparsity of `task`.
    ///
    /// # Panics
    ///
    /// Panics where [`SparsityInfo::validate`] does: if the kernel count
    /// mismatches or any kernel exceeds its dense capacity.
    pub fn new(task: &LayerTask, sp: &SparsityInfo) -> Self {
        Self::scan(task, sp, |_| {})
    }

    /// [`MaskSummary::new`] and [`SparsityInfo::fingerprint`] in one pass
    /// over `kernel_nnz`. The hash is a serial chain of one xor and one
    /// multiply per count ([`crate::Fnv1a::write_u32`]); each row's sums
    /// run in a loop of their own over the counts the chain has just
    /// read, independent of it, so they overlap the chain and the pass
    /// costs about what the hash alone does.
    ///
    /// # Panics
    ///
    /// As [`MaskSummary::new`].
    pub fn with_fingerprint(task: &LayerTask, sp: &SparsityInfo) -> (Self, u64) {
        sp.fingerprint_with(|h| {
            Self::scan(task, sp, |run| {
                for &n in run {
                    h.write_u32(n);
                }
            })
        })
    }

    /// The one pass: `each` sees every kernel's count in index order, a
    /// run of consecutive kernels at a time.
    fn scan(task: &LayerTask, sp: &SparsityInfo, mut each: impl FnMut(&[u32])) -> Self {
        let shape = Shape::of(task);
        let nnz = &sp.kernel_nnz;
        assert_eq!(
            nnz.len(),
            task.kernels(),
            "kernel_nnz length mismatch for {}",
            task.name
        );
        let mut max = 0u32;
        let (k_units, c_units) = if shape.depthwise {
            each(nnz);
            let units = nnz
                .iter()
                .map(|&v| {
                    max = max.max(v);
                    let v = u64::from(v);
                    Unit {
                        total: v,
                        first: v / 2,
                    }
                })
                .collect();
            (units, Vec::new())
        } else {
            let (k, c) = (shape.k, shape.c);
            let mut col_totals = vec![0u64; c];
            let mut col_firsts = vec![0u64; c];
            let mut rows = Vec::with_capacity(k);
            for ki in 0..k {
                if ki == k / 2 {
                    col_firsts.copy_from_slice(&col_totals);
                }
                let (lo, hi) = nnz[ki * c..(ki + 1) * c].split_at(c / 2);
                let (cols_lo, cols_hi) = col_totals.split_at_mut(c / 2);
                let first = add_row(lo, cols_lo, &mut max, &mut each);
                let total = first + add_row(hi, cols_hi, &mut max, &mut each);
                rows.push(Unit { total, first });
            }
            let columns = col_totals
                .into_iter()
                .zip(col_firsts)
                .map(|(total, first)| Unit { total, first })
                .collect();
            (rows, columns)
        };
        assert!(
            max <= shape.cap,
            "kernel nnz exceeds {} for {}",
            shape.cap,
            task.name
        );
        let total = k_units.iter().map(|u| u.total).sum();
        Self {
            shape,
            kernels: nnz.len(),
            total,
            k_units,
            c_units,
            tiles: Mutex::default(),
        }
    }

    /// Total weight nonzeros ([`SparsityInfo::total_nnz`]).
    pub fn total_nnz(&self) -> u64 {
        self.total
    }

    /// Panics unless this summary was built for `task`'s geometry and
    /// `sp` has its kernel count: the cheap half of "summary of `sp`".
    pub(crate) fn check(&self, task: &LayerTask, sp: &SparsityInfo) {
        assert!(
            self.shape == Shape::of(task) && self.kernels == sp.kernel_nnz.len(),
            "mask summary does not describe {}",
            task.name
        );
    }

    /// The row units of a row-sparse mapping: per output channel when
    /// `units_are_k`, else per input channel; per kernel, either way, for
    /// a depthwise layer.
    pub(crate) fn units(&self, units_are_k: bool) -> &[Unit] {
        if units_are_k || self.shape.depthwise {
            &self.k_units
        } else {
            &self.c_units
        }
    }

    /// The `C,K` tile grid of a `rows × cols` array over `sp` (the set
    /// this summary describes), built on the first request for that
    /// shape and shared after.
    pub(crate) fn tiles(&self, sp: &SparsityInfo, rows: usize, cols: usize) -> Arc<TileGrid> {
        let cached = || {
            let grids = self.tiles.lock().expect("no panic under the tile lock");
            grids
                .iter()
                .find(|g| (g.rows, g.cols) == (rows, cols))
                .cloned()
        };
        if let Some(grid) = cached() {
            return grid;
        }
        // Built outside the lock: a second thread asking for the same
        // shape meanwhile builds its own rather than waiting.
        let grid = Arc::new(self.build_tiles(&sp.kernel_nnz, rows, cols));
        let mut grids = self.tiles.lock().expect("no panic under the tile lock");
        match grids.iter().find(|g| (g.rows, g.cols) == (rows, cols)) {
            Some(first) => Arc::clone(first),
            None => {
                grids.push(Arc::clone(&grid));
                grid
            }
        }
    }

    /// One pass over `nnz` in index order, a block of `cols` output
    /// channels at a time: each block's per-input-channel maxima and sums
    /// accumulate across its rows, then fold into the block's tiles,
    /// `rows` input channels each.
    fn build_tiles(&self, nnz: &[u32], rows: usize, cols: usize) -> TileGrid {
        let (c, k_rows) = (self.shape.c, self.shape.k_rows());
        let per_row = k_rows.div_ceil(cols);
        let mut tiles = vec![Tile::default(); c.div_ceil(rows) * per_row];
        let (mut col_max, mut col_sum) = (vec![0u32; c], vec![0u64; c]);
        for ck in 0..per_row {
            let block = ck * cols..((ck + 1) * cols).min(k_rows);
            let width = block.len() as u64;
            col_max.fill(0);
            col_sum.fill(0);
            for ki in block {
                let row = &nnz[ki * c..(ki + 1) * c];
                for ((max, sum), &v) in col_max.iter_mut().zip(&mut col_sum).zip(row) {
                    *max = (*max).max(v);
                    *sum += u64::from(v);
                }
            }
            let chunks = col_max.chunks(rows).zip(col_sum.chunks(rows));
            for (cr, (maxes, sums)) in chunks.enumerate() {
                tiles[cr * per_row + ck] = Tile {
                    kernels: maxes.len() as u64 * width,
                    max: u64::from(maxes.iter().copied().max().unwrap_or(0)),
                    sum: sums.iter().sum(),
                };
            }
        }
        TileGrid { rows, cols, tiles }
    }
}

/// Adds `row` into `columns` and returns its sum, feeding the row to
/// `each` first and folding its counts into `max`.
fn add_row(row: &[u32], columns: &mut [u64], max: &mut u32, each: &mut impl FnMut(&[u32])) -> u64 {
    each(row);
    let (mut sum, mut m) = (0u64, *max);
    for (&v, col) in row.iter().zip(columns) {
        m = m.max(v);
        *col += u64::from(v);
        sum += u64::from(v);
    }
    *max = m;
    sum
}

/// The reductions a summary replaces, recomputed from the raw counts
/// the way the cost model once did on every evaluation: the oracle of
/// the summary tests.
#[cfg(test)]
pub(crate) mod oracle {
    use crate::{LayerTask, SparsityInfo};

    /// Per-row-unit nonzeros and their halves, walking `kernel_nnz` for
    /// each unit (stride `C` for input-channel units).
    pub fn row_units(
        task: &LayerTask,
        units_are_k: bool,
        sp: &SparsityInfo,
    ) -> Vec<(u64, (u64, u64))> {
        let (k, c) = (task.k, task.c);
        if task.depthwise {
            return sp
                .kernel_nnz
                .iter()
                .map(|&v| {
                    let v = u64::from(v);
                    (v, (v / 2, v - v / 2))
                })
                .collect();
        }
        if units_are_k {
            (0..k)
                .map(|ki| {
                    let row = &sp.kernel_nnz[ki * c..(ki + 1) * c];
                    let first: u64 = row[..c / 2].iter().map(|&v| u64::from(v)).sum();
                    let total: u64 = row.iter().map(|&v| u64::from(v)).sum();
                    (total, (first, total - first))
                })
                .collect()
        } else {
            (0..c)
                .map(|ci| {
                    let mut first = 0u64;
                    let mut total = 0u64;
                    for ki in 0..k {
                        let v = u64::from(sp.kernel_nnz[ki * c + ci]);
                        total += v;
                        if ki < k / 2 {
                            first += v;
                        }
                    }
                    (total, (first, total - first))
                })
                .collect()
        }
    }

    /// Per `C,K` tile, in wave order, its kernels' nonzeros in the wave
    /// plan's PE order, gathered with stride `C`.
    pub fn ck_tiles(
        task: &LayerTask,
        sp: &SparsityInfo,
        rows: usize,
        cols: usize,
    ) -> Vec<Vec<u64>> {
        let (gr, gc) = if task.depthwise {
            (task.c, 1)
        } else {
            (task.c, task.k)
        };
        let mut tiles = Vec::new();
        for cr in 0..gr.div_ceil(rows) {
            for ck in 0..gc.div_ceil(cols) {
                let mut works: Vec<u64> = Vec::with_capacity(rows * cols);
                for ci in cr * rows..((cr + 1) * rows).min(gr) {
                    for ki in ck * cols..((ck + 1) * cols).min(gc) {
                        let idx = if task.depthwise { ci } else { ki * task.c + ci };
                        works.push(u64::from(sp.kernel_nnz[idx]));
                    }
                }
                tiles.push(works);
            }
        }
        tiles
    }
}

#[cfg(test)]
mod tests;
