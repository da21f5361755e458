//! The compressed sparse block tensor (§IV-B, Fig 8 of the paper).

use std::fmt;

use procrustes_tensor::Tensor;

use crate::BitMask;

/// How the dense weight space is carved into CSB blocks.
///
/// * Conv layers: one block per `(k, c)` filter, block extent = `R×S`
///   (“blocks are sized to and retrieved on filter granularity”).
/// * Fully-connected layers: square fragments of the weight matrix; the
///   block edge is a per-layer choice (“the region size can vary on layer
///   granularity”).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CsbLayout {
    /// Conv weights `KCRS`; grid = `K×C` blocks of extent `R×S`.
    Conv {
        /// Output channels.
        k: usize,
        /// Input channels.
        c: usize,
        /// Filter rows.
        r: usize,
        /// Filter columns.
        s: usize,
    },
    /// Fc weights `[out, in]`; grid of `edge×edge` square fragments
    /// (ragged at the right/bottom borders when not divisible).
    Fc {
        /// Output features (rows of the dense matrix).
        out: usize,
        /// Input features (columns of the dense matrix).
        inp: usize,
        /// Block edge length.
        edge: usize,
    },
}

impl CsbLayout {
    /// Number of blocks along (grid rows, grid cols).
    pub fn grid(&self) -> (usize, usize) {
        match *self {
            CsbLayout::Conv { k, c, .. } => (k, c),
            CsbLayout::Fc { out, inp, edge } => (out.div_ceil(edge), inp.div_ceil(edge)),
        }
    }

    /// Extent (rows, cols) of the block at grid coordinate `(gi, gj)`.
    /// Border blocks of an fc layout are ragged (smaller than `edge`)
    /// when the matrix dimension is not a multiple of the block edge.
    ///
    /// # Panics
    ///
    /// Panics if `(gi, gj)` is outside the grid. (Before this check, an
    /// out-of-grid fc coordinate underflowed `out - gi·edge` and
    /// silently produced a full-size extent in release builds.)
    pub fn block_extent(&self, gi: usize, gj: usize) -> (usize, usize) {
        let (gr, gc) = self.grid();
        assert!(
            gi < gr && gj < gc,
            "block ({gi},{gj}) out of {gr}x{gc} grid"
        );
        match *self {
            CsbLayout::Conv { r, s, .. } => (r, s),
            CsbLayout::Fc { out, inp, edge } => {
                (edge.min(out - gi * edge), edge.min(inp - gj * edge))
            }
        }
    }

    /// Total number of dense elements covered by the layout.
    pub fn dense_len(&self) -> usize {
        match *self {
            CsbLayout::Conv { k, c, r, s } => k * c * r * s,
            CsbLayout::Fc { out, inp, .. } => out * inp,
        }
    }
}

/// One nonzero weight yielded by [`CsbTensor::iter_nonzeros`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NonzeroEntry {
    /// Grid row of the containing block (`k` for conv).
    pub grid_row: usize,
    /// Grid column of the containing block (`c` for conv).
    pub grid_col: usize,
    /// Row within the block (`r` for conv).
    pub in_row: usize,
    /// Column within the block (`s` for conv).
    pub in_col: usize,
    /// The weight value.
    pub value: f32,
}

/// A weight tensor in the Procrustes compressed sparse block format.
///
/// Three decoupled arrays (Fig 8): packed nonzero values (`data`), one
/// pointer per block indexed by dense grid coordinates (`ptr`, with a
/// sentinel so that block sizes are pointer differences), and one bitmask
/// per block (`masks`).
///
/// # Examples
///
/// ```
/// use procrustes_sparse::CsbTensor;
/// use procrustes_tensor::Tensor;
///
/// let w = Tensor::from_vec(&[1, 1, 3, 3],
///     vec![5.0, 0.0, 0.0, 0.0, 6.0, 0.0, 0.0, 0.0, 7.0]);
/// let csb = CsbTensor::from_dense_conv(&w);
/// assert_eq!(csb.nnz(), 3);
/// // Rotation happens at fetch, as in the backward pass:
/// let rot = csb.block_dense_rotated180(0, 0);
/// assert_eq!(rot, vec![7.0, 0.0, 0.0, 0.0, 6.0, 0.0, 0.0, 0.0, 5.0]);
/// ```
#[derive(Clone, PartialEq)]
pub struct CsbTensor {
    layout: CsbLayout,
    /// `ptr[i]` = offset of block `i`'s first packed value; `ptr` has a
    /// final sentinel so `ptr[i+1] - ptr[i]` is block `i`'s nnz.
    ptr: Vec<u32>,
    masks: Vec<BitMask>,
    data: Vec<f32>,
}

impl CsbTensor {
    /// Compresses a dense `KCRS` conv weight tensor; zeros are elided.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not rank 4.
    pub fn from_dense_conv(w: &Tensor) -> Self {
        assert_eq!(w.shape().rank(), 4, "from_dense_conv: weights must be KCRS");
        let (k, c, r, s) = (
            w.shape().dim(0),
            w.shape().dim(1),
            w.shape().dim(2),
            w.shape().dim(3),
        );
        // Filter (k, c) is `r` contiguous rows of `s` weights.
        let layout = CsbLayout::Conv { k, c, r, s };
        Self::compress(layout, w.data(), (c * r * s, r * s), s)
    }

    /// Compresses a dense `[out, in]` fc weight matrix with `edge`-sized
    /// square blocks.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not rank 2 or `edge == 0`.
    pub fn from_dense_fc(w: &Tensor, edge: usize) -> Self {
        assert_eq!(
            w.shape().rank(),
            2,
            "from_dense_fc: weights must be [out, in]"
        );
        assert!(edge > 0, "from_dense_fc: block edge must be positive");
        let (out, inp) = (w.shape().dim(0), w.shape().dim(1));
        // Fragment (gi, gj) starts `edge` rows down / `edge` columns
        // across; its rows are `inp` apart.
        let layout = CsbLayout::Fc { out, inp, edge };
        Self::compress(layout, w.data(), (edge * inp, edge), inp)
    }

    /// Encodes the row-major dense weights `w`: block `(gi, gj)` starts
    /// at `gi·origin.0 + gj·origin.1` and its rows are `pitch` apart.
    fn compress(layout: CsbLayout, w: &[f32], origin: (usize, usize), pitch: usize) -> Self {
        assert_eq!(w.len(), layout.dense_len(), "CSB: weight count mismatch");
        let (gr, gc) = layout.grid();
        let mut ptr = Vec::with_capacity(gr * gc + 1);
        let mut masks = Vec::with_capacity(gr * gc);
        let mut data = Vec::with_capacity(w.iter().filter(|&&v| v != 0.0).count());
        ptr.push(0u32);
        for gi in 0..gr {
            for gj in 0..gc {
                let (br, bc) = layout.block_extent(gi, gj);
                let block = &w[gi * origin.0 + gj * origin.1..];
                let mut mask = BitMask::zeros(br * bc);
                for bi in 0..br {
                    for (bj, &v) in block[bi * pitch..][..bc].iter().enumerate() {
                        if v != 0.0 {
                            mask.set(bi * bc + bj, true);
                            data.push(v);
                        }
                    }
                }
                masks.push(mask);
                ptr.push(u32::try_from(data.len()).expect("CSB: > 4G nonzeros"));
            }
        }
        Self {
            layout,
            ptr,
            masks,
            data,
        }
    }

    /// The layout this tensor was compressed under.
    pub fn layout(&self) -> CsbLayout {
        self.layout
    }

    /// Total number of stored (nonzero) weights.
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    /// Density = nnz / dense element count, in `(0, 1]`.
    pub fn density(&self) -> f64 {
        self.nnz() as f64 / self.layout.dense_len() as f64
    }

    fn block_index(&self, gi: usize, gj: usize) -> usize {
        let (gr, gc) = self.layout.grid();
        assert!(
            gi < gr && gj < gc,
            "block ({gi},{gj}) out of {gr}x{gc} grid"
        );
        gi * gc + gj
    }

    /// Number of nonzeros in block `(gi, gj)` — one pointer subtraction,
    /// exactly the paper's density query (§IV-B: “it suffices to subtract
    /// pointers of adjacent work tiles”).
    pub fn block_nnz(&self, gi: usize, gj: usize) -> usize {
        let b = self.block_index(gi, gj);
        (self.ptr[b + 1] - self.ptr[b]) as usize
    }

    /// Number of nonzeros in the half-open linear block range
    /// `[first, last)` (blocks in row-major grid order) — the load
    /// balancer's work-tile density query.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or reversed.
    pub fn range_nnz(&self, first: usize, last: usize) -> usize {
        assert!(
            first <= last && last < self.ptr.len(),
            "bad block range {first}..{last}"
        );
        (self.ptr[last] - self.ptr[first]) as usize
    }

    /// The mask of block `(gi, gj)`.
    pub fn block_mask(&self, gi: usize, gj: usize) -> &BitMask {
        &self.masks[self.block_index(gi, gj)]
    }

    /// The packed nonzero values of block `(gi, gj)`.
    pub fn block_values(&self, gi: usize, gj: usize) -> &[f32] {
        let b = self.block_index(gi, gj);
        &self.data[self.ptr[b] as usize..self.ptr[b + 1] as usize]
    }

    /// Unpacks block `(gi, gj)` to a dense row-major buffer.
    pub fn block_dense(&self, gi: usize, gj: usize) -> Vec<f32> {
        let (br, bc) = self.layout.block_extent(gi, gj);
        let mask = self.block_mask(gi, gj);
        let vals = self.block_values(gi, gj);
        let mut out = vec![0.0f32; br * bc];
        let mut next = 0;
        for (i, slot) in out.iter_mut().enumerate() {
            if mask.get(i) {
                *slot = vals[next];
                next += 1;
            }
        }
        out
    }

    /// Unpacks block `(gi, gj)` rotated by 180° — the fetch-time rotation
    /// used in the backward pass (“blocks … can be rotated while being
    /// fetched from the global buffer to the per-PE register files”).
    pub fn block_dense_rotated180(&self, gi: usize, gj: usize) -> Vec<f32> {
        let mut d = self.block_dense(gi, gj);
        d.reverse();
        d
    }

    /// Random access to the dense-space element at block `(gi, gj)`,
    /// in-block position `(bi, bj)`; zero if unset. Uses the mask's rank to
    /// locate the packed value, as the PE decode path does.
    pub fn get(&self, gi: usize, gj: usize, bi: usize, bj: usize) -> f32 {
        let (br, bc) = self.layout.block_extent(gi, gj);
        assert!(
            bi < br && bj < bc,
            "in-block index ({bi},{bj}) out of ({br},{bc})"
        );
        let mask = self.block_mask(gi, gj);
        let slot = bi * bc + bj;
        if mask.get(slot) {
            self.block_values(gi, gj)[mask.rank(slot)]
        } else {
            0.0
        }
    }

    /// Decompresses the whole tensor back to its dense form (`KCRS` for
    /// conv, `[out, in]` for fc). Lossless.
    pub fn to_dense(&self) -> Tensor {
        match self.layout {
            CsbLayout::Conv { k, c, r, s } => {
                let mut t = Tensor::zeros(&[k, c, r, s]);
                for e in self.iter_nonzeros() {
                    t.set(&[e.grid_row, e.grid_col, e.in_row, e.in_col], e.value);
                }
                t
            }
            CsbLayout::Fc { out, inp, edge } => {
                let mut t = Tensor::zeros(&[out, inp]);
                for e in self.iter_nonzeros() {
                    t.set(
                        &[e.grid_row * edge + e.in_row, e.grid_col * edge + e.in_col],
                        e.value,
                    );
                }
                t
            }
        }
    }

    /// Iterates all stored nonzeros in block (row-major grid) order.
    pub fn iter_nonzeros(&self) -> impl Iterator<Item = NonzeroEntry> + '_ {
        let (gr, gc) = self.layout.grid();
        (0..gr * gc).flat_map(move |b| {
            let gi = b / gc;
            let gj = b % gc;
            let (_, bc) = self.layout.block_extent(gi, gj);
            let vals = &self.data[self.ptr[b] as usize..self.ptr[b + 1] as usize];
            self.masks[b]
                .iter_ones()
                .zip(vals)
                .map(move |(slot, &value)| NonzeroEntry {
                    grid_row: gi,
                    grid_col: gj,
                    in_row: slot / bc,
                    in_col: slot % bc,
                    value,
                })
        })
    }

    /// Transposes an fc CSB tensor piecewise (block-by-block), producing
    /// the CSB of `Wᵀ` — the backward-pass access pattern for fc layers.
    ///
    /// # Panics
    ///
    /// Panics if the layout is not [`CsbLayout::Fc`].
    pub fn transposed_fc(&self) -> CsbTensor {
        let CsbLayout::Fc { out, inp, edge } = self.layout else {
            panic!("transposed_fc: tensor does not have an fc layout");
        };
        let layout = CsbLayout::Fc {
            out: inp,
            inp: out,
            edge,
        };
        // Piecewise: block (gi, gj) of W becomes block (gj, gi) of Wᵀ with
        // its contents transposed. Build via the generic compressor reading
        // through `get` on the source.
        let (gr, gc) = layout.grid();
        let mut ptr = Vec::with_capacity(gr * gc + 1);
        let mut masks = Vec::with_capacity(gr * gc);
        let mut data = Vec::new();
        ptr.push(0u32);
        for gi in 0..gr {
            for gj in 0..gc {
                let (br, bc) = layout.block_extent(gi, gj);
                let mut mask = BitMask::zeros(br * bc);
                for bi in 0..br {
                    for bj in 0..bc {
                        // (gi,bi) indexes Wᵀ rows = W columns.
                        let v = self.get(gj, gi, bj, bi);
                        if v != 0.0 {
                            mask.set(bi * bc + bj, true);
                            data.push(v);
                        }
                    }
                }
                masks.push(mask);
                ptr.push(u32::try_from(data.len()).expect("CSB: > 4G nonzeros"));
            }
        }
        CsbTensor {
            layout,
            ptr,
            masks,
            data,
        }
    }

    // ----- storage accounting ---------------------------------------------
    // Values and pointers are what the simulator's `csb_words` charges
    // (pinned on trained masks in `tests/end_to_end.rs`). Masks are not:
    // the simulator packs mask bits across kernels, ⌈K·C·R·S / 32⌉ words,
    // while `BitMask::storage_bytes` rounds each block up to whole bytes
    // (2 bytes against 9 bits for a 3×3 filter).

    /// Bytes of packed weight data (4 bytes per nonzero).
    pub fn data_bytes(&self) -> usize {
        self.data.len() * 4
    }

    /// Bytes of mask storage (1 bit per dense slot).
    pub fn mask_bytes(&self) -> usize {
        self.masks.iter().map(BitMask::storage_bytes).sum()
    }

    /// Bytes of pointer storage (4 bytes per block + sentinel).
    pub fn ptr_bytes(&self) -> usize {
        self.ptr.len() * 4
    }

    /// Total compressed footprint in bytes.
    pub fn total_bytes(&self) -> usize {
        self.data_bytes() + self.mask_bytes() + self.ptr_bytes()
    }

    /// Dense footprint in bytes for comparison (4 bytes per slot).
    pub fn dense_bytes(&self) -> usize {
        self.layout.dense_len() * 4
    }
}

impl fmt::Debug for CsbTensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CsbTensor {{ layout: {:?}, nnz: {}, density: {:.3} }}",
            self.layout,
            self.nnz(),
            self.density()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use procrustes_prng::{UniformRng, Xorshift64};

    fn sparse_conv_weights(k: usize, c: usize, r: usize, s: usize, keep: f64, seed: u64) -> Tensor {
        let mut rng = Xorshift64::new(seed);
        Tensor::from_fn(&[k, c, r, s], |_| {
            if rng.next_f64() < keep {
                rng.next_f32() * 2.0 - 1.0
            } else {
                0.0
            }
        })
    }

    /// The worked example of the paper's Fig 8: an uncompressed block
    /// `Wa 0 Wb 0 0 Wc Wd 0 We` with mask `101001101`.
    #[test]
    fn paper_figure8_example() {
        let dense = vec![1.0, 0.0, 2.0, 0.0, 0.0, 3.0, 4.0, 0.0, 5.0];
        let w = Tensor::from_vec(&[1, 1, 3, 3], dense);
        let csb = CsbTensor::from_dense_conv(&w);
        // Packed weight array = [Wa, Wb, Wc, Wd, We].
        assert_eq!(csb.block_values(0, 0), &[1.0, 2.0, 3.0, 4.0, 5.0]);
        // Mask = 101001101.
        let bits: Vec<bool> = (0..9).map(|i| csb.block_mask(0, 0).get(i)).collect();
        assert_eq!(
            bits,
            vec![true, false, true, false, false, true, true, false, true]
        );
        // Σ mask = packed size.
        assert_eq!(csb.block_mask(0, 0).count_ones(), 5);
        assert_eq!(csb.block_nnz(0, 0), 5);
    }

    #[test]
    fn conv_roundtrip_is_lossless() {
        let w = sparse_conv_weights(4, 3, 3, 3, 0.3, 1);
        let csb = CsbTensor::from_dense_conv(&w);
        assert_eq!(csb.to_dense(), w);
    }

    #[test]
    fn fc_roundtrip_with_ragged_blocks() {
        let mut rng = Xorshift64::new(5);
        let w = Tensor::from_fn(&[10, 7], |_| {
            if rng.next_f64() < 0.4 {
                rng.next_f32()
            } else {
                0.0
            }
        });
        // edge 4 does not divide 10 or 7 -> ragged border blocks.
        let csb = CsbTensor::from_dense_fc(&w, 4);
        assert_eq!(csb.to_dense(), w);
        let (gr, gc) = csb.layout().grid();
        assert_eq!((gr, gc), (3, 2));
        assert_eq!(csb.layout().block_extent(2, 1), (2, 3));
    }

    #[test]
    fn block_nnz_is_pointer_subtraction() {
        let w = sparse_conv_weights(4, 2, 3, 3, 0.5, 2);
        let csb = CsbTensor::from_dense_conv(&w);
        let mut total = 0;
        for k in 0..4 {
            for c in 0..2 {
                let nnz = csb.block_nnz(k, c);
                assert_eq!(nnz, csb.block_mask(k, c).count_ones());
                total += nnz;
            }
        }
        assert_eq!(total, csb.nnz());
        // Additive over any split of the block range, empty ends included.
        for mid in 0..=8 {
            assert_eq!(
                csb.range_nnz(0, mid) + csb.range_nnz(mid, 8),
                csb.nnz(),
                "split at {mid}"
            );
        }
    }

    #[test]
    fn rotation_at_fetch_matches_dense_rotation() {
        let w = sparse_conv_weights(3, 2, 3, 3, 0.4, 3);
        let csb = CsbTensor::from_dense_conv(&w);
        let rot = w.rotate180();
        for k in 0..3 {
            for c in 0..2 {
                let got = csb.block_dense_rotated180(k, c);
                let want: Vec<f32> = (0..3)
                    .flat_map(|r| (0..3).map(move |s| (r, s)))
                    .map(|(r, s)| rot.at(&[k, c, r, s]))
                    .collect();
                assert_eq!(got, want, "block ({k},{c})");
            }
        }
    }

    #[test]
    fn fc_transpose_matches_dense_transpose() {
        let mut rng = Xorshift64::new(9);
        let w = Tensor::from_fn(&[9, 6], |_| {
            if rng.next_f64() < 0.35 {
                rng.next_f32() - 0.5
            } else {
                0.0
            }
        });
        let csb = CsbTensor::from_dense_fc(&w, 4);
        let t = csb.transposed_fc();
        assert_eq!(t.to_dense(), w.transpose2d());
        assert_eq!(t.nnz(), csb.nnz());
        assert_eq!(t.transposed_fc().to_dense(), w);
    }

    #[test]
    fn get_uses_rank_correctly() {
        let w = sparse_conv_weights(2, 2, 3, 3, 0.5, 4);
        let csb = CsbTensor::from_dense_conv(&w);
        for k in 0..2 {
            for c in 0..2 {
                for r in 0..3 {
                    for s in 0..3 {
                        assert_eq!(csb.get(k, c, r, s), w.at(&[k, c, r, s]));
                    }
                }
            }
        }
    }

    #[test]
    fn iter_nonzeros_yields_all_and_only_nonzeros() {
        let w = sparse_conv_weights(3, 3, 3, 3, 0.25, 6);
        let csb = CsbTensor::from_dense_conv(&w);
        let mut count = 0;
        for e in csb.iter_nonzeros() {
            assert_eq!(e.value, w.at(&[e.grid_row, e.grid_col, e.in_row, e.in_col]));
            assert_ne!(e.value, 0.0);
            count += 1;
        }
        assert_eq!(count, csb.nnz());
        assert_eq!(count, w.len() - w.count_zeros());
        assert_eq!(csb.density(), count as f64 / w.len() as f64);
    }

    #[test]
    fn storage_accounting_beats_dense_at_high_sparsity() {
        let w = sparse_conv_weights(32, 32, 3, 3, 0.1, 7);
        let csb = CsbTensor::from_dense_conv(&w);
        assert!(csb.total_bytes() < csb.dense_bytes() / 2);
        assert_eq!(csb.data_bytes(), csb.nnz() * 4);
        assert_eq!(csb.mask_bytes(), 32 * 32 * 2); // 9 bits -> 2 bytes per block
        assert_eq!(csb.ptr_bytes(), (32 * 32 + 1) * 4);
    }

    #[test]
    fn density_of_all_dense_tensor_is_one() {
        let w = Tensor::ones(&[2, 2, 3, 3]);
        let csb = CsbTensor::from_dense_conv(&w);
        assert_eq!(csb.density(), 1.0);
        assert_eq!(csb.nnz(), 36);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn block_out_of_grid_panics() {
        let w = Tensor::ones(&[2, 2, 3, 3]);
        CsbTensor::from_dense_conv(&w).block_nnz(2, 0);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn fc_block_extent_out_of_grid_panics_instead_of_wrapping() {
        // 10 rows with edge 4 -> 3 grid rows; gi = 3 used to underflow
        // `out - gi*edge` in release builds and report a full block.
        let layout = CsbLayout::Fc {
            out: 10,
            inp: 7,
            edge: 4,
        };
        layout.block_extent(3, 0);
    }

    /// The encoder walks the flat slice by block rows; the element-wise
    /// encoder it replaced read every weight through `Tensor::at`. Same
    /// `ptr`, `masks` and `data`, on conv filters and on fc grids ragged
    /// on either side.
    #[test]
    fn flat_slice_encoding_equals_the_element_wise_one() {
        let element_wise = |layout: CsbLayout, at: &dyn Fn(usize, usize, usize, usize) -> f32| {
            let (gr, gc) = layout.grid();
            let (mut ptr, mut masks, mut data) = (vec![0u32], Vec::new(), Vec::new());
            for b in 0..gr * gc {
                let (br, bc) = layout.block_extent(b / gc, b % gc);
                let values: Vec<f32> = (0..br * bc)
                    .map(|slot| at(b / gc, b % gc, slot / bc, slot % bc))
                    .collect();
                masks.push(BitMask::from_fn(br * bc, |slot| values[slot] != 0.0));
                data.extend(values.into_iter().filter(|&v| v != 0.0));
                ptr.push(data.len() as u32);
            }
            CsbTensor {
                layout,
                ptr,
                masks,
                data,
            }
        };
        for (seed, [k, c, r, s]) in [[4, 3, 3, 3], [2, 5, 1, 1], [3, 2, 3, 2], [1, 1, 5, 5]]
            .into_iter()
            .enumerate()
        {
            let w = sparse_conv_weights(k, c, r, s, 0.3, 40 + seed as u64);
            let want = element_wise(CsbLayout::Conv { k, c, r, s }, &|gi, gj, bi, bj| {
                w.at(&[gi, gj, bi, bj])
            });
            assert!(
                CsbTensor::from_dense_conv(&w) == want,
                "conv {k}x{c}x{r}x{s}"
            );
        }
        let mut rng = Xorshift64::new(47);
        for (out, inp, edge) in [(3, 5, 8), (4, 4, 4), (7, 11, 3), (9, 5, 4), (70, 130, 64)] {
            let w = Tensor::from_fn(&[out, inp], |_| {
                if rng.next_f64() < 0.2 {
                    rng.next_f32() - 0.5
                } else {
                    0.0
                }
            });
            let want = element_wise(CsbLayout::Fc { out, inp, edge }, &|gi, gj, bi, bj| {
                w.at(&[gi * edge + bi, gj * edge + bj])
            });
            assert!(
                CsbTensor::from_dense_fc(&w, edge) == want,
                "fc {out}x{inp} edge {edge}"
            );
        }
    }

    #[test]
    fn fc_ragged_edge_cases_round_trip() {
        let mut rng = Xorshift64::new(31);
        // (rows, cols, edge): edge bigger than both dims, edge equal to a
        // dim, prime dims, and a 1-wide ragged border.
        for (out, inp, edge) in [(3, 5, 8), (4, 4, 4), (7, 11, 3), (9, 5, 4), (1, 1, 2)] {
            let w = Tensor::from_fn(&[out, inp], |_| {
                if rng.next_f64() < 0.5 {
                    rng.next_f32() - 0.5
                } else {
                    0.0
                }
            });
            let csb = CsbTensor::from_dense_fc(&w, edge);
            assert_eq!(csb.to_dense(), w, "{out}x{inp} edge {edge}");
            let (gr, gc) = csb.layout().grid();
            assert_eq!(gr, out.div_ceil(edge));
            assert_eq!(gc, inp.div_ceil(edge));
            // Block extents tile the matrix exactly.
            let rows: usize = (0..gr).map(|gi| csb.layout().block_extent(gi, 0).0).sum();
            let cols: usize = (0..gc).map(|gj| csb.layout().block_extent(0, gj).1).sum();
            assert_eq!((rows, cols), (out, inp), "{out}x{inp} edge {edge}");
            // Four bytes per nonzero, one mask bit per dense slot with
            // each block's mask rounded up to whole bytes.
            assert_eq!(csb.data_bytes(), csb.nnz() * 4);
            let mask_bytes: usize = (0..gr * gc)
                .map(|b| csb.layout().block_extent(b / gc, b % gc))
                .map(|(br, bc)| (br * bc).div_ceil(8))
                .sum();
            assert_eq!(csb.mask_bytes(), mask_bytes, "{out}x{inp} edge {edge}");
            // Transposition stays lossless on ragged grids.
            assert_eq!(csb.transposed_fc().to_dense(), w.transpose2d());
        }
    }
}
