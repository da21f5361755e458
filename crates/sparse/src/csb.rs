//! The compressed sparse block tensor (§IV-B, Fig 8 of the paper).

use std::fmt;

use procrustes_tensor::Tensor;

use crate::BitMask;

/// A `KCRS` weight tensor in the Procrustes compressed sparse block
/// format: one block per `(k, c)` filter of `R×S` slots (“blocks are
/// sized to and retrieved on filter granularity”).
///
/// Three decoupled arrays (Fig 8): the nonzero values packed in dense
/// order (`data`), one pointer per block indexed by dense grid
/// coordinates (`ptr`, with a sentinel so that block sizes are pointer
/// differences), and one mask bit per dense slot (`mask`). Bit `i` is
/// dense `KCRS` slot `i`, so block `(k, c)`'s mask is the `R·S` bits
/// from `(k·C + c)·R·S` and the mask array packs across blocks, as the
/// simulator charges it. A fully-connected `[out, in]` weight is the
/// `[out, in, 1, 1]` conv the simulator models it as.
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
    /// `[K, C, R, S]`.
    dims: [usize; 4],
    /// `ptr[b]` = offset of block `b`'s first packed value; `ptr` has a
    /// final sentinel so `ptr[b+1] - ptr[b]` is block `b`'s nnz.
    ptr: Vec<u32>,
    mask: BitMask,
    data: Vec<f32>,
}

impl CsbTensor {
    /// Compresses a dense `KCRS` conv weight tensor in one pass over its
    /// data; zeros are elided.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not rank 4.
    pub fn from_dense_conv(w: &Tensor) -> Self {
        let shape = w.shape();
        assert_eq!(shape.rank(), 4, "from_dense_conv: weights must be KCRS");
        let dims = [0, 1, 2, 3].map(|d| shape.dim(d));
        let (blocks, rs) = (dims[0] * dims[1], dims[2] * dims[3]);
        let values = w.data();
        let mut ptr = Vec::with_capacity(blocks + 1);
        let mut mask = BitMask::zeros(values.len());
        let mut data = Vec::new();
        ptr.push(0u32);
        for b in 0..blocks {
            for (i, &v) in (b * rs..).zip(&values[b * rs..][..rs]) {
                if v != 0.0 {
                    mask.set(i, true);
                    data.push(v);
                }
            }
            ptr.push(u32::try_from(data.len()).expect("CSB: > 4G nonzeros"));
        }
        Self {
            dims,
            ptr,
            mask,
            data,
        }
    }

    /// Number of blocks along (`K`, `C`).
    pub fn grid(&self) -> (usize, usize) {
        (self.dims[0], self.dims[1])
    }

    /// The mask array: bit `i` is set iff dense `KCRS` slot `i` is stored.
    pub fn mask(&self) -> &BitMask {
        &self.mask
    }

    /// Total number of stored (nonzero) weights.
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    /// Density = nnz / dense element count, in `(0, 1]`.
    pub fn density(&self) -> f64 {
        self.nnz() as f64 / self.mask.len() as f64
    }

    fn block_index(&self, gi: usize, gj: usize) -> usize {
        let (gr, gc) = self.grid();
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

    /// The packed nonzero values of block `(gi, gj)`.
    pub fn block_values(&self, gi: usize, gj: usize) -> &[f32] {
        let b = self.block_index(gi, gj);
        &self.data[self.ptr[b] as usize..self.ptr[b + 1] as usize]
    }

    /// Unpacks block `(gi, gj)` to a dense row-major `R×S` buffer.
    fn block_dense(&self, gi: usize, gj: usize) -> Vec<f32> {
        let rs = self.dims[2] * self.dims[3];
        let first = self.block_index(gi, gj) * rs;
        let mut vals = self.block_values(gi, gj).iter();
        (first..first + rs)
            .map(|i| {
                if self.mask.get(i) {
                    *vals.next().expect("CSB: mask and pointers disagree")
                } else {
                    0.0
                }
            })
            .collect()
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
        let [_, _, r, s] = self.dims;
        assert!(
            bi < r && bj < s,
            "in-block index ({bi},{bj}) out of ({r},{s})"
        );
        let slot = (self.block_index(gi, gj) * r + bi) * s + bj;
        if self.mask.get(slot) {
            self.data[self.mask.rank(slot)]
        } else {
            0.0
        }
    }

    /// Decompresses the whole tensor back to its dense `KCRS` form.
    /// Lossless.
    pub fn to_dense(&self) -> Tensor {
        let mut t = Tensor::zeros(&self.dims);
        let dense = t.data_mut();
        for (i, &v) in self.mask.iter_ones().zip(&self.data) {
            dense[i] = v;
        }
        t
    }

    // ----- storage accounting ---------------------------------------------
    // Term by term the words the simulator's `csb_words` charges, pinned
    // on trained masks in `tests/end_to_end.rs`.

    /// Bytes of packed weight data (4 bytes per nonzero).
    pub fn data_bytes(&self) -> usize {
        self.data.len() * 4
    }

    /// Bytes of mask storage: one bit per dense slot, packed across
    /// blocks into 32-bit words.
    pub fn mask_bytes(&self) -> usize {
        self.mask.len().div_ceil(32) * 4
    }

    /// Bytes of pointer storage (4 bytes per block + sentinel).
    pub fn ptr_bytes(&self) -> usize {
        self.ptr.len() * 4
    }

    /// Total compressed footprint in bytes.
    pub fn total_bytes(&self) -> usize {
        self.data_bytes() + self.mask_bytes() + self.ptr_bytes()
    }
}

impl fmt::Debug for CsbTensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CsbTensor {{ dims: {:?}, nnz: {}, density: {:.3} }}",
            self.dims,
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
        let bits: Vec<bool> = (0..9).map(|i| csb.mask().get(i)).collect();
        assert_eq!(
            bits,
            vec![true, false, true, false, false, true, true, false, true]
        );
        // Σ mask = packed size.
        assert_eq!(csb.mask().count_ones(), 5);
        assert_eq!(csb.block_nnz(0, 0), 5);
    }

    #[test]
    fn conv_roundtrip_is_lossless() {
        let w = sparse_conv_weights(4, 3, 3, 3, 0.3, 1);
        let csb = CsbTensor::from_dense_conv(&w);
        assert_eq!(csb.to_dense(), w);
    }

    #[test]
    fn block_nnz_is_pointer_subtraction() {
        let w = sparse_conv_weights(4, 2, 3, 3, 0.5, 2);
        let csb = CsbTensor::from_dense_conv(&w);
        let mut total = 0;
        for k in 0..4 {
            for c in 0..2 {
                let nnz = csb.block_nnz(k, c);
                let b = k * 2 + c;
                assert_eq!(nnz, csb.mask().rank((b + 1) * 9) - csb.mask().rank(b * 9));
                total += nnz;
            }
        }
        assert_eq!(total, csb.nnz());
        // The pointer array is the mask's prefix popcount at block
        // boundaries, the sentinel included.
        assert_eq!(csb.ptr.len(), 9);
        for (b, &p) in csb.ptr.iter().enumerate() {
            assert_eq!(p as usize, csb.mask().rank(b * 9), "block {b}");
        }
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
        for (i, &v) in csb.mask().iter_ones().zip(&csb.data) {
            assert_eq!(v, w.data()[i], "slot {i}");
            assert_ne!(v, 0.0);
            count += 1;
        }
        assert_eq!(csb.mask().iter_ones().count(), count);
        assert_eq!(count, csb.nnz());
        assert_eq!(count, w.len() - w.count_zeros());
        assert_eq!(csb.density(), count as f64 / w.len() as f64);
    }

    #[test]
    fn storage_accounting_beats_dense_at_high_sparsity() {
        let w = sparse_conv_weights(32, 32, 3, 3, 0.1, 7);
        let csb = CsbTensor::from_dense_conv(&w);
        // Dense storage is 4 bytes per slot.
        assert!(csb.total_bytes() < w.len() * 4 / 2);
        assert_eq!(csb.data_bytes(), csb.nnz() * 4);
        // 9 bits per block, packed across blocks into 32-bit words.
        assert_eq!(csb.mask_bytes(), 32 * 32 * 9 / 32 * 4);
        assert_eq!(csb.ptr_bytes(), (32 * 32 + 1) * 4);
        // A mask that ends mid-word rounds once, not per block.
        let fig8 = CsbTensor::from_dense_conv(&Tensor::ones(&[1, 1, 3, 3]));
        assert_eq!(fig8.mask_bytes(), 4);
        let fc = CsbTensor::from_dense_conv(&Tensor::ones(&[3, 11, 1, 1]));
        assert_eq!(fc.mask_bytes(), 8);
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

    /// The encoder walks the flat slice once; the element-wise encoder it
    /// replaced read every weight through `Tensor::at`, block by block.
    /// Same `ptr`, `mask` and `data` on square, 1×1 and non-square
    /// filters.
    #[test]
    fn flat_slice_encoding_equals_the_element_wise_one() {
        for (seed, dims) in [[4, 3, 3, 3], [2, 5, 1, 1], [3, 2, 3, 2], [1, 1, 5, 5]]
            .into_iter()
            .enumerate()
        {
            let w = sparse_conv_weights(dims[0], dims[1], dims[2], dims[3], 0.3, 40 + seed as u64);
            let [k, c, r, s] = dims;
            let (mut ptr, mut mask, mut data) = (vec![0u32], BitMask::zeros(w.len()), Vec::new());
            for gi in 0..k {
                for gj in 0..c {
                    for bi in 0..r {
                        for bj in 0..s {
                            let v = w.at(&[gi, gj, bi, bj]);
                            if v != 0.0 {
                                mask.set(((gi * c + gj) * r + bi) * s + bj, true);
                                data.push(v);
                            }
                        }
                    }
                    ptr.push(data.len() as u32);
                }
            }
            let want = CsbTensor {
                dims,
                ptr,
                mask,
                data,
            };
            assert!(CsbTensor::from_dense_conv(&w) == want, "conv {dims:?}");
        }
    }
}
