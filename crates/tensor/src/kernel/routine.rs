//! The routine layer: the one executable GEMM kernel every blueprint is
//! served by.
//!
//! The kernel runs one [`MR`]×[`NR`] register tile: rhs is packed one
//! `KC×NR` panel (`KC` = 128 reduction rows) at a time into [`Scratch`]-pooled, ping-pong
//! (double-buffered) staging buffers, and each output tile is
//! accumulated in a register-resident array the autovectorizer maps
//! onto SIMD lanes. The packed panel is reused across every i-tile of
//! the current j-panel; the lhs is read in place, strided on `Tn`.
//!
//! # Bitwise equality
//!
//! The kernel honours the accumulation-order contract from
//! [`crate::kernel`]: per output element, partial products are reduced
//! left-to-right in ascending `p`, starting from `0.0`. It splits `p`
//! into `KC`-sized blocks, but blocks are visited in ascending order
//! and each accumulator is carried through memory between blocks — no
//! element's sum ever re-associates. It skips terms whose lhs operand
//! is exactly zero (bitwise-neutral on finite data, and what the CSB
//! kernels do by construction).

use super::blueprint::{Blueprint, Op};
use super::cols::{for_each_run, ColsView};
use super::thread::{chunk, MAX_PIECES};
use crate::scratch::Scratch;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicPtr, AtomicU32, Ordering};

/// Output-tile rows held in registers per microkernel call. Ragged
/// rows run the same kernel one row at a time.
///
/// A taller 64-wide tile measured slower on every pinned shape (256³:
/// 44.7 / 36.9 / 33.8 GFLOP/s for 2 / 4 / 6 rows on an AVX-512 host).
pub const MR: usize = 2;

/// Output-tile columns, the packed panel width: the width at which the
/// autovectorizer emits full-width fused loads and FMAs. A 16-wide tile
/// compiled to scalar code on the same host (4–6 GFLOP/s against 40–57).
pub const NR: usize = 64;

/// Reduction block: rhs is packed and consumed `KC` rows at a time, so
/// the active `KC×NR` panel (32 KiB) stays L1-resident.
pub(crate) const KC: usize = 128;

/// Where a product's rhs comes from: a materialised matrix, or the
/// padded planes of a convolution read as one (see [`super::cols`]).
/// Only the kernel's pack step tells them apart.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Rhs<'a> {
    /// Row-major `[k, n]` (`Nn`, `Tn`) or `[n, k]` (`Nt`).
    Slice(&'a [f32]),
    /// The `[C·R·S, N·P·Q]` columns as the `[k, n]` rhs of an `Nn`
    /// product (the forward and backward-input convolutions).
    Cols(ColsView<'a>),
}

/// A rectangular region of the output a single worker computes:
/// rows `i0..i1` × columns `j0..j1` of the `[m, n]` destination.
///
/// The serial tier always runs the full slab; the threaded tier (see
/// [`super::thread`]) cuts the output into disjoint slabs, its pieces,
/// which the workers claim. Every kernel
/// below reaches `dst` only through its [`SlabMut`] and reduces each
/// element in ascending `p` exactly as the full-problem loop would, so
/// slab boundaries never perturb a result bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slab {
    pub(crate) i0: usize,
    pub(crate) i1: usize,
    pub(crate) j0: usize,
    pub(crate) j1: usize,
}

impl Slab {
    /// The whole output of `bp` — what the serial tier runs.
    pub(crate) fn full(bp: &Blueprint) -> Self {
        Self {
            i0: 0,
            i1: bp.m,
            j0: 0,
            j1: bp.n,
        }
    }

    fn overlaps(&self, other: &Slab) -> bool {
        self.i0 < other.i1 && other.i0 < self.i1 && self.j0 < other.j1 && other.j0 < self.j1
    }
}

/// One worker's exclusive view of its [`Slab`] of a row-major `[m, n]`
/// destination: the only way a kernel touches `dst`.
///
/// A view never yields a reference to the destination as a whole, only
/// [`row`](Self::row) segments inside its slab, so the workers of one
/// product — each holding views of disjoint slabs, see [`SlabDeal`] —
/// never hold references to the same element, and a kernel that strays
/// outside its slab panics instead of racing.
pub(crate) struct SlabMut<'a> {
    /// Element `[0, 0]` of the destination.
    base: *mut f32,
    /// Row pitch of the destination.
    n: usize,
    slab: Slab,
    dst: PhantomData<&'a mut [f32]>,
}

impl<'a> SlabMut<'a> {
    /// The view of the whole of `dst` — what the serial tier runs.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not `bp.m * bp.n` long.
    pub(crate) fn full(bp: &Blueprint, dst: &'a mut [f32]) -> Self {
        assert_eq!(dst.len(), bp.m * bp.n, "kernel: dst length != m*n");
        Self {
            base: dst.as_mut_ptr(),
            n: bp.n,
            slab: Slab::full(bp),
            dst: PhantomData,
        }
    }

    /// The region this view covers.
    pub(crate) fn slab(&self) -> Slab {
        self.slab
    }

    /// Columns `j..j + w` of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if the segment does not lie inside the slab.
    #[inline(always)]
    #[allow(unsafe_code)]
    pub(crate) fn row(&mut self, i: usize, j: usize, w: usize) -> &mut [f32] {
        let s = &self.slab;
        assert!(
            s.i0 <= i && i < s.i1 && s.j0 <= j && j <= s.j1 && w <= s.j1 - j,
            "kernel: row segment outside the slab"
        );
        // SAFETY: `base` comes from a `&'a mut [f32]` of `m * n`
        // elements that nothing else can use during `'a` (the view, or
        // the deal it was claimed from, holds that borrow), and both
        // constructors check that the slab lies inside `[m, n]`; with
        // the assert above the segment is therefore in bounds. No other
        // reference covers it: segments of this view borrow `self`
        // mutably, and any other view of the same destination covers a
        // slab disjoint from this one (`SlabDeal::new` asserts it and
        // `claim` hands each slab out once).
        unsafe { std::slice::from_raw_parts_mut(self.base.add(i * self.n + j), w) }
    }
}

/// The destination of one threaded product, cut into pieces for its
/// workers to claim: whichever worker asks for piece `idx` first gets
/// the view of [`chunk`]`(bp, pieces, idx)` — each piece once.
///
/// Holds the caller's `&mut [f32]` for as long as any view lives, keeps
/// its base pointer in an atomic so that workers can share `&SlabDeal`,
/// and checks what [`SlabMut::row`] relies on — the pieces lie inside
/// the destination and are pairwise disjoint, and none is handed out
/// twice — itself, rather than trusting the geometry or the claim
/// counter.
pub(crate) struct SlabDeal<'a> {
    base: AtomicPtr<f32>,
    n: usize,
    pieces: usize,
    slabs: [Slab; MAX_PIECES],
    /// Bit `idx` is set once piece `idx` has been claimed.
    claimed: AtomicU32,
    dst: PhantomData<&'a mut [f32]>,
}

impl<'a> SlabDeal<'a> {
    /// Cuts `dst` into the `pieces` chunks of `bp`.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not `bp.m * bp.n` long, if `pieces` is not in
    /// `1..=MAX_PIECES`, or if the chunks leave the destination or
    /// overlap (a bug in `chunk`).
    pub(crate) fn new(bp: &Blueprint, pieces: usize, dst: &'a mut [f32]) -> Self {
        assert_eq!(dst.len(), bp.m * bp.n, "kernel: dst length != m*n");
        assert!((1..=MAX_PIECES).contains(&pieces));
        let mut slabs = [Slab::full(bp); MAX_PIECES];
        for idx in 0..pieces {
            let slab = chunk(bp, pieces, idx);
            assert!(
                slab.i0 <= slab.i1 && slab.i1 <= bp.m && slab.j0 <= slab.j1 && slab.j1 <= bp.n,
                "kernel: chunk {idx} leaves the output"
            );
            assert!(
                slabs[..idx].iter().all(|other| !slab.overlaps(other)),
                "kernel: chunk {idx} overlaps another"
            );
            slabs[idx] = slab;
        }
        Self {
            base: AtomicPtr::new(dst.as_mut_ptr()),
            n: bp.n,
            pieces,
            slabs,
            claimed: AtomicU32::new(0),
            dst: PhantomData,
        }
    }

    /// The view of piece `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not a piece of this deal or has been claimed
    /// already.
    pub(crate) fn claim(&self, idx: usize) -> SlabMut<'_> {
        assert!(idx < self.pieces, "kernel: no piece {idx}");
        // Relaxed is enough on both atomics: the read-modify-write lets
        // one claimant per bit through whatever the ordering, and `base`
        // is written once, before the deal can be shared.
        let before = self.claimed.fetch_or(1 << idx, Ordering::Relaxed);
        assert!(
            before & (1 << idx) == 0,
            "kernel: piece {idx} claimed twice"
        );
        SlabMut {
            base: self.base.load(Ordering::Relaxed),
            n: self.n,
            slab: self.slabs[idx],
            dst: PhantomData,
        }
    }
}

/// Runs the packed kernel on one output slab of the problem described
/// by `bp` — the serial tier passes the view of the whole destination.
/// [`execute_slabs`] for one slab.
///
/// # Panics
///
/// As [`execute_slabs`].
pub(crate) fn execute_slab(
    bp: &Blueprint,
    dst: SlabMut<'_>,
    lhs: &[f32],
    rhs: Rhs<'_>,
    scratch: &mut Scratch,
) {
    execute_slabs(bp, std::iter::once(dst), lhs, rhs, scratch);
}

/// Runs the packed kernel on every output slab `slabs` yields of the
/// problem described by `bp`: each worker of the threaded tier (see
/// [`super::thread`]) passes the views of the pieces it claims, of
/// which it writes only those regions.
///
/// Each slab is overwritten entirely (stale contents are permitted).
/// The rhs panels are staged through `scratch`: taken once, before the
/// first slab is asked for — so a worker that gets none still takes the
/// same sizes — and recycled at the end, so a caller that recycles its
/// buffers sees zero steady-state allocations here.
///
/// # Panics
///
/// Panics if a slice length disagrees with the blueprint, or if a
/// column view is the rhs of anything but an `Nn` product.
pub(crate) fn execute_slabs<'d>(
    bp: &Blueprint,
    slabs: impl Iterator<Item = SlabMut<'d>>,
    lhs: &[f32],
    rhs: Rhs<'_>,
    scratch: &mut Scratch,
) {
    assert_eq!(lhs.len(), bp.lhs_len(), "kernel: lhs length != m*k");
    match rhs {
        Rhs::Slice(b) => assert_eq!(b.len(), bp.rhs_len(), "kernel: rhs length != k*n"),
        Rhs::Cols(v) => {
            assert_eq!(
                bp.op,
                Op::Nn,
                "kernel: a column view can only be the rhs of an nn product"
            );
            assert_eq!(
                (v.rows(), v.cols()),
                (bp.k, bp.n),
                "kernel: view extents != rhs"
            );
        }
    }
    // Ping-pong staging: two pooled panels, alternated per packed
    // block, so the pack of one panel never overwrites the lines the
    // previous block's tail tiles are still streaming from.
    let len = KC.min(bp.k) * NR;
    let mut panels = [scratch.take_any(len), scratch.take_any(len)];
    for mut dst in slabs {
        let slab = dst.slab();
        debug_assert!(
            dst.n == bp.n && slab.i1 <= bp.m && slab.j1 <= bp.n,
            "kernel: view of another output"
        );
        run_packed(&mut dst, lhs, rhs, bp, &mut panels);
    }
    let [p0, p1] = panels;
    scratch.recycle_vec(p0);
    scratch.recycle_vec(p1);
}

/// The packed register-tiled kernel.
///
/// Loop structure (outer to inner): j-panels of `NR` columns → k-blocks
/// of [`KC`] (rhs panel packed once per block, reused by every i-tile) →
/// i-tiles of `MR` rows (one-row tail). Accumulators live in a
/// `[[f32; NR]; MR]` array; the first k-block stores them directly
/// (never reading stale `dst`), later blocks reload and continue, so
/// each output element sees its terms in ascending `p` exactly once.
fn run_packed(
    dst: &mut SlabMut<'_>,
    lhs: &[f32],
    rhs: Rhs<'_>,
    bp: &Blueprint,
    panels: &mut [Vec<f32>; 2],
) {
    let (m, k, n) = (bp.m, bp.k, bp.n);
    let slab = dst.slab();
    if k == 0 {
        for i in slab.i0..slab.i1 {
            dst.row(i, slab.j0, slab.j1 - slab.j0).fill(0.0);
        }
        return;
    }
    // Lhs element (row, p) lives at row*rs + p*cs: row-major [m, k] for
    // Nn/Nt, column-walked [k, m] for Tn (the untransposed view).
    let (rs, cs) = match bp.op {
        Op::Tn => (1, m),
        Op::Nn | Op::Nt => (k, 1),
    };
    let kc_blk = KC.min(k);
    let mut which = 0usize;
    let mut j = slab.j0;
    while j < slab.j1 {
        let jw = NR.min(slab.j1 - j);
        let mut k0 = 0;
        while k0 < k {
            let kc = kc_blk.min(k - k0);
            let panel = &mut panels[which];
            which ^= 1;
            match (rhs, bp.op) {
                (Rhs::Slice(b), Op::Nt) => pack_rhs_t(panel, b, k0, kc, j, jw, k),
                (Rhs::Slice(b), Op::Nn | Op::Tn) => pack_rhs_n(panel, b, k0, kc, j, jw, n),
                // A view is only ever the rhs of an `Nn` product.
                (Rhs::Cols(v), _) => pack_cols_n(panel, &v, k0, kc, j, jw),
            }
            let first = k0 == 0;
            let mut i = slab.i0;
            while i + MR <= slab.i1 {
                tile::<MR>(dst, lhs, rs, cs, i, j, jw, k0, kc, panel, first);
                i += MR;
            }
            while i < slab.i1 {
                tile::<1>(dst, lhs, rs, cs, i, j, jw, k0, kc, panel, first);
                i += 1;
            }
            k0 += kc;
        }
        j += NR;
    }
}

/// One `R×NR` output tile (`R` = [`MR`], or 1 for a ragged row): load
/// (unless first k-block), accumulate the block, store.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile<const R: usize>(
    dst: &mut SlabMut<'_>,
    lhs: &[f32],
    rs: usize,
    cs: usize,
    i: usize,
    j: usize,
    jw: usize,
    k0: usize,
    kc: usize,
    panel: &[f32],
    first: bool,
) {
    let mut acc = [[0.0f32; NR]; R];
    if !first {
        for (mi, accm) in acc.iter_mut().enumerate() {
            accm[..jw].copy_from_slice(dst.row(i + mi, j, jw));
        }
    }
    micro::<R>(&mut acc, lhs, rs, cs, i, k0, kc, panel);
    for (mi, accm) in acc.iter().enumerate() {
        dst.row(i + mi, j, jw).copy_from_slice(&accm[..jw]);
    }
}

/// The innermost loop: `kc` reduction steps over an `R×NR` register
/// tile against a packed panel. Written so the `jr` loop vectorizes to
/// full-width fused loads/FMAs; the lhs operand is read directly with
/// strided indexing (packing lhs measurably defeats the
/// autovectorizer).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro<const R: usize>(
    acc: &mut [[f32; NR]; R],
    lhs: &[f32],
    rs: usize,
    cs: usize,
    i: usize,
    k0: usize,
    kc: usize,
    panel: &[f32],
) {
    for p in 0..kc {
        let bpp = &panel[p * NR..(p + 1) * NR];
        for (mi, accm) in acc.iter_mut().enumerate() {
            let av = lhs[(i + mi) * rs + (k0 + p) * cs];
            if av != 0.0 {
                for (slot, &bv) in accm.iter_mut().zip(bpp) {
                    *slot += av * bv;
                }
            }
        }
    }
}

/// Packs a `kc×jw` slab of a row-major `[k, n]` rhs into `[kc][NR]`
/// layout, zero-padding columns `jw..NR`.
fn pack_rhs_n(panel: &mut [f32], b: &[f32], k0: usize, kc: usize, j: usize, jw: usize, n: usize) {
    for p in 0..kc {
        let src = &b[(k0 + p) * n + j..(k0 + p) * n + j + jw];
        let dst = &mut panel[p * NR..p * NR + NR];
        dst[..jw].copy_from_slice(src);
        dst[jw..].fill(0.0);
    }
}

/// Packs a `kc×jw` slab of a transposed rhs (`bt: [n, k]`, so
/// `b[p][j+jr] = bt[j+jr][p]`) into the same `[kc][NR]` layout —
/// reading `bt` along its contiguous rows.
fn pack_rhs_t(panel: &mut [f32], bt: &[f32], k0: usize, kc: usize, j: usize, jw: usize, k: usize) {
    for jr in 0..NR {
        if jr < jw {
            let src = &bt[(j + jr) * k + k0..(j + jr) * k + k0 + kc];
            for (p, &v) in src.iter().enumerate() {
                panel[p * NR + jr] = v;
            }
        } else {
            for p in 0..kc {
                panel[p * NR + jr] = 0.0;
            }
        }
    }
}

/// [`pack_rhs_n`] out of a column view: row `p` of the panel is row
/// `k0 + p` of the columns, `cols[k0 + p][j..j + jw]`, which the planes
/// hold as one run per output row the panel crosses — so the panel is
/// filled run by run, every reduction row copying the same runs from
/// its own tap's base.
fn pack_cols_n(panel: &mut [f32], v: &ColsView<'_>, k0: usize, kc: usize, j: usize, jw: usize) {
    let bases = &v.row_base[k0..k0 + kc];
    if jw < NR {
        for row in panel[..kc * NR].chunks_exact_mut(NR) {
            row[jw..].fill(0.0);
        }
    }
    let offsets = &v.col_off[j..j + jw];
    for_each_run(offsets, v.step, |at, len| {
        let rows = panel[..kc * NR].chunks_exact_mut(NR);
        if v.step == 1 {
            for (row, &base) in rows.zip(bases) {
                row[at..at + len].copy_from_slice(&v.src[base + offsets[at]..][..len]);
            }
        } else {
            for (row, &base) in rows.zip(bases) {
                let run = v.src[base + offsets[at]..].iter().step_by(v.step);
                for (slot, &x) in row[at..at + len].iter_mut().zip(run) {
                    *slot = x;
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::gemm;
    use crate::kernel::thread::MAX_WORKERS;
    use crate::reference::matmul_ikj;
    use procrustes_prng::{UniformRng, Xorshift64};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn sparse_mat(len: usize, keep: f64, seed: u64) -> Vec<f32> {
        let mut rng = Xorshift64::new(seed);
        (0..len)
            .map(|_| {
                if rng.next_f64() < keep {
                    rng.next_f32() * 2.0 - 1.0
                } else {
                    0.0
                }
            })
            .collect()
    }

    fn reference_for(bp: &Blueprint, lhs: &[f32], rhs: &[f32]) -> Vec<f32> {
        // Materialize untransposed operands and run the naive loop.
        let (m, k, n) = (bp.m, bp.k, bp.n);
        let a: Vec<f32> = match bp.op {
            Op::Tn => {
                let mut a = vec![0.0f32; m * k];
                for p in 0..k {
                    for i in 0..m {
                        a[i * k + p] = lhs[p * m + i];
                    }
                }
                a
            }
            _ => lhs.to_vec(),
        };
        let b: Vec<f32> = match bp.op {
            Op::Nt => {
                let mut b = vec![0.0f32; k * n];
                for jj in 0..n {
                    for p in 0..k {
                        b[p * n + jj] = rhs[jj * k + p];
                    }
                }
                b
            }
            _ => rhs.to_vec(),
        };
        matmul_ikj(&a, &b, m, k, n)
    }

    /// Every op over ragged tiles and panels, and across the `KC`
    /// block edge: `k = 129` and `k = 144` run as 128 + 1 and 128 + 16,
    /// carrying each accumulator through `dst` between the blocks.
    #[test]
    fn every_supported_tile_matches_reference_bitwise() {
        let mut scratch = Scratch::new();
        let shapes = [
            (5, 7, 17),
            (13, 21, 40),
            (4, 3, 16),
            (9, 33, 65),
            (1, 5, 3),
            (5, 127, 17),
            (4, 128, 64),
            (9, 129, 65),
            (3, 144, 130),
        ];
        for &(m, k, n) in &shapes {
            for op in [Op::Nn, Op::Nt, Op::Tn] {
                let bp = Blueprint {
                    m,
                    k,
                    n,
                    op,
                    threads: 1,
                };
                let lhs = sparse_mat(bp.lhs_len(), 0.5, (m * 31 + n) as u64);
                let rhs = sparse_mat(bp.rhs_len(), 0.9, (k * 17 + n + 1) as u64);
                let want = reference_for(&bp, &lhs, &rhs);
                let mut got = vec![f32::NAN; m * n];
                gemm(&bp, &mut got, &lhs, &rhs, &mut scratch);
                assert!(
                    got.iter()
                        .zip(&want)
                        .all(|(g, w)| g.to_bits() == w.to_bits()),
                    "{} {m}x{k}x{n}",
                    op.tag()
                );
            }
        }
    }

    /// The fc2 products of a tiny-VGG step (`Nt 8×64×10` forward,
    /// `Nn 8×10×64` backward-input, `Tn 10×8×64` weight update), fc1's
    /// weight update (`Tn 64×8×1024`) and a 4³ product per op: far
    /// narrower than one panel, or a reduction over the batch alone.
    #[test]
    fn tiny_fc_products_match_reference() {
        let mut scratch = Scratch::new();
        let shapes = [
            Blueprint::nt(8, 64, 10),
            Blueprint::nn(8, 10, 64),
            Blueprint::tn(10, 8, 64),
            Blueprint::tn(64, 8, 1024),
            Blueprint::nn(4, 4, 4),
            Blueprint::nt(4, 4, 4),
            Blueprint::tn(4, 4, 4),
        ];
        for (seed, bp) in shapes.iter().enumerate() {
            let lhs = sparse_mat(bp.lhs_len(), 0.4, 2 * seed as u64 + 3);
            let rhs = sparse_mat(bp.rhs_len(), 0.9, 2 * seed as u64 + 4);
            let want = reference_for(bp, &lhs, &rhs);
            let mut got = vec![f32::NAN; bp.m * bp.n];
            gemm(bp, &mut got, &lhs, &rhs, &mut scratch);
            assert!(
                got.iter()
                    .zip(&want)
                    .all(|(g, w)| g.to_bits() == w.to_bits()),
                "{} {}x{}x{}",
                bp.op.tag(),
                bp.m,
                bp.k,
                bp.n
            );
        }
    }

    #[test]
    fn k_zero_zeroes_dst() {
        let mut scratch = Scratch::new();
        let bp = Blueprint::nn(3, 0, 5);
        let mut dst = vec![f32::NAN; 15];
        gemm(&bp, &mut dst, &[], &[], &mut scratch);
        assert_eq!(dst, vec![0.0; 15]);
    }

    #[test]
    fn a_view_yields_only_segments_inside_its_slab() {
        let bp = Blueprint::nn(4, 1, 256);
        let mut dst = vec![0.0f32; 4 * 256];
        {
            let deal = SlabDeal::new(&bp, 2, &mut dst);
            let mut right = deal.claim(1);
            assert_eq!((right.slab().j0, right.slab().j1), (128, 256));
            right.row(3, 128, 128).fill(1.0);
            right.row(0, 256, 0).fill(1.0);
            for (i, j, w) in [(0, 127, 1), (0, 0, 128), (0, 200, 57), (4, 128, 1)] {
                let strayed = catch_unwind(AssertUnwindSafe(|| right.row(i, j, w).len()));
                assert!(strayed.is_err(), "row({i}, {j}, {w}) lies outside");
            }
        }
        assert_eq!(dst.iter().sum::<f32>(), 128.0);
        assert!(dst[3 * 256 + 128..].iter().all(|&v| v == 1.0));
    }

    #[test]
    fn a_slab_is_claimed_once_and_only_by_a_worker_of_the_deal() {
        let bp = Blueprint::nn(8, 1, 256);
        let mut dst = vec![0.0f32; 8 * 256];
        let deal = SlabDeal::new(&bp, 3, &mut dst);
        let views: Vec<SlabMut<'_>> = (0..3).map(|idx| deal.claim(idx)).collect();
        for (idx, view) in views.iter().enumerate() {
            assert_eq!(view.slab(), chunk(&bp, 3, idx));
        }
        for idx in [0, 2, 3, MAX_WORKERS] {
            let again = catch_unwind(AssertUnwindSafe(|| deal.claim(idx).slab()));
            assert!(again.is_err(), "slab {idx} claimed twice or from nowhere");
        }
    }

    /// A column view feeds only `Nn` products; the weight update reads
    /// the planes through its own kernel, so `Nt` is refused like `Tn`.
    #[test]
    fn a_view_is_only_the_rhs_of_an_nn_product() {
        let src = [1.0f32, 2.0, 3.0];
        let view = ColsView {
            src: &src,
            row_base: &[0, 1],
            col_off: &[0, 1],
            step: 1,
        };
        let mut scratch = Scratch::new();
        let mut dst = [0.0f32; 4];
        let nn = Blueprint::nn(2, 2, 2);
        let lhs = [1.0f32, 0.0, 0.0, 1.0];
        let full = SlabMut::full(&nn, &mut dst);
        execute_slab(&nn, full, &lhs, Rhs::Cols(view), &mut scratch);
        assert_eq!(dst, [1.0, 2.0, 2.0, 3.0]);
        for bp in [Blueprint::nt(2, 2, 2), Blueprint::tn(2, 2, 2)] {
            let refused = catch_unwind(AssertUnwindSafe(|| {
                let full = SlabMut::full(&bp, &mut dst);
                execute_slab(&bp, full, &lhs, Rhs::Cols(view), &mut scratch);
            }));
            assert!(refused.is_err(), "a view fed a {} product", bp.op.tag());
        }
    }
}
