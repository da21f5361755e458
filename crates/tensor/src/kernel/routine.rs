//! The routine layer: the executable GEMM kernels a blueprint can be
//! served by.
//!
//! A [`Routine`] is a concrete compute strategy — a plain-data value
//! naming one of the kernels below plus its reduction block `kc`. The
//! [selector](super::selector) picks one per [`Blueprint`]; [`execute`]
//! runs it. Both run the one [`MR`]×[`NR`] register tile: rhs is packed
//! one `kc×NR` panel at a time into [`Scratch`]-pooled, ping-pong
//! (double-buffered) staging buffers, and each output tile is
//! accumulated in a register-resident array the autovectorizer maps
//! onto SIMD lanes. The packed panel is reused across every i-tile of
//! the current j-panel. [`Routine::PackedLhs`] additionally packs the
//! `Tn` layout's strided lhs.
//!
//! # Bitwise equality
//!
//! Both routines honour the accumulation-order contract from
//! [`crate::kernel`]: per output element, partial products are reduced
//! left-to-right in ascending `p`, starting from `0.0`. They split `p`
//! into `kc`-sized blocks, but blocks are visited in ascending order
//! and each accumulator is carried through memory between blocks — no
//! element's sum ever re-associates. Both skip terms whose lhs operand
//! is exactly zero (bitwise-neutral on finite data, and what the CSB
//! kernels do by construction).

use super::blueprint::{Blueprint, Op};
use super::cols::{for_each_run, ColsView};
use super::thread::{chunk, MAX_WORKERS};
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

/// A concrete kernel choice: strategy plus reduction block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Routine {
    /// Register-tiled kernel over packed rhs panels (all ops).
    Packed {
        /// Reduction block: rhs is packed and consumed `kc` rows at a
        /// time so the active panel stays cache-resident.
        kc: u16,
    },
    /// Register-tiled kernel over packed rhs panels **and** a packed
    /// `[kc][MR]` lhs (`Tn` only).
    ///
    /// The `Tn` layout stores lhs as `at: [k, m]`, so the plain
    /// [`Routine::Packed`] microkernel reads it with stride `m` — one
    /// cache line touched per element on the fc weight-update shapes.
    /// This variant pre-packs the full-`MR` row tiles once per call
    /// into `[kc][MR]` panels the microkernel walks contiguously;
    /// `m % MR` tail rows keep the strided path. Same reduction order,
    /// bitwise-identical results.
    PackedLhs {
        /// Reduction block shared by the lhs and rhs packs.
        kc: u16,
    },
}

impl Routine {
    /// Whether this routine can serve the given blueprint: `Packed`
    /// serves every op, `PackedLhs` only `Tn`; neither runs with an
    /// empty reduction block.
    pub fn supports(&self, bp: &Blueprint) -> bool {
        match self {
            Routine::Packed { kc } => *kc > 0,
            Routine::PackedLhs { kc } => bp.op == Op::Tn && *kc > 0,
        }
    }

    /// Human-readable tag for benchmark attribution, e.g.
    /// `packed-2x64/kc256`.
    pub fn describe(&self) -> String {
        match self {
            Routine::Packed { kc } => format!("packed-{MR}x{NR}/kc{kc}"),
            Routine::PackedLhs { kc } => format!("packed-lhs-{MR}x{NR}/kc{kc}"),
        }
    }
}

/// Where a product's rhs comes from: a materialised matrix, or the
/// padded planes of a convolution read as one (see [`super::cols`]).
/// Only the pack step of [`Routine::Packed`] tells them apart.
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
/// [`super::thread`]) hands each worker a disjoint slab. Every kernel
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
/// product — each holding the view of a disjoint slab, see
/// [`SlabDeal`] — never hold references to the same element, and a
/// kernel that strays outside its slab panics instead of racing.
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

/// Deals the destination of one threaded product out to its workers:
/// worker `idx` [`claim`](Self::claim)s the view of
/// [`chunk`]`(bp, workers, idx)`, once.
///
/// Holds the caller's `&mut [f32]` for as long as any view lives, keeps
/// its base pointer in an atomic so that workers can share `&SlabDeal`,
/// and checks what [`SlabMut::row`] relies on — the chunks lie inside
/// the destination and are pairwise disjoint — itself, at construction,
/// rather than trusting the geometry code.
pub(crate) struct SlabDeal<'a> {
    base: AtomicPtr<f32>,
    n: usize,
    workers: usize,
    slabs: [Slab; MAX_WORKERS],
    /// Bit `idx` is set once worker `idx` has claimed its view.
    claimed: AtomicU32,
    dst: PhantomData<&'a mut [f32]>,
}

impl<'a> SlabDeal<'a> {
    /// Cuts `dst` into the `workers` chunks of `bp`.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not `bp.m * bp.n` long, if `workers` is not in
    /// `1..=MAX_WORKERS`, or if the chunks leave the destination or
    /// overlap (a bug in `chunk`).
    pub(crate) fn new(bp: &Blueprint, workers: usize, dst: &'a mut [f32]) -> Self {
        assert_eq!(dst.len(), bp.m * bp.n, "kernel: dst length != m*n");
        assert!((1..=MAX_WORKERS).contains(&workers));
        let mut slabs = [Slab::full(bp); MAX_WORKERS];
        for idx in 0..workers {
            let slab = chunk(bp, workers, idx);
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
            workers,
            slabs,
            claimed: AtomicU32::new(0),
            dst: PhantomData,
        }
    }

    /// Worker `idx`'s view.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not a worker of this deal or has claimed
    /// already.
    pub(crate) fn claim(&self, idx: usize) -> SlabMut<'_> {
        assert!(idx < self.workers, "kernel: no worker {idx}");
        // Relaxed is enough on both atomics: the read-modify-write lets
        // one claimant per bit through whatever the ordering, and `base`
        // is written once, before the deal can be shared.
        let before = self.claimed.fetch_or(1 << idx, Ordering::Relaxed);
        assert!(before & (1 << idx) == 0, "kernel: slab {idx} claimed twice");
        SlabMut {
            base: self.base.load(Ordering::Relaxed),
            n: self.n,
            slab: self.slabs[idx],
            dst: PhantomData,
        }
    }
}

/// Runs `routine` on the problem described by `bp`.
///
/// `dst` is overwritten entirely (stale contents are permitted). The
/// packed kernels stage rhs panels through `scratch`, so a caller that
/// recycles its buffers sees zero steady-state allocations here.
///
/// # Panics
///
/// Panics if a slice length disagrees with the blueprint, or if the
/// routine does not [support](Routine::supports) the blueprint (the
/// selector never produces such a pairing).
pub fn execute(
    routine: Routine,
    bp: &Blueprint,
    dst: &mut [f32],
    lhs: &[f32],
    rhs: &[f32],
    scratch: &mut Scratch,
) {
    let rhs = Rhs::Slice(rhs);
    execute_slab(routine, bp, SlabMut::full(bp, dst), lhs, rhs, scratch);
}

/// [`execute`] restricted to one output slab — the worker-side entry
/// point of the threaded tier. The full view reproduces `execute`
/// exactly; a partial one writes only its own region of the
/// destination.
pub(crate) fn execute_slab(
    routine: Routine,
    bp: &Blueprint,
    mut dst: SlabMut<'_>,
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
    assert!(
        routine.supports(bp),
        "kernel: routine {} cannot serve op={}",
        routine.describe(),
        bp.op.tag()
    );
    let slab = dst.slab();
    debug_assert!(
        dst.n == bp.n && slab.i1 <= bp.m && slab.j1 <= bp.n,
        "kernel: view of another output"
    );
    let dst = &mut dst;
    match (routine, rhs) {
        (Routine::Packed { kc }, rhs) => run_packed(dst, lhs, rhs, bp, kc as usize, scratch),
        (Routine::PackedLhs { kc }, Rhs::Slice(b)) => {
            run_packed_lhs(dst, lhs, b, bp, kc as usize, scratch)
        }
        // `PackedLhs` serves only `Tn`, which the view check refused.
        (Routine::PackedLhs { .. }, Rhs::Cols(_)) => unreachable!(),
    }
}

/// Zeroes exactly the view's region (the `k == 0` product).
fn zero_slab(dst: &mut SlabMut<'_>) {
    let slab = dst.slab();
    for i in slab.i0..slab.i1 {
        dst.row(i, slab.j0, slab.j1 - slab.j0).fill(0.0);
    }
}

/// The packed register-tiled kernel.
///
/// Loop structure (outer to inner): j-panels of `NR` columns → k-blocks
/// of `kc` (rhs panel packed once per block, reused by every i-tile) →
/// i-tiles of `MR` rows (one-row tail). Accumulators live in a
/// `[[f32; NR]; MR]` array; the first k-block stores them directly
/// (never reading stale `dst`), later blocks reload and continue, so
/// each output element sees its terms in ascending `p` exactly once.
fn run_packed(
    dst: &mut SlabMut<'_>,
    lhs: &[f32],
    rhs: Rhs<'_>,
    bp: &Blueprint,
    kc_blk: usize,
    scratch: &mut Scratch,
) {
    let (m, k, n) = (bp.m, bp.k, bp.n);
    if k == 0 {
        zero_slab(dst);
        return;
    }
    let slab = dst.slab();
    // Lhs element (row, p) lives at row*rs + p*cs: row-major [m, k] for
    // Nn/Nt, column-walked [k, m] for Tn (the untransposed view).
    let (rs, cs) = match bp.op {
        Op::Tn => (1, m),
        Op::Nn | Op::Nt => (k, 1),
    };
    let kc_blk = kc_blk.min(k).max(1);
    // Ping-pong staging: two pooled panels, alternated per packed
    // block, so the pack of one panel never overwrites the lines the
    // previous block's tail tiles are still streaming from.
    let mut panels = [scratch.take_any(kc_blk * NR), scratch.take_any(kc_blk * NR)];
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
    let [p0, p1] = panels;
    scratch.recycle_vec(p0);
    scratch.recycle_vec(p1);
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

/// The packed-lhs `Tn` kernel: [`run_packed`]'s loop structure plus a
/// one-time pre-pack of every full-`MR` lhs tile.
///
/// The `Tn` lhs is `at: [k, m]`, so the strided microkernel touches one
/// cache line per element. Here the full-`MR` row tiles are packed once
/// per call into `[kblock][tile][p][MR]` panels (each block padded to
/// `kc_blk` reduction rows so the per-block stride is uniform; the
/// padding is never read — every consumer stops at the block's true
/// `kc`), and the microkernel walks them contiguously. `m % MR` tail
/// rows keep the strided path. Reduction order is unchanged —
/// k-blocks ascend and each accumulator is carried through `dst`
/// between blocks — so results are bitwise-identical to
/// [`Routine::Packed`].
fn run_packed_lhs(
    dst: &mut SlabMut<'_>,
    lhs: &[f32],
    rhs: &[f32],
    bp: &Blueprint,
    kc_blk: usize,
    scratch: &mut Scratch,
) {
    debug_assert_eq!(bp.op, Op::Tn);
    let (m, k, n) = (bp.m, bp.k, bp.n);
    if k == 0 {
        zero_slab(dst);
        return;
    }
    let slab = dst.slab();
    let kc_blk = kc_blk.min(k).max(1);
    // Only this slab's rows are packed: tile t covers rows
    // slab.i0 + t*MR .. + MR, so per-worker pack cost scales with the
    // slab, not the full problem.
    let tiles = (slab.i1 - slab.i0) / MR;
    let kblocks = k.div_ceil(kc_blk);
    let mut apack = scratch.take_any(kblocks * tiles * kc_blk * MR);
    for kb in 0..kblocks {
        let k0 = kb * kc_blk;
        let kc = kc_blk.min(k - k0);
        for t in 0..tiles {
            let base = (kb * tiles + t) * kc_blk * MR;
            for p in 0..kc {
                let row = (k0 + p) * m + slab.i0 + t * MR;
                apack[base + p * MR..base + (p + 1) * MR].copy_from_slice(&lhs[row..row + MR]);
            }
        }
    }
    let mut panels = [scratch.take_any(kc_blk * NR), scratch.take_any(kc_blk * NR)];
    let mut which = 0usize;
    let mut j = slab.j0;
    while j < slab.j1 {
        let jw = NR.min(slab.j1 - j);
        let mut k0 = 0;
        let mut kb = 0;
        while k0 < k {
            let kc = kc_blk.min(k - k0);
            let panel = &mut panels[which];
            which ^= 1;
            // Tn rhs is row-major [k, n], same pack as Nn.
            pack_rhs_n(panel, rhs, k0, kc, j, jw, n);
            let first = k0 == 0;
            for t in 0..tiles {
                let apanel = &apack[(kb * tiles + t) * kc_blk * MR..][..kc * MR];
                tile_lhs(dst, apanel, slab.i0 + t * MR, j, jw, kc, panel, first);
            }
            let mut i = slab.i0 + tiles * MR;
            while i < slab.i1 {
                tile::<1>(dst, lhs, 1, m, i, j, jw, k0, kc, panel, first);
                i += 1;
            }
            k0 += kc;
            kb += 1;
        }
        j += NR;
    }
    let [p0, p1] = panels;
    scratch.recycle_vec(p0);
    scratch.recycle_vec(p1);
    scratch.recycle_vec(apack);
}

/// One `MR×NR` output tile against a packed `[p][MR]` lhs panel:
/// [`tile`] with the strided lhs reads replaced by contiguous panel
/// reads.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile_lhs(
    dst: &mut SlabMut<'_>,
    apanel: &[f32],
    i: usize,
    j: usize,
    jw: usize,
    kc: usize,
    panel: &[f32],
    first: bool,
) {
    let mut acc = [[0.0f32; NR]; MR];
    if !first {
        for (mi, accm) in acc.iter_mut().enumerate() {
            accm[..jw].copy_from_slice(dst.row(i + mi, j, jw));
        }
    }
    for p in 0..kc {
        let bpp = &panel[p * NR..(p + 1) * NR];
        let app = &apanel[p * MR..(p + 1) * MR];
        for (mi, accm) in acc.iter_mut().enumerate() {
            let av = app[mi];
            if av != 0.0 {
                for (slot, &bv) in accm.iter_mut().zip(bpp) {
                    *slot += av * bv;
                }
            }
        }
    }
    for (mi, accm) in acc.iter().enumerate() {
        dst.row(i + mi, j, jw).copy_from_slice(&accm[..jw]);
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

    #[test]
    fn every_supported_tile_matches_reference_bitwise() {
        let mut scratch = Scratch::new();
        for &(m, k, n) in &[(5, 7, 17), (13, 21, 40), (4, 3, 16), (9, 33, 65), (1, 5, 3)] {
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
                for kc in [4u16, 16, 256] {
                    let mut routines = vec![Routine::Packed { kc }];
                    if op == Op::Tn {
                        routines.push(Routine::PackedLhs { kc });
                    }
                    for r in routines {
                        let mut got = vec![f32::NAN; m * n];
                        execute(r, &bp, &mut got, &lhs, &rhs, &mut scratch);
                        assert_eq!(got, want, "{} op={}", r.describe(), op.tag());
                    }
                }
            }
        }
    }

    /// The fc2 products of a tiny-VGG step (`Nt 8×64×10` forward,
    /// `Nn 8×10×64` backward-input, `Tn 10×8×64` weight update) and a
    /// 4³ product per op: far narrower than one panel, through every
    /// routine that serves the op.
    #[test]
    fn tiny_fc_products_match_reference() {
        let mut scratch = Scratch::new();
        let shapes = [
            Blueprint::nt(8, 64, 10),
            Blueprint::nn(8, 10, 64),
            Blueprint::tn(10, 8, 64),
            Blueprint::nn(4, 4, 4),
            Blueprint::nt(4, 4, 4),
            Blueprint::tn(4, 4, 4),
        ];
        for (seed, bp) in shapes.iter().enumerate() {
            let lhs = sparse_mat(bp.lhs_len(), 0.4, 2 * seed as u64 + 3);
            let rhs = sparse_mat(bp.rhs_len(), 0.9, 2 * seed as u64 + 4);
            let want = reference_for(bp, &lhs, &rhs);
            for r in crate::kernel::autotune::candidates().filter(|r| r.supports(bp)) {
                let mut got = vec![f32::NAN; bp.m * bp.n];
                execute(r, bp, &mut got, &lhs, &rhs, &mut scratch);
                assert!(
                    got.iter()
                        .zip(&want)
                        .all(|(g, w)| g.to_bits() == w.to_bits()),
                    "{} {}x{}x{} via {}",
                    bp.op.tag(),
                    bp.m,
                    bp.k,
                    bp.n,
                    r.describe()
                );
            }
        }
    }

    #[test]
    fn k_zero_zeroes_dst() {
        let mut scratch = Scratch::new();
        let bp = Blueprint::nn(3, 0, 5);
        let mut dst = vec![f32::NAN; 15];
        let r = Routine::Packed { kc: 256 };
        execute(r, &bp, &mut dst, &[], &[], &mut scratch);
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
        execute_slab(
            Routine::Packed { kc: 128 },
            &nn,
            full,
            &lhs,
            Rhs::Cols(view),
            &mut scratch,
        );
        assert_eq!(dst, [1.0, 2.0, 2.0, 3.0]);
        for bp in [Blueprint::nt(2, 2, 2), Blueprint::tn(2, 2, 2)] {
            let refused = catch_unwind(AssertUnwindSafe(|| {
                let full = SlabMut::full(&bp, &mut dst);
                execute_slab(
                    Routine::Packed { kc: 128 },
                    &bp,
                    full,
                    &lhs,
                    Rhs::Cols(view),
                    &mut scratch,
                );
            }));
            assert!(refused.is_err(), "a view fed a {} product", bp.op.tag());
        }
    }

    #[test]
    fn supports_gates_routines_on_op_and_tile() {
        let all = [
            Blueprint::nn(4, 4, 4),
            Blueprint::nt(4, 4, 4),
            Blueprint::tn(4, 4, 4),
        ];
        for bp in &all {
            let tn = bp.op == Op::Tn;
            assert!(Routine::Packed { kc: 128 }.supports(bp));
            assert_eq!(Routine::PackedLhs { kc: 128 }.supports(bp), tn);
            assert!(!Routine::Packed { kc: 0 }.supports(bp));
            assert!(!Routine::PackedLhs { kc: 0 }.supports(bp));
        }
    }
}
