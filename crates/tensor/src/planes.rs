//! Convolution as a layout: the padded plane set every conv product of
//! the training step reads its columns from.
//!
//! The unfold the GEMM formulation asks for — `im2col`, a
//! `[C·R·S, N·P·Q]` matrix nine times the input for a 3×3 filter — is a
//! pure re-indexing of the zero-padded input, so it is never built:
//! [`PaddedPlanes`] copies the input once into `[N, C, H+2·pad,
//! W+2·pad]` planes (1.13× a 32×32 input) and keeps the two offset
//! tables of the separable map `cols[i][t] = planes[row_base[i] +
//! col_off[t]]` (see [`kernel::cols`](crate::kernel::cols)). Three
//! consumers take it:
//!
//! - the dense forward, as the rhs of
//!   [`kernel::gemm_cols`](crate::kernel::gemm_cols) ([`view`](PaddedPlanes::view)),
//!   and the weight update, which reads each tap's value out of the same
//!   view as a broadcast operand
//!   ([`conv2d_backward_weights_from_planes`](crate::conv2d_backward_weights_from_planes));
//! - the backward-input product, over the planes of the *upstream
//!   gradient* dilated by the stride and padded by `(R-1-pad, S-1-pad)`
//!   ([`of_upstream`](PaddedPlanes::of_upstream)), where the rotated
//!   filters slide at stride 1;
//! - the CSB gather of `procrustes-sparse`, which streams each stored
//!   weight's shifted run of a `Wp`-wide view of the same planes.
//!
//! Stride > 1 and 1×1 filters go through the same tables: a strided
//! convolution's runs are `stride` apart instead of adjacent.

use crate::kernel::ColsView;
use crate::{conv_out_dim, Scratch, Tensor};

/// The planes of one `NCHW` tensor, embedded in zero-padded (and, for an
/// upstream gradient, dilated) planes, with the offset tables that make
/// them readable as the column matrix of a convolution.
///
/// Buffers and tables come from a [`Scratch`] and go back to it with
/// [`recycle`](Self::recycle); a layer that keeps its planes from the
/// forward to the backward pass [`refill`](Self::refill)s them in place
/// on the next step, so a steady-state step allocates nothing here.
///
/// # Examples
///
/// ```
/// use procrustes_tensor::{im2col, PaddedPlanes, Scratch, Tensor};
/// let x = Tensor::from_fn(&[1, 2, 4, 4], |i| (i[1] * 16 + i[2] * 4 + i[3]) as f32);
/// let mut scratch = Scratch::new();
/// let planes = PaddedPlanes::of_input(&x, 3, 3, 1, 1, &mut scratch);
/// assert_eq!(planes.dims(), [1, 2, 6, 6]);
/// let (view, cols) = (planes.view(), im2col(&x, 3, 3, 1, 1));
/// for i in 0..view.rows() {
///     for t in 0..view.cols() {
///         assert_eq!(view.at(i, t), cols.at(&[i, t]));
///     }
/// }
/// planes.recycle(&mut scratch);
/// ```
#[derive(Debug)]
pub struct PaddedPlanes {
    /// `[n, c, h, w]` of the embedded tensor.
    source: [usize; 4],
    /// Source element `(i, j)` of a plane lands at
    /// `(origin.0 + i·dilation, origin.1 + j·dilation)`; positions
    /// outside the padded plane are dropped.
    origin: (isize, isize),
    dilation: usize,
    /// Padded plane extents.
    hp: usize,
    wp: usize,
    /// Filter extents the tables were built for.
    r: usize,
    s: usize,
    /// Output extents the tables were built for.
    p: usize,
    q: usize,
    /// Distance between horizontally adjacent windows (the stride the
    /// filter slides at).
    step: usize,
    /// `[n, c, hp, wp]`; zero wherever no source element lands.
    data: Vec<f32>,
    row_base: Vec<usize>,
    col_off: Vec<usize>,
}

impl PaddedPlanes {
    /// The planes of a convolution *input* `x` (`NCHW`), zero-padded by
    /// `pad`, for an `r×s` filter sliding at `stride`: the columns of
    /// the forward product and of the weight update.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not rank 4, the filter does not fit or
    /// `stride == 0`.
    pub fn of_input(
        x: &Tensor,
        r: usize,
        s: usize,
        stride: usize,
        pad: usize,
        scratch: &mut Scratch,
    ) -> Self {
        assert_eq!(x.shape().rank(), 4, "padded planes: x must be NCHW");
        let (h, w) = (x.shape().dim(2), x.shape().dim(3));
        let p = conv_out_dim(h, r, stride, pad);
        let q = conv_out_dim(w, s, stride, pad);
        let origin = (pad as isize, pad as isize);
        let padded = (h + 2 * pad, w + 2 * pad);
        Self::embed(x, origin, 1, padded, (r, s), (p, q), stride, scratch)
    }

    /// The planes of an *upstream gradient* `dy` (`NKPQ`) of a
    /// convolution with an `r×s` filter over an `h×wdt` input at
    /// `stride` / `pad`: each plane dilated by `stride` and placed at
    /// `(r-1-pad, s-1-pad)` inside an `(h+r-1)×(wdt+s-1)` plane, so the
    /// 180°-rotated filters slide over it at stride 1 and produce
    /// `∂L/∂x` (Fig 2b). A `dy` row or column that only ever met the
    /// forward padding falls outside the plane and is dropped.
    ///
    /// # Panics
    ///
    /// Panics if `dy` is not rank 4 or its spatial extents are not
    /// those of the forward convolution.
    #[allow(clippy::too_many_arguments)]
    pub fn of_upstream(
        dy: &Tensor,
        r: usize,
        s: usize,
        h: usize,
        wdt: usize,
        stride: usize,
        pad: usize,
        scratch: &mut Scratch,
    ) -> Self {
        assert_eq!(dy.shape().rank(), 4, "padded planes: dy must be NKPQ");
        assert_eq!(
            dy.shape().dim(2),
            conv_out_dim(h, r, stride, pad),
            "padded planes: dy height inconsistent with input geometry"
        );
        assert_eq!(
            dy.shape().dim(3),
            conv_out_dim(wdt, s, stride, pad),
            "padded planes: dy width inconsistent with input geometry"
        );
        let origin = (
            (r - 1) as isize - pad as isize,
            (s - 1) as isize - pad as isize,
        );
        let padded = (h + r - 1, wdt + s - 1);
        Self::embed(dy, origin, stride, padded, (r, s), (h, wdt), 1, scratch)
    }

    #[allow(clippy::too_many_arguments)]
    fn embed(
        src: &Tensor,
        origin: (isize, isize),
        dilation: usize,
        (hp, wp): (usize, usize),
        (r, s): (usize, usize),
        (p, q): (usize, usize),
        step: usize,
        scratch: &mut Scratch,
    ) -> Self {
        let d = src.shape();
        let source = [d.dim(0), d.dim(1), d.dim(2), d.dim(3)];
        let [n, c, ..] = source;
        let mut row_base = scratch.take_offsets(c * r * s);
        for ci in 0..c {
            for ri in 0..r {
                row_base.extend((0..s).map(|si| (ci * hp + ri) * wp + si));
            }
        }
        let mut col_off = scratch.take_offsets(n * p * q);
        for ni in 0..n {
            for pi in 0..p {
                let row = ni * c * hp * wp + pi * step * wp;
                col_off.extend((0..q).map(|qi| row + qi * step));
            }
        }
        let mut planes = Self {
            source,
            origin,
            dilation,
            hp,
            wp,
            r,
            s,
            p,
            q,
            step,
            // Zero once: `refill` only ever writes the same positions.
            data: scratch.take(n * c * hp * wp),
            row_base,
            col_off,
        };
        planes.refill(src);
        planes
    }

    /// Overwrites the embedded tensor with `src`, which must have the
    /// dimensions the planes were built from; the padding stays zero.
    ///
    /// # Panics
    ///
    /// Panics if `src`'s dimensions differ from [`source_dims`](Self::source_dims).
    pub fn refill(&mut self, src: &Tensor) {
        assert_eq!(
            src.shape().dims(),
            self.source,
            "padded planes: refill with another shape"
        );
        let [_, _, h, w] = self.source;
        let (Some((i_lo, i_hi)), Some((j_lo, j_hi))) = (
            clip(h, self.hp, self.origin.0, self.dilation),
            clip(w, self.wp, self.origin.1, self.dilation),
        ) else {
            return;
        };
        // In range by `clip`, so the casts cannot wrap.
        let at = |origin: isize, i: usize| (origin + (i * self.dilation) as isize) as usize;
        let x0 = at(self.origin.1, j_lo);
        let planes = self.data.chunks_exact_mut(self.hp * self.wp);
        for (dst, src) in planes.zip(src.data().chunks_exact(h * w)) {
            for i in i_lo..=i_hi {
                let row = &mut dst[at(self.origin.0, i) * self.wp..][..self.wp];
                let run = &src[i * w + j_lo..=i * w + j_hi];
                if self.dilation == 1 {
                    row[x0..x0 + run.len()].copy_from_slice(run);
                } else {
                    for (slot, &v) in row[x0..].iter_mut().step_by(self.dilation).zip(run) {
                        *slot = v;
                    }
                }
            }
        }
    }

    /// The planes as the `[C·R·S, N·P·Q]` column matrix — the rhs of
    /// [`kernel::gemm_cols`](crate::kernel::gemm_cols).
    pub fn view(&self) -> ColsView<'_> {
        ColsView {
            src: &self.data,
            row_base: &self.row_base,
            col_off: &self.col_off,
            step: self.step,
        }
    }

    /// `[n, c, h, w]` of the embedded tensor.
    pub fn source_dims(&self) -> [usize; 4] {
        self.source
    }

    /// `[n, c, hp, wp]` of the padded planes.
    pub fn dims(&self) -> [usize; 4] {
        [self.source[0], self.source[1], self.hp, self.wp]
    }

    /// `(r, s)` of the filter the tables were built for.
    pub fn filter_dims(&self) -> (usize, usize) {
        (self.r, self.s)
    }

    /// `(p, q)` of the output the tables were built for.
    pub fn out_dims(&self) -> (usize, usize) {
        (self.p, self.q)
    }

    /// Floats held (the padded planes; the column matrix they stand for
    /// is `R·S` times as many at stride 1).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True for an empty batch or channel set.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the planes and both tables to the pool.
    pub fn recycle(self, scratch: &mut Scratch) {
        scratch.recycle_vec(self.data);
        scratch.recycle_offsets(self.row_base);
        scratch.recycle_offsets(self.col_off);
    }
}

/// The source indices `i` in `0..count` with
/// `0 <= origin + i·dilation < extent`, as an inclusive range.
fn clip(count: usize, extent: usize, origin: isize, dilation: usize) -> Option<(usize, usize)> {
    let lo = origin.min(0).unsigned_abs().div_ceil(dilation);
    let last = extent as isize - 1 - origin;
    if last < 0 || count == 0 {
        return None;
    }
    let hi = (last as usize / dilation).min(count - 1);
    (lo <= hi).then_some((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::im2col;

    fn ramp(dims: &[usize]) -> Tensor {
        let mut next = 0.0;
        Tensor::from_fn(dims, |_| {
            next += 1.0;
            next
        })
    }

    #[test]
    fn input_view_is_the_im2col_matrix_element_for_element() {
        let mut scratch = Scratch::new();
        for (h, w, r, s, stride, pad) in [
            (5, 6, 3, 3, 1, 1),
            (7, 5, 3, 2, 2, 1),
            (6, 6, 1, 1, 2, 0),
            (4, 4, 3, 3, 1, 2),
            (3, 3, 1, 1, 1, 1),
        ] {
            let x = ramp(&[2, 3, h, w]);
            let planes = PaddedPlanes::of_input(&x, r, s, stride, pad, &mut scratch);
            let (view, cols) = (planes.view(), im2col(&x, r, s, stride, pad));
            assert_eq!([view.rows(), view.cols()], cols.shape().dims());
            for i in 0..view.rows() {
                for t in 0..view.cols() {
                    assert_eq!(view.at(i, t), cols.at(&[i, t]), "{h}x{w} ({i},{t})");
                }
            }
            planes.recycle(&mut scratch);
        }
    }

    #[test]
    fn refill_keeps_the_padding_zero_and_takes_nothing_from_the_pool() {
        let mut scratch = Scratch::new();
        let mut planes = PaddedPlanes::of_input(&ramp(&[1, 2, 3, 3]), 3, 3, 1, 1, &mut scratch);
        let x = Tensor::full(&[1, 2, 3, 3], 7.0);
        planes.refill(&x);
        assert_eq!(planes.len(), 2 * 5 * 5);
        assert_eq!(planes.view().src.iter().sum::<f32>(), 7.0 * 18.0);
        let border: f32 = planes.view().src[..5].iter().sum();
        assert_eq!(border, 0.0);
    }

    #[test]
    fn upstream_planes_dilate_and_crop() {
        let mut scratch = Scratch::new();
        // 3×3 filter, stride 2, pad 1 over 5×5: dy is 3×3, dilated to
        // every other position of a 7×7 plane starting at (1, 1).
        let dy = ramp(&[1, 1, 3, 3]);
        let planes = PaddedPlanes::of_upstream(&dy, 3, 3, 5, 5, 2, 1, &mut scratch);
        assert_eq!(planes.dims(), [1, 1, 7, 7]);
        assert_eq!(planes.out_dims(), (5, 5));
        let data = planes.view().src;
        assert_eq!(data[7 + 1], 1.0);
        assert_eq!(data[7 + 3], 2.0);
        assert_eq!(data[3 * 7 + 1], 4.0);
        assert_eq!(data.iter().sum::<f32>(), 45.0);
        // 1×1 filter padded past its extent: origin (-1, -1) crops the
        // border of dy, which only ever saw padding.
        let dy = ramp(&[1, 1, 5, 5]);
        let planes = PaddedPlanes::of_upstream(&dy, 1, 1, 3, 3, 1, 1, &mut scratch);
        assert_eq!(planes.dims(), [1, 1, 3, 3]);
        assert_eq!(
            planes.view().src,
            &[7.0, 8.0, 9.0, 12.0, 13.0, 14.0, 17.0, 18.0, 19.0]
        );
    }

    #[test]
    fn clip_matches_a_walk() {
        for count in 0..6usize {
            for extent in 1..8usize {
                for origin in -4..5isize {
                    for dilation in 1..4usize {
                        let walked: Vec<usize> = (0..count)
                            .filter(|&i| {
                                let at = origin + (i * dilation) as isize;
                                at >= 0 && at < extent as isize
                            })
                            .collect();
                        let want = walked.first().map(|&lo| (lo, *walked.last().unwrap()));
                        assert_eq!(clip(count, extent, origin, dilation), want);
                    }
                }
            }
        }
    }
}
