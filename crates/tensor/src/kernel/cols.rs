//! The column view: an im2col matrix that is never built.
//!
//! The `[C·R·S, N·P·Q]` column matrix of a convolution is a *layout*
//! over the zero-padded input planes, and the layout is separable:
//!
//! > `cols[i][t] = src[row_base[i] + col_off[t]]`
//!
//! with `row_base[(c, r, s)]` the offset of filter tap `(r, s)` of
//! channel `c` inside one sample's planes and `col_off[(n, p, q)]` the
//! offset of output position `(p, q)` of sample `n`'s window origin.
//! Two small tables, built once per shape by
//! [`PaddedPlanes`](crate::PaddedPlanes), replace every division,
//! bounds test and padding branch an unfold would run per element.
//!
//! A [`ColsView`] is the rhs of [`gemm_cols`](super::gemm_cols) for the
//! `Nn` products (forward, backward-input): the packed kernel copies
//! its `KC×NR` panels straight out of the planes (see `pack_cols_n` in
//! [`routine`](super::routine)), so the product reads the same values in
//! the same order as one over the materialised matrix and compares
//! equal to it (`f32 ==`). The weight update packs nothing: its kernel
//! (`conv2d_backward_weights_from_planes`) reads each tap's value
//! `src[row_base[i] + col_off[t]]` as the broadcast operand, run by
//! run (`for_each_run`).

/// A matrix `[rows, cols]` read through two offset tables over a flat
/// source (see the [module docs](self)).
///
/// # Examples
///
/// ```
/// use procrustes_tensor::kernel::ColsView;
/// // A 2×2 window sliding over a 3-wide row pair: two taps per row of
/// // the window, two output positions.
/// let src = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
/// let view = ColsView {
///     src: &src,
///     row_base: &[0, 1, 3, 4],
///     col_off: &[0, 1],
///     step: 1,
/// };
/// assert_eq!((view.rows(), view.cols()), (4, 2));
/// assert_eq!(view.at(2, 1), 5.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ColsView<'a> {
    /// The padded planes.
    pub src: &'a [f32],
    /// Per row `(c, r, s)`: offset of that tap inside a sample's planes.
    pub row_base: &'a [usize],
    /// Per column `(n, p, q)`: offset of that window's origin.
    pub col_off: &'a [usize],
    /// Distance in `src` between the columns of one output row (the
    /// convolution's stride): a run of `col_off` entries `step` apart is
    /// one strided run of `src`.
    pub step: usize,
}

impl ColsView<'_> {
    /// Rows of the viewed matrix (`C·R·S`).
    pub fn rows(&self) -> usize {
        self.row_base.len()
    }

    /// Columns of the viewed matrix (`N·P·Q`).
    pub fn cols(&self) -> usize {
        self.col_off.len()
    }

    /// Asserts that every `row_base[i] + col_off[t]` indexes `src`, once
    /// per product, so the pack steps can read without a panic edge.
    ///
    /// # Panics
    ///
    /// Panics if some element of the viewed matrix lies outside `src`.
    pub fn check(&self) {
        let reach = |table: &[usize]| table.iter().copied().max().unwrap_or(0);
        assert!(
            self.row_base.is_empty()
                || self.col_off.is_empty()
                || reach(self.row_base) + reach(self.col_off) < self.src.len(),
            "kernel: column view reaches past its planes"
        );
    }

    /// Element `[i, t]` of the viewed matrix.
    pub fn at(&self, i: usize, t: usize) -> f32 {
        self.src[self.row_base[i] + self.col_off[t]]
    }
}

/// Cuts `offsets` into maximal runs of entries `step` apart, calling
/// `visit(first index, length)` per run in order. A stride-1 convolution
/// yields one run per output row (or longer, where rows abut).
///
/// Always inlined: the weight-update kernel keeps its accumulator tile
/// in registers across `visit` calls only when the walk is inlined (out
/// of line, the tile lives in memory and the kernel runs several times
/// slower).
#[inline(always)]
pub(crate) fn for_each_run(offsets: &[usize], step: usize, mut visit: impl FnMut(usize, usize)) {
    let mut start = 0;
    while start < offsets.len() {
        let mut len = 1;
        while start + len < offsets.len() && offsets[start + len] == offsets[start + len - 1] + step
        {
            len += 1;
        }
        visit(start, len);
        start += len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_break_where_the_step_does() {
        let mut seen = Vec::new();
        for_each_run(&[0, 1, 2, 5, 6, 10], 1, |at, len| seen.push((at, len)));
        assert_eq!(seen, [(0, 3), (3, 2), (5, 1)]);
        seen.clear();
        for_each_run(&[0, 2, 4, 5], 2, |at, len| seen.push((at, len)));
        assert_eq!(seen, [(0, 3), (3, 1)]);
        for_each_run(&[], 1, |_, _| panic!("no runs in an empty table"));
    }
}
