//! Tensor shapes: dimension lists and row-major index arithmetic.

use std::fmt;

/// Maximum tensor rank supported by [`Shape`].
///
/// Shapes store their extents inline (no heap allocation) so that
/// constructing a [`Tensor`](crate::Tensor) view over a pooled buffer is
/// allocation-free — a requirement of the zero-allocation training hot
/// loop. Six covers everything the paper's workloads need (NCHW plus
/// slack).
pub const MAX_RANK: usize = 6;

/// The shape of a [`Tensor`](crate::Tensor): a list of dimension extents
/// with row-major (C-order) linearization.
///
/// # Examples
///
/// ```
/// use procrustes_tensor::Shape;
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.len(), 24);
/// assert_eq!(s.linear(&[1, 2, 3]), 1 * 12 + 2 * 4 + 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    // Unused trailing slots stay 0, so derived equality/hashing over the
    // whole array agrees with equality over `dims()`.
    dims: [usize; MAX_RANK],
    rank: u8,
}

impl Shape {
    /// Creates a shape from dimension extents.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero (zero-sized tensors are never
    /// meaningful in this workspace and are almost always a bug) or if
    /// the rank exceeds [`MAX_RANK`].
    pub fn new(dims: &[usize]) -> Self {
        assert!(
            dims.iter().all(|&d| d > 0),
            "Shape::new: zero-sized dimension in {dims:?}"
        );
        assert!(
            dims.len() <= MAX_RANK,
            "Shape::new: rank {} exceeds MAX_RANK {MAX_RANK}",
            dims.len()
        );
        let mut inline = [0usize; MAX_RANK];
        inline[..dims.len()].copy_from_slice(dims);
        Self {
            dims: inline,
            rank: dims.len() as u8,
        }
    }

    /// The dimension extents.
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank as usize]
    }

    /// Number of dimensions (rank).
    pub fn rank(&self) -> usize {
        self.rank as usize
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.dims().iter().product()
    }

    /// Always false: zero-sized dimensions are rejected at construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Extent of dimension `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= rank()`.
    pub fn dim(&self, axis: usize) -> usize {
        self.dims()[axis]
    }

    /// Row-major linear offset of the multi-index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` has the wrong rank or is out of bounds in any
    /// dimension (debug-quality message identifying the axis).
    pub fn linear(&self, idx: &[usize]) -> usize {
        assert_eq!(
            idx.len(),
            self.rank(),
            "index rank {} != shape rank {}",
            idx.len(),
            self.rank()
        );
        let mut off = 0;
        for (axis, (&i, &d)) in idx.iter().zip(self.dims()).enumerate() {
            assert!(
                i < d,
                "index {i} out of bounds for axis {axis} (extent {d})"
            );
            off = off * d + i;
        }
        off
    }

    /// Inverse of [`Shape::linear`]: the multi-index of linear offset `off`.
    ///
    /// # Panics
    ///
    /// Panics if `off >= len()`.
    pub fn unlinear(&self, mut off: usize) -> Vec<usize> {
        assert!(
            off < self.len(),
            "offset {off} out of bounds ({})",
            self.len()
        );
        let mut idx = vec![0; self.rank()];
        for axis in (0..self.rank()).rev() {
            idx[axis] = off % self.dims[axis];
            off /= self.dims[axis];
        }
        idx
    }

    /// Returns true if `other` has identical extents.
    pub fn same_as(&self, other: &Shape) -> bool {
        self == other
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims().iter().enumerate() {
            if i > 0 {
                write!(f, "×")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(&dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_and_unlinear_roundtrip() {
        for dims in [&[5][..], &[2, 3], &[3, 4, 5], &[2, 1, 4, 3]] {
            let s = Shape::new(dims);
            for off in 0..s.len() {
                assert_eq!(s.linear(&s.unlinear(off)), off, "{s}");
            }
        }
    }

    #[test]
    fn linear_is_row_major() {
        let s = Shape::new(&[2, 3]);
        assert_eq!(s.linear(&[0, 0]), 0);
        assert_eq!(s.linear(&[0, 2]), 2);
        assert_eq!(s.linear(&[1, 0]), 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds for axis 1")]
    fn out_of_bounds_index_names_axis() {
        Shape::new(&[2, 3]).linear(&[0, 3]);
    }

    #[test]
    #[should_panic(expected = "zero-sized dimension")]
    fn zero_dim_rejected() {
        Shape::new(&[2, 0, 3]);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_RANK")]
    fn over_max_rank_rejected() {
        Shape::new(&[1, 1, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Shape::new(&[2, 3, 4]).to_string(), "[2×3×4]");
    }

    #[test]
    fn from_array_and_slice() {
        let a: Shape = [2usize, 3].into();
        let b = Shape::from(&[2usize, 3][..]);
        assert!(a.same_as(&b));
    }

    #[test]
    fn equality_ignores_unused_slots() {
        // Shapes of different rank with a shared prefix must differ.
        assert_ne!(Shape::new(&[2, 3]), Shape::new(&[2, 3, 1]));
        assert_eq!(Shape::new(&[2, 3]), Shape::new(&[2, 3]));
    }
}
