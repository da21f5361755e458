//! The dense tensor type and its elementwise / linear-algebra operations.

use std::fmt;
use std::ops::{Add, Mul, Sub};

use procrustes_prng::UniformRng;

use crate::kernel::{self, Blueprint};
use crate::{Scratch, Shape};

/// An owned, contiguous, row-major `f32` tensor.
///
/// `Tensor` is intentionally minimal: everything the DNN training framework
/// and the accelerator workloads need, and nothing else. Indexing is by
/// multi-index slice (`at`, `set`) or raw data access (`data`,
/// `data_mut`) for kernels.
///
/// # Examples
///
/// ```
/// use procrustes_tensor::Tensor;
/// let mut t = Tensor::zeros(&[2, 2]);
/// t.set(&[0, 1], 3.0);
/// assert_eq!(t.at(&[0, 1]), 3.0);
/// assert_eq!(t.sum(), 3.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let len = shape.len();
        Self {
            shape,
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let len = shape.len();
        Self {
            shape,
            data: vec![value; len],
        }
    }

    /// Creates a tensor whose element at multi-index `i` is `f(i)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use procrustes_tensor::Tensor;
    /// let t = Tensor::from_fn(&[2, 3], |i| (i[0] * 10 + i[1]) as f32);
    /// assert_eq!(t.at(&[1, 2]), 12.0);
    /// ```
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(&[usize]) -> f32) -> Self {
        let shape = Shape::new(dims);
        let mut data = Vec::with_capacity(shape.len());
        for off in 0..shape.len() {
            data.push(f(&shape.unlinear(off)));
        }
        Self { shape, data }
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(dims: &[usize], data: Vec<f32>) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.len(),
            "from_vec: buffer length {} != shape {} element count {}",
            data.len(),
            shape,
            shape.len()
        );
        Self { shape, data }
    }

    /// Creates a tensor of i.i.d. `N(0, std²)` values drawn from `rng`
    /// (Irwin–Hall Gaussian approximation; see `procrustes-prng`).
    pub fn randn<R: UniformRng + ?Sized>(dims: &[usize], std: f32, rng: &mut R) -> Self {
        Self::from_fn(dims, |_| {
            let sum = rng.next_f32() + rng.next_f32() + rng.next_f32();
            (sum - 1.5) * 2.0 * std
        })
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always false (zero-sized tensors are unconstructible).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at multi-index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.shape.linear(idx)]
    }

    /// Sets the element at multi-index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let off = self.shape.linear(idx);
        self.data[off] = value;
    }

    /// Copies this tensor's contents into `slot`, reusing `slot`'s
    /// existing buffer when the element counts match — the
    /// allocation-free way for layers to cache an activation between
    /// forward and backward.
    pub fn clone_into_slot(&self, slot: &mut Option<Tensor>) {
        match slot {
            Some(t) if t.data.len() == self.data.len() => {
                t.data.copy_from_slice(&self.data);
                t.shape = self.shape.clone();
            }
            _ => *slot = Some(self.clone()),
        }
    }

    /// Reinterprets the buffer under a new shape with the same element
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(mut self, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            shape.len(),
            self.data.len(),
            "reshape: {} -> {} changes element count",
            self.shape,
            shape
        );
        self.shape = shape;
        self
    }

    // ----- elementwise -----------------------------------------------------

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two tensors elementwise with `f`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Self {
        self.assert_same_shape(other, "zip_with");
        Self {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// `self += alpha * other` (BLAS `axpy`), in place.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        self.assert_same_shape(other, "axpy");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Multiplies every element by `alpha` in place.
    pub fn scale(&mut self, alpha: f32) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    // ----- reductions ------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.len() as f32
    }

    /// Maximum element (NaNs ignored).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Index of the maximum element in the flattened buffer.
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        for (i, &x) in self.data.iter().enumerate() {
            if x > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// Number of elements with value exactly `0.0`.
    ///
    /// Used pervasively to measure computation sparsity.
    pub fn count_zeros(&self) -> usize {
        self.data.iter().filter(|&&x| x == 0.0).count()
    }

    /// Fraction of elements that are exactly zero, in `[0, 1]`.
    pub fn sparsity(&self) -> f64 {
        self.count_zeros() as f64 / self.len() as f64
    }

    /// Squared L2 norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    // ----- linear algebra ---------------------------------------------------

    /// Matrix product of two rank-2 tensors: `[M,K] × [K,N] -> [M,N]`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the inner dimensions
    /// disagree.
    ///
    /// # Examples
    ///
    /// ```
    /// use procrustes_tensor::Tensor;
    /// let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
    /// let b = Tensor::from_vec(&[2, 1], vec![1.0, 1.0]);
    /// let c = a.matmul(&b);
    /// assert_eq!(c.data(), &[3.0, 7.0]);
    /// ```
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "matmul: lhs must be rank 2");
        assert_eq!(other.shape.rank(), 2, "matmul: rhs must be rank 2");
        let (m, k) = (self.shape.dim(0), self.shape.dim(1));
        let (k2, n) = (other.shape.dim(0), other.shape.dim(1));
        assert_eq!(k, k2, "matmul: inner dims {k} != {k2}");
        let mut out = vec![0.0f32; m * n];
        // Accumulation order per output element is identical to the
        // naive ikj loop (see the `kernel` module docs for the
        // contract). One-off call: packing buffers come from an
        // ephemeral pool.
        kernel::gemm(
            &Blueprint::nn(m, k, n).with_threads(kernel::default_threads()),
            &mut out,
            &self.data,
            &other.data,
            &mut Scratch::new(),
        );
        Tensor::from_vec(&[m, n], out)
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn transpose2d(&self) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "transpose2d: tensor must be rank 2");
        let (m, n) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = vec![0.0f32; m * n];
        // Tiled copy: both streams stay within a few cache lines per
        // tile instead of one side striding the full row length.
        transpose_into(&mut out, &self.data, m, n);
        Tensor::from_vec(&[n, m], out)
    }

    /// Rotates the two trailing (spatial) dimensions by 180° — the filter
    /// transformation of the training backward pass (Fig 2b of the paper).
    ///
    /// # Panics
    ///
    /// Panics if the tensor has rank < 2.
    ///
    /// # Examples
    ///
    /// ```
    /// use procrustes_tensor::Tensor;
    /// let w = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
    /// let r = w.rotate180();
    /// assert_eq!(r.data(), &[4.0, 3.0, 2.0, 1.0]);
    /// ```
    pub fn rotate180(&self) -> Tensor {
        let rank = self.shape.rank();
        assert!(rank >= 2, "rotate180: need at least 2 dims");
        let r = self.shape.dim(rank - 2);
        let s = self.shape.dim(rank - 1);
        let plane = r * s;
        let planes = self.len() / plane;
        let mut out = vec![0.0f32; self.len()];
        for p in 0..planes {
            let src = &self.data[p * plane..(p + 1) * plane];
            let dst = &mut out[p * plane..(p + 1) * plane];
            for (i, &v) in src.iter().enumerate() {
                dst[plane - 1 - i] = v;
            }
        }
        Tensor {
            shape: self.shape.clone(),
            data: out,
        }
    }

    fn assert_same_shape(&self, other: &Tensor, op: &str) {
        assert!(
            self.shape.same_as(&other.shape),
            "{op}: shape mismatch {} vs {}",
            self.shape,
            other.shape
        );
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        if self.len() <= 16 {
            write!(f, "{:?}", self.data)
        } else {
            write!(f, "[{:?}, … ; mean={:.4}]", &self.data[..8], self.mean())
        }
    }
}

impl Add for &Tensor {
    type Output = Tensor;

    fn add(self, rhs: &Tensor) -> Tensor {
        self.zip_with(rhs, |a, b| a + b)
    }
}

impl Sub for &Tensor {
    type Output = Tensor;

    fn sub(self, rhs: &Tensor) -> Tensor {
        self.zip_with(rhs, |a, b| a - b)
    }
}

impl Mul for &Tensor {
    type Output = Tensor;

    /// Elementwise (Hadamard) product.
    fn mul(self, rhs: &Tensor) -> Tensor {
        self.zip_with(rhs, |a, b| a * b)
    }
}

/// Cache-blocked transpose: `dst[j*m + i] = src[i*n + j]` for row-major
/// `src: [m, n]`, `dst: [n, m]`, processed in square tiles so both the
/// read and the write stream stay within a few cache lines per tile.
///
/// # Panics
///
/// Panics if the slice lengths disagree with `m·n`.
pub fn transpose_into(dst: &mut [f32], src: &[f32], m: usize, n: usize) {
    assert_eq!(src.len(), m * n, "transpose_into: src length != m*n");
    assert_eq!(dst.len(), m * n, "transpose_into: dst length != m*n");
    const TB: usize = 32;
    let mut ib = 0;
    while ib < m {
        let imax = (ib + TB).min(m);
        let mut jb = 0;
        while jb < n {
            let jmax = (jb + TB).min(n);
            for i in ib..imax {
                for j in jb..jmax {
                    dst[j * m + i] = src[i * n + j];
                }
            }
            jb += TB;
        }
        ib += TB;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::matmul_ikj;
    use procrustes_prng::Xorshift64;

    #[test]
    fn transpose_matches_naive() {
        for &(m, n) in &[(1, 1), (3, 5), (33, 40), (64, 64), (65, 31)] {
            let src: Vec<f32> = (0..m * n).map(|i| i as f32).collect();
            let mut dst = vec![0.0f32; m * n];
            transpose_into(&mut dst, &src, m, n);
            for i in 0..m {
                for j in 0..n {
                    assert_eq!(dst[j * m + i], src[i * n + j]);
                }
            }
        }
    }

    #[test]
    fn tensor_matmul_agrees_with_reference() {
        let mut rng = Xorshift64::new(5);
        let a = Tensor::randn(&[13, 21], 1.0, &mut rng);
        let b = Tensor::randn(&[21, 18], 1.0, &mut rng);
        let got = a.matmul(&b);
        let want = matmul_ikj(a.data(), b.data(), 13, 21, 18);
        assert_eq!(got.data(), &want[..]);
    }

    #[test]
    fn constructors_fill_correctly() {
        assert_eq!(Tensor::zeros(&[3]).data(), &[0.0, 0.0, 0.0]);
        assert_eq!(Tensor::ones(&[2]).data(), &[1.0, 1.0]);
        assert_eq!(Tensor::full(&[2], 7.0).data(), &[7.0, 7.0]);
    }

    #[test]
    fn from_fn_sees_multi_indices() {
        let t = Tensor::from_fn(&[2, 2], |i| (i[0] * 2 + i[1]) as f32);
        assert_eq!(t.data(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_validates_length() {
        Tensor::from_vec(&[2, 2], vec![1.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let id = Tensor::from_fn(&[2, 2], |i| if i[0] == i[1] { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&id), a);
        assert_eq!(id.matmul(&a), a);
    }

    #[test]
    fn matmul_matches_manual() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(&[3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn matmul_checks_inner_dims() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        a.matmul(&b);
    }

    /// `(A + B)·C = A·C + B·C` up to rounding.
    #[test]
    fn matmul_distributes_over_addition() {
        for seed in 1..=8u64 {
            let mut rng = Xorshift64::new(seed);
            let a = Tensor::randn(&[3, 4], 1.0, &mut rng);
            let b = Tensor::randn(&[3, 4], 1.0, &mut rng);
            let c = Tensor::randn(&[4, 2], 1.0, &mut rng);
            let lhs = (&a + &b).matmul(&c);
            let rhs = &a.matmul(&c) + &b.matmul(&c);
            for (x, y) in lhs.data().iter().zip(rhs.data()) {
                assert!(
                    (x - y).abs() < 1e-4 * (1.0 + x.abs()),
                    "seed {seed}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn transpose_involutes() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transpose2d().transpose2d(), a);
        assert_eq!(a.transpose2d().at(&[2, 1]), 6.0);
    }

    #[test]
    fn rotate180_involutes() {
        let w = Tensor::from_fn(&[2, 3, 3, 3], |i| {
            (i[0] + 2 * i[1] + 3 * i[2] + 5 * i[3]) as f32
        });
        assert_eq!(w.rotate180().rotate180(), w);
    }

    #[test]
    fn rotate180_moves_corner_to_corner() {
        let w = Tensor::from_fn(&[1, 1, 3, 3], |i| (i[2] * 3 + i[3]) as f32);
        let r = w.rotate180();
        assert_eq!(r.at(&[0, 0, 0, 0]), 8.0);
        assert_eq!(r.at(&[0, 0, 2, 2]), 0.0);
        assert_eq!(r.at(&[0, 0, 1, 1]), 4.0); // centre fixed
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(&[3], vec![1., 2., 3.]);
        let b = Tensor::from_vec(&[3], vec![4., 5., 6.]);
        assert_eq!((&a + &b).data(), &[5., 7., 9.]);
        assert_eq!((&b - &a).data(), &[3., 3., 3.]);
        assert_eq!((&a * &b).data(), &[4., 10., 18.]);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::from_vec(&[2], vec![1., 2.]);
        let b = Tensor::from_vec(&[2], vec![10., 20.]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[6., 12.]);
        a.scale(2.0);
        assert_eq!(a.data(), &[12., 24.]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(&[4], vec![-1., 0., 3., 0.]);
        assert_eq!(t.sum(), 2.0);
        assert_eq!(t.mean(), 0.5);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.argmax(), 2);
        assert_eq!(t.count_zeros(), 2);
        assert_eq!(t.sparsity(), 0.5);
        assert_eq!(t.norm_sq(), 10.0);
    }

    #[test]
    fn randn_moments() {
        let mut rng = Xorshift64::new(4);
        let t = Tensor::randn(&[100_000], 2.0, &mut rng);
        assert!(t.mean().abs() < 0.05);
        let var = t.norm_sq() / t.len() as f32 - t.mean().powi(2);
        assert!((var - 4.0).abs() < 0.2, "var = {var}");
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let r = t.clone().reshape(&[3, 2]);
        assert_eq!(r.data(), t.data());
        assert_eq!(r.shape().dims(), &[3, 2]);
    }

    #[test]
    #[should_panic(expected = "changes element count")]
    fn reshape_validates_count() {
        Tensor::zeros(&[2, 3]).reshape(&[7]);
    }

    #[test]
    fn debug_is_nonempty_for_large_tensors() {
        let t = Tensor::zeros(&[100]);
        let s = format!("{t:?}");
        assert!(s.contains("mean"));
    }
}
