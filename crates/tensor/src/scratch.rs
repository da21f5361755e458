//! A reusable buffer pool for the training hot loop.
//!
//! Every forward/backward pass needs short-lived `f32` buffers: padded
//! conv planes, GEMM outputs, permuted gradients, layer outputs.
//! Allocating them fresh each step is pure overhead once shapes have
//! stabilized, so the layers and trainers thread a [`Scratch`] through
//! the hot path instead: buffers are taken from the pool, wrapped in
//! [`Tensor`]s, and recycled when the consumer is done with them. After
//! a warm-up step every `take` is served from the pool and a
//! steady-state training step performs **zero heap allocations** in
//! tensor code (pinned by `steady_state_alloc.rs` in
//! `procrustes-dropback`).

use crate::Tensor;

/// A pool of reusable `f32` buffers (and of the offset tables padded
/// conv planes are read through).
///
/// `take` hands out zero-filled buffers (best-fit by capacity so the
/// same request sequence maps onto the same buffers every step);
/// `recycle` returns them. Buffers that are never recycled are simply
/// reallocated next step — correctness never depends on pooling.
///
/// # Examples
///
/// ```
/// use procrustes_tensor::Scratch;
/// let mut scratch = Scratch::new();
/// let t = scratch.take_tensor(&[2, 3]);
/// assert_eq!(t.data(), &[0.0; 6]);
/// scratch.recycle(t);
/// assert_eq!(scratch.pooled_buffers(), 1);
/// let _again = scratch.take(6); // served from the pool
/// assert_eq!(scratch.pooled_buffers(), 0);
/// ```
#[derive(Default)]
pub struct Scratch {
    pool: Vec<Vec<f32>>,
    /// Offset tables (see [`take_offsets`](Self::take_offsets)).
    offsets: Vec<Vec<usize>>,
}

/// Removes from `pool` the smallest buffer whose capacity holds `len`
/// elements, or starts a new one.
fn best_fit<T>(pool: &mut Vec<Vec<T>>, len: usize) -> Vec<T> {
    let mut best: Option<(usize, usize)> = None;
    for (i, buf) in pool.iter().enumerate() {
        let cap = buf.capacity();
        if cap >= len && best.is_none_or(|(_, c)| cap < c) {
            best = Some((i, cap));
        }
    }
    match best {
        Some((i, _)) => pool.swap_remove(i),
        None => Vec::with_capacity(len),
    }
}

impl Scratch {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a zero-filled buffer of exactly `len` elements, reusing the
    /// smallest pooled buffer whose capacity suffices.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take_any(len);
        buf.fill(0.0);
        buf
    }

    /// Takes a buffer of exactly `len` elements with **unspecified
    /// contents** (stale data from a previous user is possible) — for
    /// consumers that fully overwrite it, e.g. GEMM destinations, which
    /// would otherwise pay a redundant zeroing pass per step.
    pub fn take_any(&mut self, len: usize) -> Vec<f32> {
        let mut buf = best_fit(&mut self.pool, len);
        buf.resize(len, 0.0);
        buf
    }

    /// Takes an empty offset table with room for `len` entries — the
    /// index-typed sibling of [`take_any`](Self::take_any), for the two
    /// tables of a [`PaddedPlanes`](crate::PaddedPlanes).
    pub fn take_offsets(&mut self, len: usize) -> Vec<usize> {
        let mut buf = best_fit(&mut self.offsets, len);
        buf.clear();
        buf
    }

    /// Returns an offset table to the pool.
    pub fn recycle_offsets(&mut self, buf: Vec<usize>) {
        if buf.capacity() > 0 {
            self.offsets.push(buf);
        }
    }

    /// Takes a zero-filled tensor of the given dimensions.
    pub fn take_tensor(&mut self, dims: &[usize]) -> Tensor {
        let len = dims.iter().product();
        Tensor::from_vec(dims, self.take(len))
    }

    /// Takes a tensor with **unspecified contents** (see
    /// [`take_any`](Self::take_any)).
    pub fn take_tensor_any(&mut self, dims: &[usize]) -> Tensor {
        let len = dims.iter().product();
        Tensor::from_vec(dims, self.take_any(len))
    }

    /// Returns a buffer to the pool.
    pub fn recycle_vec(&mut self, buf: Vec<f32>) {
        if buf.capacity() > 0 {
            self.pool.push(buf);
        }
    }

    /// Returns a tensor's buffer to the pool.
    pub fn recycle(&mut self, t: Tensor) {
        self.recycle_vec(t.into_vec());
    }

    /// Number of buffers currently pooled (diagnostics).
    pub fn pooled_buffers(&self) -> usize {
        self.pool.len()
    }

    /// Total pooled capacity in bytes (diagnostics).
    pub fn pooled_bytes(&self) -> usize {
        self.pool
            .iter()
            .map(|b| b.capacity() * std::mem::size_of::<f32>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zero_filled_even_after_recycle() {
        let mut s = Scratch::new();
        let mut buf = s.take(4);
        buf.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        s.recycle_vec(buf);
        assert_eq!(s.take(4), vec![0.0; 4]);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_buffer() {
        let mut s = Scratch::new();
        s.recycle_vec(Vec::with_capacity(100));
        s.recycle_vec(Vec::with_capacity(10));
        let buf = s.take(8);
        assert_eq!(buf.capacity(), 10, "should pick the tight fit");
        assert_eq!(s.pooled_buffers(), 1);
    }

    #[test]
    fn take_tensor_roundtrips_through_pool() {
        let mut s = Scratch::new();
        let t = s.take_tensor(&[3, 4]);
        assert_eq!(t.shape().dims(), &[3, 4]);
        s.recycle(t);
        assert_eq!(s.pooled_buffers(), 1);
        assert!(s.pooled_bytes() >= 12 * 4);
    }

    #[test]
    fn oversized_requests_allocate_fresh() {
        let mut s = Scratch::new();
        s.recycle_vec(Vec::with_capacity(2));
        let buf = s.take(16);
        assert_eq!(buf.len(), 16);
        assert_eq!(s.pooled_buffers(), 1, "small buffer stays pooled");
    }
}
