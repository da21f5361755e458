//! NCHW tensor helpers used by composite blocks.

use procrustes_tensor::{Scratch, Tensor};

/// Concatenates NCHW tensors along the channel axis (DenseNet's join),
/// drawing the output from a scratch pool (`DenseBlock`'s hot loop).
///
/// # Panics
///
/// Panics if `parts` is empty or batch/spatial extents disagree.
///
/// # Examples
///
/// ```
/// use procrustes_nn::concat_channels_with;
/// use procrustes_tensor::{Scratch, Tensor};
/// let a = Tensor::ones(&[1, 2, 2, 2]);
/// let b = Tensor::zeros(&[1, 1, 2, 2]);
/// let c = concat_channels_with(&[&a, &b], &mut Scratch::new());
/// assert_eq!(c.shape().dims(), &[1, 3, 2, 2]);
/// ```
pub fn concat_channels_with(parts: &[&Tensor], scratch: &mut Scratch) -> Tensor {
    assert!(!parts.is_empty(), "concat_channels: no tensors given");
    let first = parts[0].shape();
    assert_eq!(first.rank(), 4, "concat_channels: tensors must be NCHW");
    let (n, h, w) = (first.dim(0), first.dim(2), first.dim(3));
    let mut c_total = 0;
    for t in parts {
        let s = t.shape();
        assert_eq!(s.rank(), 4, "concat_channels: tensors must be NCHW");
        assert!(
            s.dim(0) == n && s.dim(2) == h && s.dim(3) == w,
            "concat_channels: batch/spatial mismatch {s} vs {first}"
        );
        c_total += s.dim(1);
    }
    let mut out = scratch.take_tensor_any(&[n, c_total, h, w]);
    let plane = h * w;
    let od = out.data_mut();
    for ni in 0..n {
        let mut c_off = 0;
        for t in parts {
            let c = t.shape().dim(1);
            let src = &t.data()[ni * c * plane..(ni + 1) * c * plane];
            let dst_start = (ni * c_total + c_off) * plane;
            od[dst_start..dst_start + c * plane].copy_from_slice(src);
            c_off += c;
        }
    }
    out
}

/// Extracts channels `[from, to)` of an NCHW tensor (DenseNet's split for
/// the backward pass).
///
/// # Panics
///
/// Panics if the range is empty, reversed, or out of bounds.
///
/// # Examples
///
/// ```
/// use procrustes_nn::{concat_channels_with, slice_channels};
/// use procrustes_tensor::{Scratch, Tensor};
/// let a = Tensor::full(&[1, 2, 2, 2], 1.0);
/// let b = Tensor::full(&[1, 1, 2, 2], 2.0);
/// let c = concat_channels_with(&[&a, &b], &mut Scratch::new());
/// assert_eq!(slice_channels(&c, 2, 3), b);
/// ```
pub fn slice_channels(x: &Tensor, from: usize, to: usize) -> Tensor {
    slice_channels_with(x, from, to, &mut Scratch::new())
}

/// [`slice_channels`] drawing the output from a scratch pool (the
/// hot-loop form used by `DenseBlock`).
///
/// # Panics
///
/// Same conditions as [`slice_channels`].
pub fn slice_channels_with(x: &Tensor, from: usize, to: usize, scratch: &mut Scratch) -> Tensor {
    let s = x.shape();
    assert_eq!(s.rank(), 4, "slice_channels: tensor must be NCHW");
    let (n, c, h, w) = (s.dim(0), s.dim(1), s.dim(2), s.dim(3));
    assert!(
        from < to && to <= c,
        "slice_channels: bad range {from}..{to} of {c}"
    );
    let cs = to - from;
    let plane = h * w;
    let mut out = scratch.take_tensor_any(&[n, cs, h, w]);
    let od = out.data_mut();
    for ni in 0..n {
        let src = &x.data()[(ni * c + from) * plane..(ni * c + to) * plane];
        od[ni * cs * plane..(ni + 1) * cs * plane].copy_from_slice(src);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_then_slice_roundtrips() {
        let a = Tensor::from_fn(&[2, 3, 2, 2], |i| {
            (i[0] * 100 + i[1] * 10 + i[2] * 2 + i[3]) as f32
        });
        let b = Tensor::from_fn(&[2, 2, 2, 2], |i| -((i[0] * 100 + i[1] * 10) as f32));
        let c = concat_channels_with(&[&a, &b], &mut Scratch::new());
        assert_eq!(slice_channels(&c, 0, 3), a);
        assert_eq!(slice_channels(&c, 3, 5), b);
    }

    #[test]
    fn concat_three_parts() {
        let parts: Vec<Tensor> = (0..3)
            .map(|i| Tensor::full(&[1, 1, 1, 1], i as f32))
            .collect();
        let refs: Vec<&Tensor> = parts.iter().collect();
        let c = concat_channels_with(&refs, &mut Scratch::new());
        assert_eq!(c.data(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "batch/spatial mismatch")]
    fn concat_rejects_mismatched_spatial() {
        let a = Tensor::ones(&[1, 1, 2, 2]);
        let b = Tensor::ones(&[1, 1, 3, 3]);
        concat_channels_with(&[&a, &b], &mut Scratch::new());
    }

    #[test]
    #[should_panic(expected = "bad range")]
    fn slice_rejects_reversed_range() {
        let a = Tensor::ones(&[1, 3, 2, 2]);
        slice_channels(&a, 2, 2);
    }
}
