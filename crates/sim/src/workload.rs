//! Workload descriptors: one layer × one training phase.

use crate::fingerprint::Fnv1a;

/// The three phases of a training iteration (Fig 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Inference-like pass: `x ∗ W → y`. Weight sparsity applies.
    Forward,
    /// Gradient propagation: `∂L/∂y ∗ Wʳ → ∂L/∂x` (rotated filters).
    /// Weight sparsity applies; `∂L/∂y` is dense because of batch norm.
    Backward,
    /// Weight update: `x ∗ ∂L/∂y → ∂L/∂W`. Input-activation sparsity
    /// applies.
    WeightUpdate,
}

impl Phase {
    /// All three phases, in execution order.
    pub const ALL: [Phase; 3] = [Phase::Forward, Phase::Backward, Phase::WeightUpdate];

    /// Short label used in reports ("fw"/"bw"/"wu").
    pub fn label(&self) -> &'static str {
        match self {
            Phase::Forward => "fw",
            Phase::Backward => "bw",
            Phase::WeightUpdate => "wu",
        }
    }
}

/// Geometry of one layer's computation for a given minibatch (the seven
/// loop extents of the paper's Alg 1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LayerTask {
    /// Layer name for reports.
    pub name: String,
    /// Minibatch size `N`.
    pub batch: usize,
    /// Input channels `C`.
    pub c: usize,
    /// Output channels `K`.
    pub k: usize,
    /// Input spatial height `H`.
    pub h: usize,
    /// Input spatial width `W`.
    pub w: usize,
    /// Output spatial height `P`.
    pub p: usize,
    /// Output spatial width `Q`.
    pub q: usize,
    /// Filter height `R`.
    pub r: usize,
    /// Filter width `S`.
    pub s: usize,
    /// Depthwise convolution (one filter per channel; `k == c`).
    pub depthwise: bool,
}

impl LayerTask {
    /// A standard convolution task.
    ///
    /// # Panics
    ///
    /// Panics if the filter does not fit the padded input.
    #[allow(clippy::too_many_arguments)]
    pub fn conv(
        name: impl Into<String>,
        batch: usize,
        c: usize,
        k: usize,
        h: usize,
        w: usize,
        r: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        assert!(h + 2 * pad >= r && w + 2 * pad >= r, "filter does not fit");
        let p = (h + 2 * pad - r) / stride + 1;
        let q = (w + 2 * pad - r) / stride + 1;
        Self {
            name: name.into(),
            batch,
            c,
            k,
            h,
            w,
            p,
            q,
            r,
            s: r,
            depthwise: false,
        }
    }

    /// A depthwise convolution task over `channels`.
    #[allow(clippy::too_many_arguments)] // mirrors the conv geometry tuple
    pub fn depthwise(
        name: impl Into<String>,
        batch: usize,
        channels: usize,
        h: usize,
        w: usize,
        r: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        let mut t = Self::conv(name, batch, channels, channels, h, w, r, stride, pad);
        t.depthwise = true;
        t
    }

    /// A fully-connected task (`1×1` conv over a `1×1` map).
    pub fn fc(name: impl Into<String>, batch: usize, inp: usize, out: usize) -> Self {
        Self {
            name: name.into(),
            batch,
            c: inp,
            k: out,
            h: 1,
            w: 1,
            p: 1,
            q: 1,
            r: 1,
            s: 1,
            depthwise: false,
        }
    }

    /// Number of weight kernels = CSB blocks (`K·C`, or `C` if depthwise).
    pub fn kernels(&self) -> usize {
        if self.depthwise {
            self.c
        } else {
            self.k * self.c
        }
    }

    /// Number of weights.
    pub fn weights(&self) -> usize {
        self.kernels() * self.r * self.s
    }

    /// Dense MAC count for `phase`.
    ///
    /// Forward and backward perform one MAC per (weight × output
    /// position × sample); weight update likewise (each weight gradient
    /// accumulates over `N·P·Q` products). All three phases therefore have
    /// the same dense MAC count, as Fig 2 implies.
    pub fn dense_macs(&self, phase: Phase) -> u64 {
        let _ = phase;
        self.weights() as u64 * self.batch as u64 * self.p as u64 * self.q as u64
    }

    /// Input activation element count (`N·C·H·W`).
    pub fn input_elems(&self) -> u64 {
        self.batch as u64 * self.c as u64 * self.h as u64 * self.w as u64
    }

    /// Output activation element count (`N·K·P·Q`).
    pub fn output_elems(&self) -> u64 {
        self.batch as u64 * self.k as u64 * self.p as u64 * self.q as u64
    }

    /// A stable 64-bit fingerprint of the task geometry (the name is
    /// excluded: two identically-shaped layers cost the same).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        for v in [
            self.batch, self.c, self.k, self.h, self.w, self.p, self.q, self.r, self.s,
        ] {
            h.write_usize(v);
        }
        h.write(&[u8::from(self.depthwise)]);
        h.finish()
    }
}

/// Sparsity of a layer's operands during training.
///
/// `kernel_nnz` holds the nonzero count of every weight kernel (CSB
/// block): indexed `k·C + c` for standard conv (or `c` for depthwise) —
/// exactly the per-kernel density the CSB pointer array exposes in O(1).
/// The cost model reads it through a [`MaskSummary`](crate::MaskSummary),
/// which reduces it once to the per-row, per-column and per-tile view
/// the array needs.
#[derive(Debug, Clone, PartialEq)]
pub struct SparsityInfo {
    /// Nonzeros per kernel, length [`LayerTask::kernels`].
    pub kernel_nnz: Vec<u32>,
    /// Input-activation density in `(0, 1]` (ReLU zeros; exploited in the
    /// weight-update phase).
    pub act_in_density: f64,
    /// Back-propagated gradient density (≈ 1.0: batch norm destroys
    /// sparsity, §II-B).
    pub grad_density: f64,
    /// True when weights live in the CSB format (Procrustes): traffic is
    /// nnz-scaled plus mask/pointer overheads and the QE unit filters
    /// gradient write-back. False for the dense baseline accelerator,
    /// which stores raw dense tensors and has none of the sparse
    /// machinery.
    pub compressed: bool,
}

impl SparsityInfo {
    /// Fully dense operands for `task` on the *dense baseline* (no
    /// compressed format, no sparse-support hardware).
    pub fn dense(task: &LayerTask) -> Self {
        Self {
            kernel_nnz: vec![(task.r * task.s) as u32; task.kernels()],
            act_in_density: 1.0,
            grad_density: 1.0,
            compressed: false,
        }
    }

    /// Uniform weight sparsity: every kernel keeps `keep` of its weights
    /// (rounded), activations at the given density. CSB-compressed.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < keep <= 1` and densities are in `(0, 1]`.
    pub fn uniform(task: &LayerTask, keep: f64, act_in_density: f64) -> Self {
        assert!(keep > 0.0 && keep <= 1.0, "keep fraction out of range");
        assert!(
            act_in_density > 0.0 && act_in_density <= 1.0,
            "activation density out of range"
        );
        let per = ((task.r * task.s) as f64 * keep).round().max(0.0) as u32;
        Self {
            kernel_nnz: vec![per; task.kernels()],
            act_in_density,
            grad_density: 1.0,
            compressed: true,
        }
    }

    /// Total weight nonzeros.
    pub fn total_nnz(&self) -> u64 {
        self.kernel_nnz.iter().map(|&v| u64::from(v)).sum()
    }

    /// Weight density in `[0, 1]` relative to `task`; `0` for a task
    /// with no weights.
    pub fn weight_density(&self, task: &LayerTask) -> f64 {
        self.total_nnz() as f64 / task.weights().max(1) as f64
    }

    /// A stable 64-bit fingerprint of the sparsity pattern, cheap relative
    /// to the cost model itself.
    ///
    /// Two `SparsityInfo`s with the same fingerprint are (up to hash
    /// collision) the same workload sparsity; the evaluation engine in
    /// `procrustes-core` uses this to memoize per-layer costs across
    /// scenarios that share layers.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint_with(|h| {
            for &n in &self.kernel_nnz {
                h.write_u32(n);
            }
        })
        .1
    }

    /// The fingerprint's frame around `kernels`, which must write every
    /// count of `kernel_nnz` in order (the shared byte stream of
    /// [`SparsityInfo::fingerprint`] and `MaskSummary::with_fingerprint`).
    pub(crate) fn fingerprint_with<T>(&self, kernels: impl FnOnce(&mut Fnv1a) -> T) -> (T, u64) {
        let mut h = Fnv1a::new();
        h.write_usize(self.kernel_nnz.len());
        let inner = kernels(&mut h);
        h.write_f64(self.act_in_density);
        h.write_f64(self.grad_density);
        h.write(&[u8::from(self.compressed)]);
        (inner, h.finish())
    }

    /// Validates the descriptor against a task.
    ///
    /// # Panics
    ///
    /// Panics if the kernel count mismatches or any kernel exceeds its
    /// dense capacity.
    pub fn validate(&self, task: &LayerTask) {
        assert_eq!(
            self.kernel_nnz.len(),
            task.kernels(),
            "kernel_nnz length mismatch for {}",
            task.name
        );
        let cap = (task.r * task.s) as u32;
        assert!(
            self.kernel_nnz.iter().all(|&v| v <= cap),
            "kernel nnz exceeds {cap} for {}",
            task.name
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_task_output_dims() {
        let t = LayerTask::conv("c", 16, 64, 128, 32, 32, 3, 2, 1);
        assert_eq!((t.p, t.q), (16, 16));
        assert_eq!(t.weights(), 128 * 64 * 9);
        assert_eq!(t.kernels(), 128 * 64);
    }

    #[test]
    fn fc_task_is_1x1() {
        let t = LayerTask::fc("fc", 16, 512, 10);
        assert_eq!(t.weights(), 5120);
        assert_eq!(t.dense_macs(Phase::Forward), 5120 * 16);
    }

    #[test]
    fn depthwise_kernels_are_per_channel() {
        let t = LayerTask::depthwise("dw", 1, 32, 8, 8, 3, 1, 1);
        assert_eq!(t.kernels(), 32);
        assert_eq!(t.weights(), 32 * 9);
        assert_eq!(t.dense_macs(Phase::Forward), (32 * 9 * 64) as u64);
    }

    #[test]
    fn all_phases_have_equal_dense_macs() {
        let t = LayerTask::conv("c", 4, 16, 32, 16, 16, 3, 1, 1);
        let fw = t.dense_macs(Phase::Forward);
        assert_eq!(fw, t.dense_macs(Phase::Backward));
        assert_eq!(fw, t.dense_macs(Phase::WeightUpdate));
    }

    #[test]
    fn uniform_sparsity_scales_nnz() {
        let t = LayerTask::conv("c", 1, 8, 8, 8, 8, 3, 1, 1);
        let sp = SparsityInfo::uniform(&t, 0.2, 0.5);
        sp.validate(&t);
        // 9 weights * 0.2 rounds to 2 per kernel.
        assert_eq!(sp.total_nnz(), 2 * 64);
        assert!((sp.weight_density(&t) - 2.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn dense_info_has_full_kernels() {
        let t = LayerTask::conv("c", 1, 4, 4, 8, 8, 3, 1, 1);
        let sp = SparsityInfo::dense(&t);
        assert_eq!(sp.weight_density(&t), 1.0);
        sp.validate(&t);
    }

    /// The fingerprint against its byte stream spelled out with the byte
    /// loop, on a 17×17 conv whose counts (cap 289) straddle 255, so both
    /// paths of `Fnv1a::write_u32` are pinned, through the fused pass too.
    #[test]
    fn fingerprint_is_the_byte_stream_above_255() {
        let t = LayerTask::conv("wide", 1, 3, 5, 20, 20, 17, 1, 8);
        let cap = (t.r * t.s) as u32;
        let sp = SparsityInfo {
            kernel_nnz: (0..t.kernels())
                .map(|i| [cap, 256, 255, 0, 17][i % 5])
                .collect(),
            act_in_density: 0.7,
            grad_density: 1.0,
            compressed: true,
        };
        sp.validate(&t);
        let mut h = Fnv1a::new();
        h.write(&(sp.kernel_nnz.len() as u64).to_le_bytes());
        for n in &sp.kernel_nnz {
            h.write(&n.to_le_bytes());
        }
        h.write(&sp.act_in_density.to_bits().to_le_bytes());
        h.write(&sp.grad_density.to_bits().to_le_bytes());
        h.write(&[u8::from(sp.compressed)]);
        assert_eq!(sp.fingerprint(), h.finish());
        assert_eq!(crate::MaskSummary::with_fingerprint(&t, &sp).1, h.finish());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn validate_rejects_wrong_kernel_count() {
        let t = LayerTask::conv("c", 1, 4, 4, 8, 8, 3, 1, 1);
        let sp = SparsityInfo {
            kernel_nnz: vec![1; 3],
            act_in_density: 1.0,
            grad_density: 1.0,
            compressed: true,
        };
        sp.validate(&t);
    }
}
