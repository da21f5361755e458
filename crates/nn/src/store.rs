//! Weight storage for sparse-aware layers: a dense master tensor with an
//! optional compressed-sparse-block compute representation.
//!
//! Sparse trainers (Dropback, Procrustes) rewrite the materialized weight
//! tensor every step through [`Layer::visit_params`](crate::Layer), so
//! the dense tensor stays the single source of truth; the CSB copy is a
//! *compute cache* re-derived lazily before the next forward pass
//! whenever the weights may have changed ("resyncing layout after mask
//! updates"). Layers dispatch their forward/backward kernels on the
//! active representation, so switching backends never changes results —
//! the CSB kernels are bitwise-equal to the dense ones (see
//! `procrustes_sparse::kernels`).
//!
//! The kernels do not read the CSB copy directly: each resync also
//! flattens it into the decode its layout's kernels walk — a
//! [`ConvDecode`] for conv stores, an [`FcDecode`] (and one for the
//! cached transpose) for fc stores — so masks and pointers are decoded
//! once per resync, not once per forward and once per backward call.

use procrustes_sparse::{ConvDecode, CsbTensor, FcDecode};
use procrustes_tensor::Tensor;

/// Which kernels a sparse-aware layer runs its weights through.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ComputeBackend {
    /// Dense tensors and dense kernels (the baseline).
    #[default]
    Dense,
    /// CSB-compressed weights and sparse kernels, unconditionally.
    Csb,
    /// Per-layer choice: a layer is promoted to CSB once its weight
    /// density (fraction of nonzeros) falls to `max_density` or below,
    /// and demoted back when it rises — re-decided at every resync.
    Auto {
        /// Promotion threshold on the density, in `[0, 1]`.
        max_density: f64,
    },
}

impl ComputeBackend {
    /// The default promotion threshold for [`ComputeBackend::auto`].
    ///
    /// Measured, not assumed (`crates/bench/tests/csb_kernel_smoke.rs`
    /// prints it on every perf run; tiny-VGG conv stack, batch 8, serial
    /// CSB kernels against the 2-thread GEMMs on a 2-core AVX-512 host):
    /// at this density a promoted layer's kernel pair costs 5.3 ms on CSB
    /// against 9.5 ms dense. The halves differ: the forward SpMM alone
    /// breaks even near density 0.2 and loses at 0.5 (2.7 vs 1.9 ms),
    /// while the backward-input gather wins at every density (2.7 vs
    /// 7.5 ms at 0.5), so the pair only meets the dense one near density
    /// 1.0. The threshold stays well below that because each resync of a
    /// promoted layer also pays an encode and a decode that scale with
    /// the nonzeros. Backends are bit-equal, so the threshold can only
    /// move time, never a result.
    pub const AUTO_MAX_DENSITY: f64 = 0.5;

    /// [`ComputeBackend::Auto`] with the default threshold.
    pub fn auto() -> Self {
        ComputeBackend::Auto {
            max_density: Self::AUTO_MAX_DENSITY,
        }
    }

    /// A short label for reports and serialized scenarios.
    pub fn label(&self) -> String {
        match *self {
            ComputeBackend::Dense => "dense".to_string(),
            ComputeBackend::Csb => "csb".to_string(),
            ComputeBackend::Auto { max_density } => format!("auto({max_density:.2})"),
        }
    }

    /// Whether a weight tensor of the given density should run on CSB.
    pub fn wants_csb(&self, density: f64) -> bool {
        match *self {
            ComputeBackend::Dense => false,
            ComputeBackend::Csb => true,
            ComputeBackend::Auto { max_density } => density <= max_density,
        }
    }
}

/// How a [`WeightStore`] lays its tensor out when compressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreLayout {
    /// `KCRS` conv weights: one block per `(k, c)` filter.
    Conv,
    /// `[out, in]` fc weights in square blocks. `transposed` additionally
    /// caches the piecewise-transposed tensor for the backward pass.
    Fc {
        /// Block edge length.
        edge: usize,
        /// Also keep `Wᵀ` in CSB (fc backward needs it every step).
        transposed: bool,
    },
}

/// The default fc block edge (the paper sizes fc regions per layer; 64
/// keeps pointer overhead negligible while borders stay cheap).
pub const DEFAULT_FC_EDGE: usize = 64;

/// A layer's weight tensor in its active compute representation.
///
/// `Dense` is the plain tensor; `Csb` pairs the dense master (still the
/// mutation target for trainers) with its compressed compute copy and
/// the flat decode of that copy the kernels run on. Use
/// [`WeightStore::sync`] to re-derive the representation after the
/// master may have changed.
// Layers hold exactly one store, so the variant size gap is irrelevant.
#[allow(clippy::large_enum_variant)]
pub enum WeightStore {
    /// Dense master only; dense kernels.
    Dense(Tensor),
    /// CSB compute representation mirroring the dense master.
    Csb {
        /// The dense master (what `visit_params` exposes).
        master: Tensor,
        /// The compressed compute copy.
        csb: CsbTensor,
        /// The piecewise-transposed copy (fc layouts with `transposed`).
        transposed: Option<CsbTensor>,
        /// Flat matvec decode of `csb` (fc layouts): built once per
        /// resync so the per-call decode allocation leaves the hot loop.
        decode: Option<FcDecode>,
        /// Flat matvec decode of `transposed`.
        decode_t: Option<FcDecode>,
        /// Flat decode of `csb` in forward and rotated backward order
        /// (conv layouts), built beside the fc decodes at each resync.
        conv_decode: Option<ConvDecode>,
    },
}

impl WeightStore {
    /// Wraps a freshly initialized dense tensor.
    pub fn new(master: Tensor) -> Self {
        WeightStore::Dense(master)
    }

    /// The dense master tensor (always available, whatever the backend).
    pub fn tensor(&self) -> &Tensor {
        match self {
            WeightStore::Dense(t) | WeightStore::Csb { master: t, .. } => t,
        }
    }

    /// Mutable access to the dense master. After mutating, the owner
    /// must [`sync`](WeightStore::sync) before the next forward pass.
    pub fn tensor_mut(&mut self) -> &mut Tensor {
        match self {
            WeightStore::Dense(t) | WeightStore::Csb { master: t, .. } => t,
        }
    }

    /// The CSB compute copy, if the store is compressed.
    pub fn csb(&self) -> Option<&CsbTensor> {
        match self {
            WeightStore::Dense(_) => None,
            WeightStore::Csb { csb, .. } => Some(csb),
        }
    }

    /// The cached transposed CSB copy, if present.
    pub fn csb_transposed(&self) -> Option<&CsbTensor> {
        match self {
            WeightStore::Dense(_) => None,
            WeightStore::Csb { transposed, .. } => transposed.as_ref(),
        }
    }

    /// The cached flat fc matvec decode, if the store is compressed
    /// with an fc layout.
    pub fn fc_decode(&self) -> Option<&FcDecode> {
        match self {
            WeightStore::Dense(_) => None,
            WeightStore::Csb { decode, .. } => decode.as_ref(),
        }
    }

    /// The cached flat decode of the transposed copy.
    pub fn fc_decode_transposed(&self) -> Option<&FcDecode> {
        match self {
            WeightStore::Dense(_) => None,
            WeightStore::Csb { decode_t, .. } => decode_t.as_ref(),
        }
    }

    /// The cached flat conv decode, if the store is compressed with a
    /// conv layout.
    pub fn conv_decode(&self) -> Option<&ConvDecode> {
        match self {
            WeightStore::Dense(_) => None,
            WeightStore::Csb { conv_decode, .. } => conv_decode.as_ref(),
        }
    }

    /// True when the compressed representation is active.
    pub fn is_csb(&self) -> bool {
        matches!(self, WeightStore::Csb { .. })
    }

    /// Density (fraction of nonzeros) of the master tensor.
    pub fn density(&self) -> f64 {
        1.0 - self.tensor().sparsity()
    }

    /// Re-derives the compute representation from the dense master:
    /// compresses (or decompresses) according to what `backend` wants
    /// for the master's current density.
    pub fn sync(&mut self, backend: ComputeBackend, layout: StoreLayout) {
        // Fast path for the dense steady state: `visit_params` dirties
        // the store every step, but a dense store staying dense needs no
        // work (and `Dense`/`Csb` decide without scanning the tensor).
        let wants = match backend {
            ComputeBackend::Dense => false,
            ComputeBackend::Csb => true,
            ComputeBackend::Auto { .. } => backend.wants_csb(self.density()),
        };
        if !wants {
            if let WeightStore::Dense(_) = self {
                return;
            }
        }
        let master = match std::mem::replace(self, WeightStore::Dense(Tensor::zeros(&[1]))) {
            WeightStore::Dense(t) | WeightStore::Csb { master: t, .. } => t,
        };
        *self = if wants {
            let (csb, transposed) = match layout {
                StoreLayout::Conv => (CsbTensor::from_dense_conv(&master), None),
                StoreLayout::Fc { edge, transposed } => {
                    let csb = CsbTensor::from_dense_fc(&master, edge);
                    let t = transposed.then(|| csb.transposed_fc());
                    (csb, t)
                }
            };
            let decode = matches!(layout, StoreLayout::Fc { .. }).then(|| FcDecode::from_csb(&csb));
            let decode_t = transposed.as_ref().map(FcDecode::from_csb);
            let conv_decode =
                matches!(layout, StoreLayout::Conv).then(|| ConvDecode::from_csb(&csb));
            WeightStore::Csb {
                master,
                csb,
                transposed,
                decode,
                decode_t,
                conv_decode,
            }
        } else {
            WeightStore::Dense(master)
        };
    }
}

impl std::fmt::Debug for WeightStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WeightStore::Dense(t) => write!(f, "WeightStore::Dense({:?})", t.shape()),
            WeightStore::Csb { master, csb, .. } => write!(
                f,
                "WeightStore::Csb({:?}, nnz {})",
                master.shape(),
                csb.nnz()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_labels_and_thresholds() {
        assert_eq!(ComputeBackend::Dense.label(), "dense");
        assert_eq!(ComputeBackend::Csb.label(), "csb");
        assert_eq!(ComputeBackend::auto().label(), "auto(0.50)");
        assert!(!ComputeBackend::Dense.wants_csb(0.0));
        assert!(ComputeBackend::Csb.wants_csb(1.0));
        assert!(ComputeBackend::auto().wants_csb(0.5));
        assert!(!ComputeBackend::auto().wants_csb(0.51));
    }

    #[test]
    fn sync_promotes_and_demotes_on_density() {
        let dense = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 0.0, 0.0, 0.0]);
        let mut store = WeightStore::new(dense);
        assert!(!store.is_csb());
        store.sync(ComputeBackend::auto(), StoreLayout::Conv);
        assert!(store.is_csb(), "25% density should promote");
        assert_eq!(store.csb().unwrap().nnz(), 1);
        assert_eq!(store.conv_decode().expect("decoded at resync").nnz(), 1);
        // Refill the master through the mutable view, resync: demotes.
        store.tensor_mut().map_inplace(|_| 1.0);
        store.sync(ComputeBackend::auto(), StoreLayout::Conv);
        assert!(!store.is_csb(), "full density should demote");
    }

    #[test]
    fn fc_sync_caches_transpose() {
        let dense = Tensor::from_vec(&[2, 3], vec![1.0, 0.0, 2.0, 0.0, 3.0, 0.0]);
        let mut store = WeightStore::new(dense);
        store.sync(
            ComputeBackend::Csb,
            StoreLayout::Fc {
                edge: 2,
                transposed: true,
            },
        );
        let t = store.csb_transposed().expect("transpose cached");
        assert_eq!(t.to_dense(), store.tensor().transpose2d());
    }
}
