//! Weight storage for sparse-aware layers: a dense master tensor with an
//! optional sparse compute representation.
//!
//! Sparse trainers (Dropback, Procrustes) rewrite the materialized weight
//! tensor every step through [`Layer::visit_params`](crate::Layer), so
//! the dense tensor stays the single source of truth; the [`Decode`] is
//! a *compute cache* re-derived lazily before the next forward pass
//! whenever the weights may have changed ("resyncing layout after mask
//! updates"). The store owns everything that decision needs — the
//! master, the [`ComputeBackend`] policy and the dirty bit — so a layer
//! only marks, syncs and dispatches. Switching backends never changes
//! results: the sparse kernels are bitwise-equal to the dense ones (see
//! `procrustes_sparse::kernels`).
//!
//! A resync reads the master once per order and encodes its nonzeros
//! straight into the CSRs the kernels walk — forward and rotated for a
//! `KCRS` master, `W` and `Wᵀ` for `[out, in]` — reusing the previous
//! resync's buffers, so a steady-state resync allocates nothing. The
//! compressed-sparse-block format (`procrustes_sparse::CsbTensor`) is
//! what the accelerator stores and the simulator accounts for; the CPU
//! twin derives its CSRs from the master without building it.

use procrustes_sparse::{ConvDecode, FcDecode};
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
    /// prints the forward + backward-input pair on every perf run;
    /// tiny-VGG conv stack, batch 8, both sides reading the same padded
    /// planes on a 2-core AVX-512 host). Set when the gather was serial,
    /// at the density where its pair broke even with the 2-thread
    /// view-fed GEMMs (3.7–5.2 ms against 4.2–4.7). Since the gather
    /// splits its samples over the same pool, the pair at this density
    /// takes 0.60–0.66× the dense one (2.7–3.3 ms against 4.1–5.6 over
    /// three runs), 0.85–0.96× at 0.7 and breaks even between 0.7 and
    /// 0.8 (the dense GEMMs skip zero weights too, so their time falls
    /// with the density). Moving the threshold
    /// up would promote tiny-VGG's first layer (density ~0.78 in the
    /// benchmark's regime), which also pays an encode per resync; that
    /// is a separate, measured decision, so the threshold stays here.
    /// Backends are bit-equal, so it can only move time, never a result.
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
    fn wants_csb(&self, density: f64) -> bool {
        match *self {
            ComputeBackend::Dense => false,
            ComputeBackend::Csb => true,
            ComputeBackend::Auto { max_density } => density <= max_density,
        }
    }
}

/// The sparse encoding of a store's master that its layer's kernels run
/// on.
#[derive(Debug)]
pub enum Decode {
    /// Of a `KCRS` master: forward order and rotated backward order.
    Conv(ConvDecode),
    /// Of an `[out, in]` master: `W` by rows and `Wᵀ` by rows.
    Fc(FcDecode),
}

/// A layer's weight tensor with its compute representation.
///
/// The dense master is what trainers mutate; under a CSB-selecting
/// [`ComputeBackend`] the store also caches the master's [`Decode`].
/// Handing out the master mutably marks the cache stale, and
/// [`WeightStore::sync`] re-derives it.
pub struct WeightStore {
    master: Tensor,
    backend: ComputeBackend,
    /// Set whenever the master or the backend may have changed since the
    /// last sync.
    dirty: bool,
    decode: Option<Decode>,
}

impl WeightStore {
    /// Wraps a freshly initialized dense tensor (`KCRS` or `[out, in]`)
    /// under [`ComputeBackend::Dense`].
    pub fn new(master: Tensor) -> Self {
        Self {
            master,
            backend: ComputeBackend::Dense,
            dirty: false,
            decode: None,
        }
    }

    /// The dense master tensor (always available, whatever the backend).
    pub fn tensor(&self) -> &Tensor {
        &self.master
    }

    /// Mutable access to the dense master; marks the compute
    /// representation stale until the next [`sync`](WeightStore::sync).
    pub fn tensor_mut(&mut self) -> &mut Tensor {
        self.dirty = true;
        &mut self.master
    }

    /// Selects the backend policy; takes effect at the next sync.
    pub fn set_backend(&mut self, backend: ComputeBackend) {
        self.backend = backend;
        self.dirty = true;
    }

    /// The decode to run the sparse kernels on, if the store is
    /// compressed; `None` selects the dense kernels on the master.
    pub fn decode(&self) -> Option<&Decode> {
        self.decode.as_ref()
    }

    /// True when the compressed representation is active.
    pub fn is_csb(&self) -> bool {
        self.decode.is_some()
    }

    /// Density (fraction of nonzeros) of the master tensor.
    pub fn density(&self) -> f64 {
        1.0 - self.master.sparsity()
    }

    /// Re-derives the compute representation if it is stale: re-encodes
    /// the master's nonzeros into the decode (reusing its buffers) or
    /// drops the decode, according to what the backend wants for the
    /// master's current density.
    ///
    /// # Panics
    ///
    /// Panics when promoting a master that is neither `KCRS` nor
    /// `[out, in]`.
    pub fn sync(&mut self) {
        if !std::mem::take(&mut self.dirty) {
            return;
        }
        // `Dense`/`Csb` decide without scanning the tensor.
        let wants = match self.backend {
            ComputeBackend::Dense => false,
            ComputeBackend::Csb => true,
            ComputeBackend::Auto { .. } => self.backend.wants_csb(self.density()),
        };
        match (wants, &mut self.decode) {
            (false, decode) => *decode = None,
            (true, Some(Decode::Conv(d))) => d.encode(&self.master),
            (true, Some(Decode::Fc(d))) => d.encode(&self.master),
            (true, decode @ None) => {
                *decode = Some(if self.master.shape().rank() == 4 {
                    Decode::Conv(ConvDecode::from_dense(&self.master))
                } else {
                    Decode::Fc(FcDecode::from_dense(&self.master))
                });
            }
        }
    }
}

impl std::fmt::Debug for WeightStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WeightStore({:?}", self.master.shape())?;
        match &self.decode {
            Some(Decode::Conv(d)) => write!(f, ", csb nnz {}", d.nnz())?,
            Some(Decode::Fc(d)) => write!(f, ", csb nnz {}", d.nnz())?,
            None => {}
        }
        write!(f, ")")
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
        store.sync();
        assert!(!store.is_csb());
        store.set_backend(ComputeBackend::auto());
        store.sync();
        assert!(store.is_csb(), "25% density should promote");
        assert!(matches!(store.decode(), Some(Decode::Conv(d)) if d.nnz() == 1));
        // Refill the master through the mutable view, resync: demotes.
        store.tensor_mut().map_inplace(|_| 1.0);
        store.sync();
        assert!(!store.is_csb(), "full density should demote");
        assert!(store.decode().is_none());
    }

    #[test]
    fn fc_sync_caches_transpose() {
        let dense = Tensor::from_vec(&[2, 3], vec![1.0, 0.0, 2.0, 0.0, 3.0, 0.0]);
        let mut store = WeightStore::new(dense);
        store.set_backend(ComputeBackend::Csb);
        store.sync();
        let Some(Decode::Fc(decode)) = store.decode() else {
            panic!("an [out, in] master decodes as fc");
        };
        assert_eq!(decode.nnz(), 3);
        let mut scratch = procrustes_tensor::Scratch::new();
        let dy = Tensor::from_vec(&[1, 2], vec![1.0, 1.0]);
        let dx = decode.backward_input(&dy, &mut scratch);
        assert_eq!(dx.data(), dy.matmul(store.tensor()).data());
    }
}
