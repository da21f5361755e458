//! Weight storage for sparse-aware layers: a dense master tensor with an
//! optional sparse compute representation.
//!
//! Sparse trainers (Dropback, Procrustes) rewrite the materialized weight
//! tensor every step through [`Layer::visit_params`](crate::Layer), so
//! the dense tensor stays the single source of truth; the
//! [`ConvDecode`] is a *compute cache* re-derived lazily before the
//! next forward pass whenever the weights may have changed ("resyncing
//! layout after mask updates"). The store owns everything that
//! decision needs — the master, the [`ComputeBackend`] policy and the
//! dirty bit — so a layer only syncs and dispatches. The cache goes stale on a write, never on
//! a read: a visit hands the store out as [`Values`](crate::Values),
//! which marks it only when a visitor borrows the master mutably.
//! Switching backends never changes results: the sparse kernels are
//! bitwise-equal to the dense ones (see `procrustes_sparse::kernels`).
//!
//! A resync reads the master once and encodes its nonzeros straight
//! into the CSRs the kernels walk — forward and rotated for a `KCRS`
//! master; an `[out, in]` master is the 1×1 conv it is, so its two are
//! `W` and `Wᵀ` — reusing the previous resync's buffers, so a
//! steady-state resync allocates nothing. The one read is
//! the forward order's scan (64 entries to an occupancy word, branching
//! on nonzeros, not on each entry); the second order is a counting sort
//! of the first, and a compressed store takes the density that decides
//! its backend from the encoding's nonzero count. The
//! compressed-sparse-block format (`procrustes_sparse::CsbTensor`) is
//! what the accelerator stores and the simulator accounts for; the CPU
//! twin derives its CSRs from the master without building it.
//!
//! `Conv2d` and `Linear` hold their store in one [`WeightCore`] with
//! its gradient and optional bias, an fc layer's output being a conv's
//! at `P·Q = 1`.

use procrustes_sparse::ConvDecode;
use procrustes_tensor::Tensor;

use crate::{ParamKind, ParamTensor, Values};

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

/// A layer's weight tensor with its compute representation.
///
/// The dense master is what trainers mutate; under a CSB-selecting
/// [`ComputeBackend`] the store also caches the master's [`ConvDecode`].
/// Writing goes through [`tensor_mut`](WeightStore::tensor_mut) or
/// [`set_backend`](WeightStore::set_backend), which mark the cache
/// stale; reading through [`tensor`](WeightStore::tensor) leaves it
/// valid, and [`WeightStore::sync`] re-derives only a stale one.
pub struct WeightStore {
    master: Tensor,
    backend: ComputeBackend,
    /// Set whenever the master or the backend may have changed since the
    /// last sync.
    dirty: bool,
    decode: Option<ConvDecode>,
    /// Encodes of the master into a decode since construction.
    encodes: u64,
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
            encodes: 0,
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
    pub fn decode(&self) -> Option<&ConvDecode> {
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

    /// How many times [`sync`](WeightStore::sync) has encoded the master
    /// into a decode (a first build or a re-encode); a sync that finds
    /// the store clean, or keeps it dense, encodes nothing.
    pub fn encodes(&self) -> u64 {
        self.encodes
    }

    /// Re-derives the compute representation if it is stale: re-encodes
    /// the master's nonzeros into the decode (reusing its buffers) or
    /// drops the decode, according to what the backend wants for the
    /// master's current density.
    ///
    /// A compressed store re-encodes first and reads its density off the
    /// encoding's nonzero count, so the master is read once; only a
    /// dense store under `Auto` scans it for the density alone.
    ///
    /// # Panics
    ///
    /// Panics when promoting a master that is neither `KCRS` nor
    /// `[out, in]`.
    pub fn sync(&mut self) {
        if !std::mem::take(&mut self.dirty) {
            return;
        }
        let len = self.master.len();
        match (self.backend, &mut self.decode) {
            (ComputeBackend::Dense, decode) => *decode = None,
            (backend, Some(decode)) => {
                self.encodes += 1;
                decode.encode(&self.master);
                let nnz = decode.nnz();
                // The formula of `density()`, so the decision is bitwise
                // the scan's.
                if !backend.wants_csb(1.0 - (len - nnz) as f64 / len as f64) {
                    self.decode = None;
                }
            }
            (backend, decode @ None) => {
                if backend.wants_csb(1.0 - self.master.sparsity()) {
                    self.encodes += 1;
                    *decode = Some(ConvDecode::from_dense(&self.master));
                }
            }
        }
    }
}

impl std::fmt::Debug for WeightStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WeightStore({:?}", self.master.shape())?;
        if let Some(d) = &self.decode {
            write!(f, ", csb nnz {}", d.nnz())?;
        }
        write!(f, ")")
    }
}

/// The parameters of a `Conv2d` or a `Linear`: the weight store, its
/// gradient and an optional per-output bias with its gradient. The
/// layer's output and upstream gradient are `[N, K, plane]`, with
/// `plane = P·Q` for a conv and `1` for an fc layer.
pub(crate) struct WeightCore {
    pub(crate) store: WeightStore,
    dweight: Tensor,
    bias: Option<(Tensor, Tensor)>,
}

impl WeightCore {
    /// Wraps `weight` (`K` outputs first) with a zero gradient and, if
    /// asked, a zero bias of `K` entries.
    pub(crate) fn new(weight: Tensor, bias: bool) -> Self {
        let k = weight.shape().dim(0);
        Self {
            dweight: Tensor::zeros(weight.shape().dims()),
            bias: bias.then(|| (Tensor::zeros(&[k]), Tensor::zeros(&[k]))),
            store: WeightStore::new(weight),
        }
    }

    /// Adds output `k`'s bias to every position of its plane in `y`.
    pub(crate) fn add_bias(&self, y: &mut Tensor) {
        if let Some((b, _)) = &self.bias {
            let (n, k, plane) = planes(y);
            let yd = y.data_mut();
            for ni in 0..n {
                for ki in 0..k {
                    let bk = b.data()[ki];
                    for v in &mut yd[(ni * k + ki) * plane..(ni * k + ki + 1) * plane] {
                        *v += bk;
                    }
                }
            }
        }
    }

    /// Adds `dw` to the weight gradient and each of `dy`'s plane sums to
    /// its output's bias gradient.
    pub(crate) fn accumulate(&mut self, dw: &Tensor, dy: &Tensor) {
        self.dweight.axpy(1.0, dw);
        if let Some((_, db)) = &mut self.bias {
            let (n, k, plane) = planes(dy);
            for ni in 0..n {
                for ki in 0..k {
                    let s: f32 = dy.data()[(ni * k + ki) * plane..(ni * k + ki + 1) * plane]
                        .iter()
                        .sum();
                    db.data_mut()[ki] += s;
                }
            }
        }
    }

    /// Visits the weight (prunable, as its store) and the bias under
    /// `names`.
    pub(crate) fn visit_params(
        &mut self,
        names: [&'static str; 2],
        visitor: &mut dyn FnMut(ParamTensor<'_>),
    ) {
        visitor(ParamTensor {
            name: names[0],
            kind: ParamKind::Prunable,
            values: Values::Store(&mut self.store),
            grads: &mut self.dweight,
        });
        if let Some((b, db)) = &mut self.bias {
            visitor(ParamTensor {
                name: names[1],
                kind: ParamKind::Auxiliary,
                values: Values::Plain(b),
                grads: db,
            });
        }
    }
}

/// `(N, K, plane)` of an `[N, K, …]` tensor, `plane` the product of the
/// trailing extents.
fn planes(t: &Tensor) -> (usize, usize, usize) {
    let dims = t.shape().dims();
    (dims[0], dims[1], dims[2..].iter().product())
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
        assert!(matches!(store.decode(), Some(d) if d.nnz() == 1));
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
        let decode = store.decode().expect("an [out, in] master decodes");
        assert_eq!(decode.nnz(), 3);
        let mut scratch = procrustes_tensor::Scratch::new();
        let dy = Tensor::from_vec(&[1, 2], vec![1.0, 1.0]);
        let dx = decode.fc_backward_input(&dy, &mut scratch);
        assert_eq!(dx.data(), dy.matmul(store.tensor()).data());
    }
}
