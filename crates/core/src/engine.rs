//! The unified evaluation API: declarative [`Scenario`]s, cartesian
//! [`Sweep`]s, and the parallel, memoizing [`Engine`].
//!
//! The paper's entire evaluation (Figs 1, 17–20, Tables II–III) is a
//! cartesian sweep over {network × architecture × mapping × sparsity ×
//! balancing}. This module makes that sweep a first-class object:
//!
//! * [`Scenario`] — a plain-data, JSON-serializable description of one
//!   evaluation (network id, [`ArchConfig`], [`Mapping`], minibatch,
//!   [`SparsityGen`], [`BalanceMode`]), with a validating
//!   [`ScenarioBuilder`];
//! * [`Sweep`] — a cartesian-product builder that expands axis lists into
//!   `Vec<Scenario>` in a documented deterministic order;
//! * [`Engine`] — the single evaluator: [`Engine::run`] for one scenario,
//!   [`Engine::run_all`] for a sweep, executed across a scoped thread
//!   pool with per-`(layer, phase, mapping, sparsity)` cost memoization
//!   so layers shared between scenarios are costed once;
//! * [`EvalResult`] — the cost of a scenario together with the scenario
//!   that produced it, plus derived-metric helpers
//!   ([`EvalResult::speedup_over`], [`EvalResult::energy_saving_over`])
//!   and JSON serialization.
//!
//! # Examples
//!
//! ```
//! use procrustes_core::{Engine, Scenario, SparsityGen, Sweep};
//! use procrustes_sim::Mapping;
//!
//! // One scenario…
//! let scenario = Scenario::builder("VGG-S")
//!     .mapping(Mapping::KN)
//!     .sparsity(SparsityGen::PaperSynthetic { seed: 42 })
//!     .build()
//!     .unwrap();
//! let engine = Engine::default();
//! let sparse = engine.run(&scenario).unwrap();
//!
//! // …or a sweep: dense + sparse across two mappings in one declaration.
//! let scenarios = Sweep::new()
//!     .networks(["VGG-S"])
//!     .mappings([Mapping::KN, Mapping::PQ])
//!     .sparsities([SparsityGen::Dense, SparsityGen::PaperSynthetic { seed: 42 }])
//!     .build()
//!     .unwrap();
//! let results = engine.run_all(&scenarios).unwrap();
//! assert_eq!(results.len(), 4);
//! let (dense_kn, sparse_kn) = (&results[0], &results[2]);
//! assert!(sparse_kn.speedup_over(dense_kn) > 1.0);
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use procrustes_nn::arch::{self, NetworkArch};
use procrustes_nn::ComputeBackend;
use procrustes_sim::{
    evaluate_layer_with, ArchConfig, BalanceMode, CostSummary, EnergyTable, Fidelity, Fnv1a,
    LayerCost, LayerTask, Mapping, Phase, SparsityInfo,
};

use crate::json::Json;
use crate::masks::{self, MaskGenConfig};

// ---------------------------------------------------------------------------
// Network registry
// ---------------------------------------------------------------------------

/// The five paper networks, in the figure order of Table II / Fig 17.
pub const PAPER_NETWORKS: [&str; 5] =
    ["WRN-28-10", "DenseNet", "VGG-S", "ResNet18", "MobileNet v2"];

/// Lowercases and strips punctuation so "VGG-S", "vgg_s", and "vggs" all
/// name the same network.
fn canon(id: &str) -> String {
    id.chars()
        .filter(char::is_ascii_alphanumeric)
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

/// Resolves a network id to its full-size geometry.
///
/// Ids are matched case-insensitively, ignoring `-`/`_`/spaces, so
/// `"VGG-S"`, `"vgg_s"`, and `"vggs"` are equivalent; common short
/// aliases (`"vgg"`, `"wrn"`, `"mobilenet"`) are accepted.
pub fn resolve_network(id: &str) -> Option<NetworkArch> {
    match canon(id).as_str() {
        "vggs" | "vgg" => Some(arch::vgg_s()),
        "resnet18" | "resnet" => Some(arch::resnet18()),
        "mobilenetv2" | "mobilenet" => Some(arch::mobilenet_v2()),
        "wrn2810" | "wrn" => Some(arch::wrn_28_10()),
        "densenet" => Some(arch::densenet()),
        _ => None,
    }
}

/// The Table II per-network weight-sparsity factor, used by
/// [`SparsityGen::PaperSynthetic`].
pub fn paper_sparsity_factor(id: &str) -> Option<f64> {
    match canon(id).as_str() {
        "vggs" | "vgg" => Some(5.2),
        "resnet18" | "resnet" => Some(11.7),
        "mobilenetv2" | "mobilenet" => Some(10.0),
        "wrn2810" | "wrn" => Some(4.3),
        "densenet" => Some(3.9),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a scenario is invalid or failed to deserialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// The network id matched none of the known geometries.
    UnknownNetwork(String),
    /// A parameter is out of range (message explains which).
    InvalidParam(String),
    /// A JSON document could not be parsed into a scenario.
    Parse(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::UnknownNetwork(id) => {
                write!(
                    f,
                    "unknown network '{id}' (known: {})",
                    PAPER_NETWORKS.join(", ")
                )
            }
            ScenarioError::InvalidParam(msg) => write!(f, "invalid scenario parameter: {msg}"),
            ScenarioError::Parse(msg) => write!(f, "scenario parse error: {msg}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

// ---------------------------------------------------------------------------
// SparsityGen
// ---------------------------------------------------------------------------

/// How a scenario's per-layer sparsity is produced.
#[derive(Debug, Clone, PartialEq)]
pub enum SparsityGen {
    /// The dense baseline: uncompressed weights, no sparse machinery.
    Dense,
    /// Uniform weight sparsity (the idealized Fig 1 setup): every kernel
    /// keeps the same fraction of its weights.
    Uniform {
        /// Kept weight fraction in `(0, 1]`.
        keep: f64,
        /// Input-activation density in `(0, 1]`.
        act_density: f64,
    },
    /// Synthetic Dropback-like masks from [`masks::generate`],
    /// deterministic in `seed`.
    Synthetic {
        /// Generator configuration.
        cfg: MaskGenConfig,
        /// PRNG seed.
        seed: u64,
    },
    /// Synthetic masks with the Table II sparsity factor of the
    /// scenario's network (resolved via [`paper_sparsity_factor`]), so a
    /// cartesian [`Sweep`] can pair every network with its own factor.
    PaperSynthetic {
        /// PRNG seed.
        seed: u64,
    },
    /// Explicit `(task, sparsity)` pairs, e.g. masks extracted from a
    /// trained model with [`masks::from_model`].
    Extracted(Vec<(LayerTask, SparsityInfo)>),
}

impl SparsityGen {
    /// True for the dense baseline.
    pub fn is_dense(&self) -> bool {
        matches!(self, SparsityGen::Dense)
    }

    /// A short human-readable label for report tables.
    pub fn label(&self) -> String {
        match self {
            SparsityGen::Dense => "dense".into(),
            SparsityGen::Uniform { keep, .. } => format!("uniform({keep:.2})"),
            SparsityGen::Synthetic { cfg, seed } => {
                format!("sparse({:.1}x,seed={seed})", cfg.sparsity_factor)
            }
            SparsityGen::PaperSynthetic { seed } => format!("sparse(paper,seed={seed})"),
            SparsityGen::Extracted(wl) => format!("extracted({} layers)", wl.len()),
        }
    }

    fn to_json(&self) -> Json {
        match self {
            SparsityGen::Dense => Json::Obj(vec![("kind".into(), Json::str("dense"))]),
            SparsityGen::Uniform { keep, act_density } => Json::Obj(vec![
                ("kind".into(), Json::str("uniform")),
                ("keep".into(), Json::f64(*keep)),
                ("act_density".into(), Json::f64(*act_density)),
            ]),
            SparsityGen::Synthetic { cfg, seed } => Json::Obj(vec![
                ("kind".into(), Json::str("synthetic")),
                ("seed".into(), Json::u64(*seed)),
                ("cfg".into(), mask_cfg_to_json(cfg)),
            ]),
            SparsityGen::PaperSynthetic { seed } => Json::Obj(vec![
                ("kind".into(), Json::str("paper_synthetic")),
                ("seed".into(), Json::u64(*seed)),
            ]),
            SparsityGen::Extracted(workloads) => Json::Obj(vec![
                ("kind".into(), Json::str("extracted")),
                (
                    "workloads".into(),
                    Json::Arr(
                        workloads
                            .iter()
                            .map(|(t, sp)| {
                                Json::Obj(vec![
                                    ("task".into(), task_to_json(t)),
                                    ("sparsity".into(), sparsity_info_to_json(sp)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        }
    }

    fn from_json(v: &Json) -> Result<Self, ScenarioError> {
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| ScenarioError::Parse("sparsity.kind missing".into()))?;
        let allowed: &[&str] = match kind {
            "dense" => &["kind"],
            "uniform" => &["kind", "keep", "act_density"],
            "synthetic" => &["kind", "seed", "cfg"],
            "paper_synthetic" => &["kind", "seed"],
            "extracted" => &["kind", "workloads"],
            _ => &["kind"],
        };
        check_keys(v, allowed, "sparsity")?;
        match kind {
            "dense" => Ok(SparsityGen::Dense),
            "uniform" => Ok(SparsityGen::Uniform {
                keep: f64_field(v, "keep")?,
                act_density: f64_field(v, "act_density")?,
            }),
            "synthetic" => Ok(SparsityGen::Synthetic {
                cfg: mask_cfg_from_json(
                    v.get("cfg")
                        .ok_or_else(|| ScenarioError::Parse("sparsity.cfg missing".into()))?,
                )?,
                seed: u64_field(v, "seed")?,
            }),
            "paper_synthetic" => Ok(SparsityGen::PaperSynthetic {
                seed: u64_field(v, "seed")?,
            }),
            "extracted" => {
                let items = v
                    .get("workloads")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| ScenarioError::Parse("sparsity.workloads missing".into()))?;
                let mut workloads = Vec::with_capacity(items.len());
                for item in items {
                    check_keys(item, &["task", "sparsity"], "workload")?;
                    let task =
                        task_from_json(item.get("task").ok_or_else(|| {
                            ScenarioError::Parse("workload.task missing".into())
                        })?)?;
                    let sp = sparsity_info_from_json(item.get("sparsity").ok_or_else(|| {
                        ScenarioError::Parse("workload.sparsity missing".into())
                    })?)?;
                    workloads.push((task, sp));
                }
                Ok(SparsityGen::Extracted(workloads))
            }
            other => Err(ScenarioError::Parse(format!(
                "unknown sparsity kind '{other}'"
            ))),
        }
    }
}

// ---------------------------------------------------------------------------
// Scenario
// ---------------------------------------------------------------------------

/// A plain-data, fully serializable description of one evaluation: which
/// network, on which hardware, under which mapping, minibatch, sparsity,
/// and balancing.
///
/// Construct through [`Scenario::builder`] (validating) or literally;
/// [`Scenario::validate`] checks a hand-built value. Serialize with
/// [`Scenario::to_json`] / [`Scenario::from_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Network id, resolved via [`resolve_network`].
    pub network: String,
    /// Accelerator configuration.
    pub arch: ArchConfig,
    /// Spatial mapping.
    pub mapping: Mapping,
    /// Minibatch size.
    pub batch: usize,
    /// Sparsity source.
    pub sparsity: SparsityGen,
    /// Load balancing mode.
    pub balance: BalanceMode,
    /// Execution backend: whether weights run through the CSB-compressed
    /// datapath (`compressed` workloads) or the uncompressed dense one.
    pub compute: ComputeBackend,
    /// Latency model: the closed-form analytic bound (the seed
    /// evaluation's numbers) or the tile-timed wave replay.
    pub fidelity: Fidelity,
}

impl Scenario {
    /// The default execution backend: [`ComputeBackend::Auto`] with a
    /// threshold of 1, i.e. "whatever the sparsity generator chose" —
    /// dense weights run uncompressed, sparse masks run on CSB. This
    /// reproduces the seed evaluation exactly.
    pub const DEFAULT_COMPUTE: ComputeBackend = ComputeBackend::Auto { max_density: 1.0 };

    /// The paper's evaluation minibatch (§III-B sizes its QE example at
    /// batch 16).
    pub const DEFAULT_BATCH: usize = 16;

    /// The default latency fidelity: the analytic model, reproducing the
    /// seed evaluation bit-for-bit. Documents from before the fidelity
    /// axis existed deserialize to this.
    pub const DEFAULT_FIDELITY: Fidelity = Fidelity::Analytic;

    /// Starts a validating builder for `network`.
    pub fn builder(network: impl Into<String>) -> ScenarioBuilder {
        ScenarioBuilder {
            network: network.into(),
            arch: ArchConfig::procrustes_16x16(),
            mapping: Mapping::KN,
            batch: Self::DEFAULT_BATCH,
            sparsity: SparsityGen::Dense,
            balance: None,
            compute: Self::DEFAULT_COMPUTE,
            fidelity: Self::DEFAULT_FIDELITY,
        }
    }

    /// The balancing the seed evaluation used by default: none for the
    /// dense baseline, half-tile for every sparse configuration.
    pub fn default_balance(sparsity: &SparsityGen) -> BalanceMode {
        if sparsity.is_dense() {
            BalanceMode::None
        } else {
            BalanceMode::HalfTile
        }
    }

    /// Checks every field; a `Scenario` that validates is guaranteed to
    /// evaluate without panicking.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let net = self.resolve_network()?;
        if self.batch == 0 {
            return Err(ScenarioError::InvalidParam("batch must be positive".into()));
        }
        match &self.sparsity {
            SparsityGen::Dense => {}
            SparsityGen::Uniform { keep, act_density } => {
                if !(*keep > 0.0 && *keep <= 1.0) {
                    return Err(ScenarioError::InvalidParam(format!(
                        "uniform keep {keep} outside (0, 1]"
                    )));
                }
                if !(*act_density > 0.0 && *act_density <= 1.0) {
                    return Err(ScenarioError::InvalidParam(format!(
                        "activation density {act_density} outside (0, 1]"
                    )));
                }
            }
            SparsityGen::Synthetic { cfg, .. } => {
                // NaN must fail too, hence the negated comparison shape.
                if cfg.sparsity_factor.partial_cmp(&1.0) != Some(std::cmp::Ordering::Greater) {
                    return Err(ScenarioError::InvalidParam(format!(
                        "sparsity factor {} must exceed 1",
                        cfg.sparsity_factor
                    )));
                }
                if !(cfg.act_density > 0.0 && cfg.act_density <= 1.0) {
                    return Err(ScenarioError::InvalidParam(format!(
                        "activation density {} outside (0, 1]",
                        cfg.act_density
                    )));
                }
            }
            SparsityGen::PaperSynthetic { .. } => {
                if paper_sparsity_factor(&self.network).is_none() {
                    return Err(ScenarioError::InvalidParam(format!(
                        "no Table II sparsity factor for network '{}'",
                        self.network
                    )));
                }
            }
            SparsityGen::Extracted(workloads) => {
                if workloads.is_empty() {
                    return Err(ScenarioError::InvalidParam(
                        "extracted workload list is empty".into(),
                    ));
                }
                for (task, sp) in workloads {
                    if task.batch != self.batch {
                        return Err(ScenarioError::InvalidParam(format!(
                            "extracted task '{}' has batch {} but the scenario batch is {}",
                            task.name, task.batch, self.batch
                        )));
                    }
                    if sp.kernel_nnz.len() != task.kernels() {
                        return Err(ScenarioError::InvalidParam(format!(
                            "task '{}': {} kernel nnz entries for {} kernels",
                            task.name,
                            sp.kernel_nnz.len(),
                            task.kernels()
                        )));
                    }
                    let cap = (task.r * task.s) as u32;
                    if sp.kernel_nnz.iter().any(|&n| n > cap) {
                        return Err(ScenarioError::InvalidParam(format!(
                            "task '{}': kernel nnz exceeds dense capacity {cap}",
                            task.name
                        )));
                    }
                }
            }
        }
        // Validating the hardware uses the panicking checker; mirror its
        // conditions as errors instead.
        if self.arch.rows == 0 || self.arch.cols == 0 {
            return Err(ScenarioError::InvalidParam("empty PE array".into()));
        }
        if self.arch.rf_words == 0 || self.arch.glb_bytes == 0 {
            return Err(ScenarioError::InvalidParam("empty on-chip storage".into()));
        }
        if self.arch.glb_bw_words == 0 || self.arch.dram_bw_words == 0 {
            return Err(ScenarioError::InvalidParam("zero bandwidth".into()));
        }
        if let ComputeBackend::Auto { max_density } = self.compute {
            // `contains` is false for NaN, so NaN fails too.
            if !(0.0..=1.0).contains(&max_density) {
                return Err(ScenarioError::InvalidParam(format!(
                    "auto compute threshold {max_density} outside [0, 1]"
                )));
            }
        }
        let _ = net;
        Ok(())
    }

    /// Resolves the network id to its geometry.
    pub fn resolve_network(&self) -> Result<NetworkArch, ScenarioError> {
        resolve_network(&self.network)
            .ok_or_else(|| ScenarioError::UnknownNetwork(self.network.clone()))
    }

    /// Materializes the `(task, sparsity)` pairs this scenario evaluates.
    pub fn resolve_workloads(&self) -> Result<Vec<(LayerTask, SparsityInfo)>, ScenarioError> {
        let net = self.resolve_network()?;
        Ok(self.workloads_for(&net))
    }

    /// Workload materialization against an already-resolved geometry,
    /// with the scenario's execution backend applied: [`ComputeBackend::
    /// Dense`] forces every workload onto the uncompressed dense weight
    /// datapath, [`ComputeBackend::Csb`] forces the compressed one, and
    /// [`ComputeBackend::Auto`] keeps the generator's choice for layers
    /// whose weight density is at or below the threshold (above it, the
    /// layer falls back to dense execution).
    ///
    /// A layer on the dense datapath multiplies every weight slot, zeros
    /// included — exactly what the dense kernels in `procrustes-nn` do —
    /// so its workload is densified (full `kernel_nnz`), not merely
    /// stored uncompressed. Activation and gradient densities are left
    /// untouched: the backend axis selects the *weight* representation.
    fn workloads_for(&self, net: &NetworkArch) -> Vec<(LayerTask, SparsityInfo)> {
        let mut workloads = self.raw_workloads_for(net);
        for (task, sp) in &mut workloads {
            sp.compressed = match self.compute {
                ComputeBackend::Dense => false,
                ComputeBackend::Csb => true,
                ComputeBackend::Auto { max_density } => {
                    let slots = (sp.kernel_nnz.len() * task.r * task.s).max(1);
                    let nnz: u64 = sp.kernel_nnz.iter().map(|&n| u64::from(n)).sum();
                    let density = nnz as f64 / slots as f64;
                    sp.compressed && density <= max_density
                }
            };
            if !sp.compressed {
                sp.kernel_nnz.fill((task.r * task.s) as u32);
            }
        }
        workloads
    }

    fn raw_workloads_for(&self, net: &NetworkArch) -> Vec<(LayerTask, SparsityInfo)> {
        match &self.sparsity {
            SparsityGen::Dense => masks::dense(net, self.batch),
            SparsityGen::Uniform { keep, act_density } => masks::dense(net, self.batch)
                .into_iter()
                .map(|(task, _)| {
                    let sp = SparsityInfo::uniform(&task, *keep, *act_density);
                    (task, sp)
                })
                .collect(),
            SparsityGen::Synthetic { cfg, seed } => masks::generate(net, cfg, self.batch, *seed),
            SparsityGen::PaperSynthetic { seed } => {
                let factor =
                    paper_sparsity_factor(&self.network).expect("validated: paper factor exists");
                masks::generate(
                    net,
                    &MaskGenConfig::paper_default(factor),
                    self.batch,
                    *seed,
                )
            }
            SparsityGen::Extracted(workloads) => workloads.clone(),
        }
    }

    /// Serializes to a self-contained JSON document.
    ///
    /// The serialization is *canonical*: field order, number formatting
    /// (shortest round-trip literals), and string escaping are all
    /// deterministic, so equal scenarios always produce byte-identical
    /// documents. [`Scenario::fingerprint`] relies on this.
    pub fn to_json(&self) -> String {
        self.json_value().to_string()
    }

    /// A stable 64-bit fingerprint of the complete scenario: FNV-1a
    /// (see [`procrustes_sim::Fnv1a`]) over the UTF-8 bytes of the
    /// canonical JSON serialization ([`Scenario::to_json`]).
    ///
    /// # Stability contract
    ///
    /// Equal scenarios hash equal **across threads, processes, and
    /// restarts** — unlike `std::hash`, there is no per-process random
    /// state. `procrustes-serve` depends on this in two load-bearing
    /// ways: the fingerprint picks the worker shard (so identical
    /// scenarios always reach the same shard's memo table) and addresses
    /// the persistent on-disk result cache. Extending `Scenario` with a
    /// new *defaulted* axis changes fingerprints only for scenarios that
    /// set the new axis, provided the serializer keeps emitting existing
    /// fields unchanged; the pinned-vector test in this module and the
    /// golden fingerprints in `procrustes-sim` guard the encoding.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write(self.to_json().as_bytes());
        h.finish()
    }

    fn json_value(&self) -> Json {
        Json::Obj(vec![
            ("network".into(), Json::str(self.network.clone())),
            ("arch".into(), arch_to_json(&self.arch)),
            ("mapping".into(), Json::str(self.mapping.label())),
            ("batch".into(), Json::usize(self.batch)),
            ("sparsity".into(), self.sparsity.to_json()),
            ("balance".into(), Json::str(balance_label(self.balance))),
            ("compute".into(), compute_to_json(self.compute)),
            ("fidelity".into(), Json::str(self.fidelity.label())),
        ])
    }

    /// Deserializes a document produced by [`Scenario::to_json`].
    ///
    /// This entry point is safe for **untrusted input**: every failure is
    /// a structured [`ScenarioError`] (never a panic), and unknown fields
    /// are rejected rather than silently ignored — a typo'd axis name
    /// (`"fidelty"`) must not quietly evaluate the wrong configuration.
    /// Fields added after a document was written (e.g. `compute`,
    /// `fidelity`) may be *absent* and take their documented defaults;
    /// only *unrecognized* keys are errors.
    ///
    /// Parsing does not validate ranges; call [`Scenario::validate`] (or
    /// let [`Engine::run`] do it) before evaluating.
    pub fn from_json(text: &str) -> Result<Scenario, ScenarioError> {
        let v = Json::parse(text).map_err(ScenarioError::Parse)?;
        Self::from_json_value(&v)
    }

    /// [`Scenario::from_json`] over an already-parsed [`Json`] value
    /// (e.g. a sub-object of a larger request document).
    pub fn from_json_value(v: &Json) -> Result<Scenario, ScenarioError> {
        check_keys(
            v,
            &[
                "network", "arch", "mapping", "batch", "sparsity", "balance", "compute", "fidelity",
            ],
            "scenario",
        )?;
        Ok(Scenario {
            network: v
                .get("network")
                .and_then(Json::as_str)
                .ok_or_else(|| ScenarioError::Parse("network missing".into()))?
                .to_string(),
            arch: arch_from_json(
                v.get("arch")
                    .ok_or_else(|| ScenarioError::Parse("arch missing".into()))?,
            )?,
            mapping: mapping_from_label(
                v.get("mapping")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ScenarioError::Parse("mapping missing".into()))?,
            )?,
            batch: v
                .get("batch")
                .and_then(Json::as_usize)
                .ok_or_else(|| ScenarioError::Parse("batch missing".into()))?,
            sparsity: SparsityGen::from_json(
                v.get("sparsity")
                    .ok_or_else(|| ScenarioError::Parse("sparsity missing".into()))?,
            )?,
            balance: balance_from_label(
                v.get("balance")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ScenarioError::Parse("balance missing".into()))?,
            )?,
            // Documents from before the compute axis existed deserialize
            // to the default backend (the seed evaluation's behaviour).
            compute: match v.get("compute") {
                Some(c) => compute_from_json(c)?,
                None => Scenario::DEFAULT_COMPUTE,
            },
            // Likewise, pre-fidelity documents default to the analytic
            // model, reproducing the seed numbers bit-for-bit.
            fidelity: match v.get("fidelity") {
                Some(f) => fidelity_from_label(
                    f.as_str()
                        .ok_or_else(|| ScenarioError::Parse("fidelity not a string".into()))?,
                )?,
                None => Scenario::DEFAULT_FIDELITY,
            },
        })
    }
}

/// Builds a [`Scenario`] with the seed evaluation's defaults: the 16×16
/// Procrustes array, the `K,N` mapping, batch 16, dense weights, and
/// balancing chosen by [`Scenario::default_balance`].
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    network: String,
    arch: ArchConfig,
    mapping: Mapping,
    batch: usize,
    sparsity: SparsityGen,
    balance: Option<BalanceMode>,
    compute: ComputeBackend,
    fidelity: Fidelity,
}

impl ScenarioBuilder {
    /// Sets the accelerator configuration.
    pub fn arch(mut self, arch: ArchConfig) -> Self {
        self.arch = arch;
        self
    }

    /// Sets the spatial mapping.
    pub fn mapping(mut self, mapping: Mapping) -> Self {
        self.mapping = mapping;
        self
    }

    /// Sets the minibatch size.
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Sets the sparsity source.
    pub fn sparsity(mut self, sparsity: SparsityGen) -> Self {
        self.sparsity = sparsity;
        self
    }

    /// Shorthand for [`SparsityGen::Synthetic`].
    pub fn synthetic(self, cfg: MaskGenConfig, seed: u64) -> Self {
        self.sparsity(SparsityGen::Synthetic { cfg, seed })
    }

    /// Overrides the balancing mode (default: [`Scenario::default_balance`]).
    pub fn balance(mut self, balance: BalanceMode) -> Self {
        self.balance = Some(balance);
        self
    }

    /// Sets the execution backend (default: [`Scenario::DEFAULT_COMPUTE`]).
    pub fn compute(mut self, compute: ComputeBackend) -> Self {
        self.compute = compute;
        self
    }

    /// Sets the latency fidelity (default:
    /// [`Scenario::DEFAULT_FIDELITY`], the analytic model).
    pub fn fidelity(mut self, fidelity: Fidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Validates and produces the scenario.
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        let balance = self
            .balance
            .unwrap_or_else(|| Scenario::default_balance(&self.sparsity));
        let scenario = Scenario {
            network: self.network,
            arch: self.arch,
            mapping: self.mapping,
            batch: self.batch,
            sparsity: self.sparsity,
            balance,
            compute: self.compute,
            fidelity: self.fidelity,
        };
        scenario.validate()?;
        Ok(scenario)
    }
}

// ---------------------------------------------------------------------------
// Sweep
// ---------------------------------------------------------------------------

/// A cartesian-product builder over scenario axes.
///
/// Unset axes fall back to the seed evaluation's defaults (one 16×16
/// array, the `K,N` mapping, batch 16, dense weights, automatic
/// balancing); `networks` must name at least one network.
///
/// Expansion order is deterministic and documented: network (outermost),
/// then sparsity, then compute backend, then fidelity, then mapping,
/// then batch, then architecture, then balance (innermost). Consumers
/// that prefer not to rely on ordering can match on each result's
/// [`EvalResult::scenario`].
///
/// # Examples
///
/// ```
/// use procrustes_core::{SparsityGen, Sweep};
/// use procrustes_sim::Mapping;
///
/// let scenarios = Sweep::new()
///     .networks(["VGG-S", "ResNet18"])
///     .mappings(Mapping::ALL)
///     .sparsities([SparsityGen::Dense, SparsityGen::PaperSynthetic { seed: 1 }])
///     .build()
///     .unwrap();
/// assert_eq!(scenarios.len(), 2 * 4 * 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sweep {
    networks: Vec<String>,
    arches: Vec<ArchConfig>,
    mappings: Vec<Mapping>,
    batches: Vec<usize>,
    sparsities: Vec<SparsityGen>,
    balances: Vec<Option<BalanceMode>>,
    computes: Vec<ComputeBackend>,
    fidelities: Vec<Fidelity>,
}

impl Sweep {
    /// Starts an empty sweep.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the network axis (required).
    pub fn networks<I, S>(mut self, networks: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.networks = networks.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the architecture axis (default: the 16×16 Procrustes array).
    pub fn arches(mut self, arches: impl IntoIterator<Item = ArchConfig>) -> Self {
        self.arches = arches.into_iter().collect();
        self
    }

    /// Sets the mapping axis (default: `K,N`).
    pub fn mappings(mut self, mappings: impl IntoIterator<Item = Mapping>) -> Self {
        self.mappings = mappings.into_iter().collect();
        self
    }

    /// Sets the minibatch axis (default: 16).
    pub fn batches(mut self, batches: impl IntoIterator<Item = usize>) -> Self {
        self.batches = batches.into_iter().collect();
        self
    }

    /// Sets the sparsity axis (default: dense only).
    pub fn sparsities(mut self, sparsities: impl IntoIterator<Item = SparsityGen>) -> Self {
        self.sparsities = sparsities.into_iter().collect();
        self
    }

    /// Sets explicit balancing modes (default: automatic per sparsity,
    /// see [`Scenario::default_balance`]).
    pub fn balances(mut self, balances: impl IntoIterator<Item = BalanceMode>) -> Self {
        self.balances = balances.into_iter().map(Some).collect();
        self
    }

    /// Sets the execution-backend axis (default:
    /// [`Scenario::DEFAULT_COMPUTE`]), so dense and CSB execution can be
    /// compared as a first-class sweep dimension.
    pub fn computes(mut self, computes: impl IntoIterator<Item = ComputeBackend>) -> Self {
        self.computes = computes.into_iter().collect();
        self
    }

    /// Sets the latency-fidelity axis (default:
    /// [`Scenario::DEFAULT_FIDELITY`]), so the analytic bound and the
    /// tile-timed replay can be compared on identical workloads.
    pub fn fidelities(mut self, fidelities: impl IntoIterator<Item = Fidelity>) -> Self {
        self.fidelities = fidelities.into_iter().collect();
        self
    }

    /// The number of scenarios [`Sweep::build`] will produce.
    ///
    /// Saturates at `usize::MAX` instead of overflowing, so admission
    /// checks against hostile documents (`cardinality() > limit`) are
    /// reliable even when the true product exceeds the machine word.
    pub fn cardinality(&self) -> usize {
        let axis = |len: usize| len.max(1);
        if self.networks.is_empty() {
            return 0;
        }
        [
            axis(self.sparsities.len()),
            axis(self.computes.len()),
            axis(self.fidelities.len()),
            axis(self.mappings.len()),
            axis(self.batches.len()),
            axis(self.arches.len()),
            axis(self.balances.len()),
        ]
        .into_iter()
        .fold(self.networks.len(), usize::saturating_mul)
    }

    /// The per-axis domains [`Sweep::build`] will expand, with every
    /// documented default applied (an unset axis resolves to its
    /// one-element default; `networks` has no default and is returned
    /// as-is, possibly empty).
    ///
    /// This is the introspection surface `procrustes-search` samples
    /// instead of materializing the cartesian product: a genome of
    /// per-axis indices into these domains names exactly one scenario
    /// of the grid, constructed identically to [`Sweep::build`]'s
    /// expansion (the same defaults, resolved in the same one place).
    pub fn resolved_axes(&self) -> SweepAxes {
        SweepAxes {
            networks: self.networks.clone(),
            sparsities: non_empty(&self.sparsities, SparsityGen::Dense),
            computes: non_empty(&self.computes, Scenario::DEFAULT_COMPUTE),
            fidelities: non_empty(&self.fidelities, Scenario::DEFAULT_FIDELITY),
            mappings: non_empty(&self.mappings, Mapping::KN),
            batches: non_empty(&self.batches, Scenario::DEFAULT_BATCH),
            arches: non_empty(&self.arches, ArchConfig::procrustes_16x16()),
            balances: non_empty(&self.balances, None),
        }
    }

    /// Expands the cartesian product into validated scenarios.
    pub fn build(&self) -> Result<Vec<Scenario>, ScenarioError> {
        if self.networks.is_empty() {
            return Err(ScenarioError::InvalidParam(
                "sweep names no networks".into(),
            ));
        }
        let SweepAxes {
            networks: _,
            sparsities,
            computes,
            fidelities,
            mappings,
            batches,
            arches,
            balances,
        } = self.resolved_axes();

        let mut scenarios = Vec::with_capacity(self.cardinality());
        for network in &self.networks {
            for sparsity in &sparsities {
                for &compute in &computes {
                    for &fidelity in &fidelities {
                        for &mapping in &mappings {
                            for &batch in &batches {
                                for hw in &arches {
                                    for balance in &balances {
                                        let scenario = Scenario {
                                            network: network.clone(),
                                            arch: hw.clone(),
                                            mapping,
                                            batch,
                                            sparsity: sparsity.clone(),
                                            balance: balance.unwrap_or_else(|| {
                                                Scenario::default_balance(sparsity)
                                            }),
                                            compute,
                                            fidelity,
                                        };
                                        scenario.validate()?;
                                        scenarios.push(scenario);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(scenarios)
    }

    /// Serializes the sweep's axes to a self-contained JSON document.
    ///
    /// Only explicitly-set axes are emitted; an absent axis means "the
    /// documented default" exactly as with the builder, so the document
    /// round-trips through [`Sweep::from_json`] to an equivalent sweep.
    /// Like [`Scenario::to_json`], the serialization is canonical
    /// (deterministic field order and number formatting).
    pub fn to_json(&self) -> String {
        let mut fields: Vec<(String, Json)> = vec![(
            "networks".into(),
            Json::Arr(
                self.networks
                    .iter()
                    .map(|n| Json::str(n.as_str()))
                    .collect(),
            ),
        )];
        if !self.sparsities.is_empty() {
            fields.push((
                "sparsities".into(),
                Json::Arr(self.sparsities.iter().map(SparsityGen::to_json).collect()),
            ));
        }
        if !self.computes.is_empty() {
            fields.push((
                "computes".into(),
                Json::Arr(self.computes.iter().map(|&c| compute_to_json(c)).collect()),
            ));
        }
        if !self.fidelities.is_empty() {
            fields.push((
                "fidelities".into(),
                Json::Arr(
                    self.fidelities
                        .iter()
                        .map(|f| Json::str(f.label()))
                        .collect(),
                ),
            ));
        }
        if !self.mappings.is_empty() {
            fields.push((
                "mappings".into(),
                Json::Arr(self.mappings.iter().map(|m| Json::str(m.label())).collect()),
            ));
        }
        if !self.batches.is_empty() {
            fields.push((
                "batches".into(),
                Json::Arr(self.batches.iter().map(|&b| Json::usize(b)).collect()),
            ));
        }
        if !self.arches.is_empty() {
            fields.push((
                "arches".into(),
                Json::Arr(self.arches.iter().map(arch_to_json).collect()),
            ));
        }
        // Builder-made sweeps only hold `Some` balances; `None` entries
        // (defaulting per sparsity) are never serialized.
        let balances: Vec<Json> = self
            .balances
            .iter()
            .filter_map(|b| b.map(|m| Json::str(balance_label(m))))
            .collect();
        if !balances.is_empty() {
            fields.push(("balances".into(), Json::Arr(balances)));
        }
        Json::Obj(fields).to_string()
    }

    /// Deserializes a sweep document produced by [`Sweep::to_json`] (or
    /// written by hand: every axis except `networks` is optional).
    ///
    /// Safe for **untrusted input**, with the same guarantees as
    /// [`Scenario::from_json`]: structured errors, no panics, unknown
    /// fields rejected. Note that deserializing does not expand or
    /// validate the cartesian product — call [`Sweep::cardinality`] to
    /// bound the size *before* [`Sweep::build`] materializes it.
    pub fn from_json(text: &str) -> Result<Sweep, ScenarioError> {
        let v = Json::parse(text).map_err(ScenarioError::Parse)?;
        Self::from_json_value(&v)
    }

    /// [`Sweep::from_json`] over an already-parsed [`Json`] value.
    pub fn from_json_value(v: &Json) -> Result<Sweep, ScenarioError> {
        check_keys(
            v,
            &[
                "networks",
                "sparsities",
                "computes",
                "fidelities",
                "mappings",
                "batches",
                "arches",
                "balances",
            ],
            "sweep",
        )?;
        if !matches!(v, Json::Obj(_)) {
            return Err(ScenarioError::Parse("sweep is not an object".into()));
        }
        let axis = |key: &str| -> Result<Vec<&Json>, ScenarioError> {
            match v.get(key) {
                None => Ok(Vec::new()),
                Some(j) => Ok(j
                    .as_arr()
                    .ok_or_else(|| ScenarioError::Parse(format!("sweep.{key} is not an array")))?
                    .iter()
                    .collect()),
            }
        };
        let networks: Vec<String> = axis("networks")?
            .into_iter()
            .map(|j| {
                j.as_str().map(str::to_string).ok_or_else(|| {
                    ScenarioError::Parse("sweep.networks entry is not a string".into())
                })
            })
            .collect::<Result<_, _>>()?;
        if networks.is_empty() {
            return Err(ScenarioError::Parse(
                "sweep.networks missing or empty".into(),
            ));
        }
        let str_axis = |key: &str| -> Result<Vec<&str>, ScenarioError> {
            axis(key)?
                .into_iter()
                .map(|j| {
                    j.as_str().ok_or_else(|| {
                        ScenarioError::Parse(format!("sweep.{key} entry is not a string"))
                    })
                })
                .collect()
        };
        Ok(Sweep {
            networks,
            sparsities: axis("sparsities")?
                .into_iter()
                .map(SparsityGen::from_json)
                .collect::<Result<_, _>>()?,
            computes: axis("computes")?
                .into_iter()
                .map(compute_from_json)
                .collect::<Result<_, _>>()?,
            fidelities: str_axis("fidelities")?
                .into_iter()
                .map(fidelity_from_label)
                .collect::<Result<_, _>>()?,
            mappings: str_axis("mappings")?
                .into_iter()
                .map(mapping_from_label)
                .collect::<Result<_, _>>()?,
            batches: axis("batches")?
                .into_iter()
                .map(|j| {
                    j.as_usize().ok_or_else(|| {
                        ScenarioError::Parse("sweep.batches entry is not an integer".into())
                    })
                })
                .collect::<Result<_, _>>()?,
            arches: axis("arches")?
                .into_iter()
                .map(arch_from_json)
                .collect::<Result<_, _>>()?,
            balances: str_axis("balances")?
                .into_iter()
                .map(|l| balance_from_label(l).map(Some))
                .collect::<Result<_, _>>()?,
        })
    }
}

/// The resolved axis domains of a [`Sweep`] (see
/// [`Sweep::resolved_axes`]). Axis fields are listed in the sweep's
/// documented expansion order, outermost first: network, sparsity,
/// compute, fidelity, mapping, batch, arch, balance.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAxes {
    /// Network ids (outermost axis; no default, may be empty).
    pub networks: Vec<String>,
    /// Sparsity sources.
    pub sparsities: Vec<SparsityGen>,
    /// Execution backends.
    pub computes: Vec<ComputeBackend>,
    /// Latency fidelities.
    pub fidelities: Vec<Fidelity>,
    /// Spatial mappings.
    pub mappings: Vec<Mapping>,
    /// Minibatch sizes.
    pub batches: Vec<usize>,
    /// Accelerator configurations.
    pub arches: Vec<ArchConfig>,
    /// Balancing modes; `None` means "default per sparsity" (resolved
    /// through [`Scenario::default_balance`] at scenario construction).
    pub balances: Vec<Option<BalanceMode>>,
}

fn non_empty<T: Clone>(axis: &[T], default: T) -> Vec<T> {
    if axis.is_empty() {
        vec![default]
    } else {
        axis.to_vec()
    }
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// Tuning knobs for [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineOpts {
    /// Worker threads for [`Engine::run_all`] (clamped to the scenario
    /// count; `1` means serial). Defaults to the machine's available
    /// parallelism.
    pub threads: usize,
    /// Memoize per-`(layer, phase, mapping, sparsity, arch, balance,
    /// fidelity)` costs across scenarios (default on). Results are
    /// identical either way; memoization only skips re-deriving costs
    /// for shared layers.
    pub memoize: bool,
}

impl Default for EngineOpts {
    fn default() -> Self {
        Self {
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            memoize: true,
        }
    }
}

/// Memoization key: everything `evaluate_layer_with` depends on, by
/// stable fingerprint — including the latency fidelity, so analytic and
/// tile-timed costs of the same layer never alias. The task name is
/// deliberately excluded (it only labels the output) and re-applied on
/// cache hits.
type CacheKey = (u64, Phase, Mapping, BalanceMode, Fidelity, u64, u64);

/// The single evaluator behind every scenario and sweep.
///
/// `Engine` owns a cost cache shared across all `run`/`run_all` calls on
/// the same instance, so sweeps that revisit a layer under the same
/// mapping/phase/sparsity (e.g. the dense baseline across batches, or
/// identical residual blocks within one network) pay for it once.
pub struct Engine {
    opts: EngineOpts,
    cache: Mutex<HashMap<CacheKey, LayerCost>>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new(EngineOpts::default())
    }
}

impl Engine {
    /// Creates an engine with explicit options.
    pub fn new(opts: EngineOpts) -> Self {
        Self {
            opts,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// A single-threaded engine (memoization still on).
    pub fn serial() -> Self {
        Self::with_threads(1)
    }

    /// An engine with a fixed worker-thread count.
    pub fn with_threads(threads: usize) -> Self {
        Self::new(EngineOpts {
            threads,
            ..EngineOpts::default()
        })
    }

    /// The engine's options.
    pub fn opts(&self) -> &EngineOpts {
        &self.opts
    }

    /// Number of distinct layer×phase costs currently memoized.
    pub fn cached_layer_costs(&self) -> usize {
        self.cache.lock().unwrap().len()
    }

    /// Evaluates one scenario.
    pub fn run(&self, scenario: &Scenario) -> Result<EvalResult, ScenarioError> {
        scenario.validate()?;
        Ok(self.run_checked(scenario))
    }

    /// Evaluates every scenario, fanning out across the engine's worker
    /// threads. Results are returned in input order and are identical for
    /// any thread count (the per-layer model is deterministic; threading
    /// only changes scheduling).
    pub fn run_all(&self, scenarios: &[Scenario]) -> Result<Vec<EvalResult>, ScenarioError> {
        // Validate everything up front so workers cannot fail mid-sweep.
        for s in scenarios {
            s.validate()?;
        }
        let threads = self.opts.threads.max(1).min(scenarios.len().max(1));
        if threads <= 1 {
            return Ok(scenarios.iter().map(|s| self.run_checked(s)).collect());
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<EvalResult>>> =
            scenarios.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= scenarios.len() {
                        break;
                    }
                    let result = self.run_checked(&scenarios[i]);
                    *slots[i].lock().unwrap() = Some(result);
                });
            }
        });
        Ok(slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap()
                    .expect("every slot is filled before the scope joins")
            })
            .collect())
    }

    fn run_checked(&self, scenario: &Scenario) -> EvalResult {
        let net = scenario
            .resolve_network()
            .expect("scenario was validated before evaluation");
        let workloads = scenario.workloads_for(&net);
        let cost = self.run_workloads(
            net.name,
            &scenario.arch,
            scenario.mapping,
            &workloads,
            scenario.balance,
            scenario.fidelity,
        );
        EvalResult {
            scenario: scenario.clone(),
            cost,
        }
    }

    /// The lower-level entry point: evaluates explicit `(task, sparsity)`
    /// pairs (all layers × all three phases) under one mapping and
    /// latency fidelity — e.g. masks extracted from a trained model, or
    /// one mask set under several balancing modes. The tasks carry their
    /// own minibatch dimension and are evaluated exactly as given.
    pub fn run_workloads(
        &self,
        network: &str,
        hw: &ArchConfig,
        mapping: Mapping,
        workloads: &[(LayerTask, SparsityInfo)],
        balance: BalanceMode,
        fidelity: Fidelity,
    ) -> NetworkCost {
        let arch_fp = hw.fingerprint();
        let mut phases = [CostSummary::new(), CostSummary::new(), CostSummary::new()];
        let mut layers = Vec::with_capacity(workloads.len() * 3);
        for (task, sp) in workloads {
            let task_fp = task.fingerprint();
            let sp_fp = sp.fingerprint();
            for (pi, phase) in Phase::ALL.into_iter().enumerate() {
                let cost = if self.opts.memoize {
                    let key = (task_fp, phase, mapping, balance, fidelity, arch_fp, sp_fp);
                    let hit = self.cache.lock().unwrap().get(&key).cloned();
                    match hit {
                        Some(mut cached) => {
                            // The cache key excludes the label; restore it.
                            cached.name.clone_from(&task.name);
                            cached
                        }
                        None => {
                            let fresh = evaluate_layer_with(
                                hw, task, phase, mapping, sp, balance, fidelity,
                            );
                            self.cache.lock().unwrap().insert(key, fresh.clone());
                            fresh
                        }
                    }
                } else {
                    evaluate_layer_with(hw, task, phase, mapping, sp, balance, fidelity)
                };
                phases[pi].accumulate(&cost);
                layers.push(cost);
            }
        }
        NetworkCost {
            network: network.to_string(),
            mapping,
            phases,
            layers,
        }
    }
}

/// The cost of one full training iteration of a network (all layers ×
/// all three phases) under one mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkCost {
    /// Network name.
    pub network: String,
    /// Mapping evaluated.
    pub mapping: Mapping,
    /// Per-phase summaries (`fw`, `bw`, `wu`).
    pub phases: [CostSummary; 3],
    /// Every layer × phase cost, in execution order.
    pub layers: Vec<LayerCost>,
}

impl NetworkCost {
    /// The summary of one phase.
    pub fn phase(&self, phase: Phase) -> &CostSummary {
        match phase {
            Phase::Forward => &self.phases[0],
            Phase::Backward => &self.phases[1],
            Phase::WeightUpdate => &self.phases[2],
        }
    }

    /// Totals across all three phases.
    pub fn totals(&self) -> CostSummary {
        let mut t = CostSummary::new();
        for c in &self.layers {
            t.accumulate(c);
        }
        t
    }
}

// ---------------------------------------------------------------------------
// EvalResult
// ---------------------------------------------------------------------------

/// The outcome of evaluating one [`Scenario`]: the originating scenario
/// plus the resulting [`NetworkCost`], with derived-metric helpers.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalResult {
    /// The scenario that produced this result.
    pub scenario: Scenario,
    /// The evaluated cost (all layers × all three phases).
    pub cost: NetworkCost,
}

impl EvalResult {
    /// Totals across all phases (shorthand for `cost.totals()`).
    pub fn totals(&self) -> CostSummary {
        self.cost.totals()
    }

    /// Cycle speedup relative to `baseline` (`>1` means this result is
    /// faster).
    pub fn speedup_over(&self, baseline: &EvalResult) -> f64 {
        baseline.totals().cycles as f64 / self.totals().cycles as f64
    }

    /// Energy saving relative to `baseline` (`>1` means this result is
    /// cheaper).
    pub fn energy_saving_over(&self, baseline: &EvalResult) -> f64 {
        baseline.totals().energy_j() / self.totals().energy_j()
    }

    /// Serializes the scenario plus per-phase and total summaries to a
    /// JSON document (per-layer detail stays in [`EvalResult::cost`]).
    pub fn to_json(&self) -> String {
        let summary = |s: &CostSummary| {
            Json::Obj(vec![
                ("cycles".into(), Json::u64(s.cycles)),
                ("macs".into(), Json::u64(s.macs)),
                ("energy_j".into(), Json::f64(s.energy_j())),
                ("dram_j".into(), Json::f64(s.energy.dram_j)),
                ("glb_j".into(), Json::f64(s.energy.glb_j)),
                ("rf_j".into(), Json::f64(s.energy.rf_j)),
                ("mac_j".into(), Json::f64(s.energy.mac_j)),
                ("overhead_j".into(), Json::f64(s.energy.overhead_j)),
            ])
        };
        Json::Obj(vec![
            ("scenario".into(), self.scenario.json_value()),
            (
                "phases".into(),
                Json::Obj(
                    Phase::ALL
                        .iter()
                        .map(|&p| (p.label().to_string(), summary(self.cost.phase(p))))
                        .collect(),
                ),
            ),
            ("totals".into(), summary(&self.totals())),
        ])
        .to_string()
    }
}

// ---------------------------------------------------------------------------
// JSON helpers for the leaf types
// ---------------------------------------------------------------------------

/// Rejects unrecognized keys in an untrusted object so typos fail loudly
/// instead of silently evaluating the wrong configuration. Non-objects
/// pass through (their shape errors surface from the field accessors).
fn check_keys(v: &Json, allowed: &[&str], ctx: &str) -> Result<(), ScenarioError> {
    if let Json::Obj(pairs) = v {
        for (k, _) in pairs {
            if !allowed.contains(&k.as_str()) {
                return Err(ScenarioError::Parse(format!(
                    "unknown {ctx} field '{k}' (allowed: {})",
                    allowed.join(", ")
                )));
            }
        }
    }
    Ok(())
}

fn f64_field(v: &Json, key: &str) -> Result<f64, ScenarioError> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| ScenarioError::Parse(format!("number field '{key}' missing")))
}

fn u64_field(v: &Json, key: &str) -> Result<u64, ScenarioError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| ScenarioError::Parse(format!("integer field '{key}' missing")))
}

fn usize_field(v: &Json, key: &str) -> Result<usize, ScenarioError> {
    v.get(key)
        .and_then(Json::as_usize)
        .ok_or_else(|| ScenarioError::Parse(format!("integer field '{key}' missing")))
}

fn bool_field(v: &Json, key: &str) -> Result<bool, ScenarioError> {
    v.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| ScenarioError::Parse(format!("bool field '{key}' missing")))
}

/// Report/serialization label for a balancing mode.
pub fn balance_label(balance: BalanceMode) -> &'static str {
    match balance {
        BalanceMode::None => "none",
        BalanceMode::HalfTile => "half_tile",
        BalanceMode::Ideal => "ideal",
    }
}

fn balance_from_label(label: &str) -> Result<BalanceMode, ScenarioError> {
    match label {
        "none" => Ok(BalanceMode::None),
        "half_tile" => Ok(BalanceMode::HalfTile),
        "ideal" => Ok(BalanceMode::Ideal),
        other => Err(ScenarioError::Parse(format!(
            "unknown balance mode '{other}'"
        ))),
    }
}

fn fidelity_from_label(label: &str) -> Result<Fidelity, ScenarioError> {
    Fidelity::ALL
        .into_iter()
        .find(|f| f.label() == label)
        .ok_or_else(|| ScenarioError::Parse(format!("unknown fidelity '{label}'")))
}

fn compute_to_json(compute: ComputeBackend) -> Json {
    match compute {
        ComputeBackend::Dense => Json::Obj(vec![("kind".into(), Json::str("dense"))]),
        ComputeBackend::Csb => Json::Obj(vec![("kind".into(), Json::str("csb"))]),
        ComputeBackend::Auto { max_density } => Json::Obj(vec![
            ("kind".into(), Json::str("auto")),
            ("max_density".into(), Json::f64(max_density)),
        ]),
    }
}

fn compute_from_json(v: &Json) -> Result<ComputeBackend, ScenarioError> {
    let kind = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| ScenarioError::Parse("compute.kind missing".into()))?;
    check_keys(
        v,
        if kind == "auto" {
            &["kind", "max_density"]
        } else {
            &["kind"]
        },
        "compute",
    )?;
    match kind {
        "dense" => Ok(ComputeBackend::Dense),
        "csb" => Ok(ComputeBackend::Csb),
        "auto" => Ok(ComputeBackend::Auto {
            max_density: f64_field(v, "max_density")?,
        }),
        other => Err(ScenarioError::Parse(format!(
            "unknown compute backend '{other}'"
        ))),
    }
}

fn mapping_from_label(label: &str) -> Result<Mapping, ScenarioError> {
    Mapping::ALL
        .into_iter()
        .find(|m| m.label() == label)
        .ok_or_else(|| ScenarioError::Parse(format!("unknown mapping '{label}'")))
}

fn arch_to_json(a: &ArchConfig) -> Json {
    Json::Obj(vec![
        ("rows".into(), Json::usize(a.rows)),
        ("cols".into(), Json::usize(a.cols)),
        ("rf_words".into(), Json::usize(a.rf_words)),
        ("glb_bytes".into(), Json::usize(a.glb_bytes)),
        ("glb_bw_words".into(), Json::usize(a.glb_bw_words)),
        ("dram_bw_words".into(), Json::usize(a.dram_bw_words)),
        ("ideal".into(), Json::Bool(a.ideal)),
        (
            "energy".into(),
            Json::Obj(vec![
                ("mac_pj".into(), Json::f64(a.energy.mac_pj)),
                ("rf_pj".into(), Json::f64(a.energy.rf_pj)),
                ("glb_pj".into(), Json::f64(a.energy.glb_pj)),
                ("dram_pj".into(), Json::f64(a.energy.dram_pj)),
                ("qe_pj".into(), Json::f64(a.energy.qe_pj)),
                ("wr_pj".into(), Json::f64(a.energy.wr_pj)),
                ("lb_pj".into(), Json::f64(a.energy.lb_pj)),
                ("mask_pj".into(), Json::f64(a.energy.mask_pj)),
            ]),
        ),
    ])
}

fn arch_from_json(v: &Json) -> Result<ArchConfig, ScenarioError> {
    check_keys(
        v,
        &[
            "rows",
            "cols",
            "rf_words",
            "glb_bytes",
            "glb_bw_words",
            "dram_bw_words",
            "ideal",
            "energy",
        ],
        "arch",
    )?;
    let e = v
        .get("energy")
        .ok_or_else(|| ScenarioError::Parse("arch.energy missing".into()))?;
    check_keys(
        e,
        &[
            "mac_pj", "rf_pj", "glb_pj", "dram_pj", "qe_pj", "wr_pj", "lb_pj", "mask_pj",
        ],
        "arch.energy",
    )?;
    Ok(ArchConfig {
        rows: usize_field(v, "rows")?,
        cols: usize_field(v, "cols")?,
        rf_words: usize_field(v, "rf_words")?,
        glb_bytes: usize_field(v, "glb_bytes")?,
        glb_bw_words: usize_field(v, "glb_bw_words")?,
        dram_bw_words: usize_field(v, "dram_bw_words")?,
        ideal: bool_field(v, "ideal")?,
        energy: EnergyTable {
            mac_pj: f64_field(e, "mac_pj")?,
            rf_pj: f64_field(e, "rf_pj")?,
            glb_pj: f64_field(e, "glb_pj")?,
            dram_pj: f64_field(e, "dram_pj")?,
            qe_pj: f64_field(e, "qe_pj")?,
            wr_pj: f64_field(e, "wr_pj")?,
            lb_pj: f64_field(e, "lb_pj")?,
            mask_pj: f64_field(e, "mask_pj")?,
        },
    })
}

fn mask_cfg_to_json(cfg: &MaskGenConfig) -> Json {
    Json::Obj(vec![
        ("sparsity_factor".into(), Json::f64(cfg.sparsity_factor)),
        ("alpha".into(), Json::f64(cfg.alpha)),
        ("spread".into(), Json::f64(cfg.spread)),
        ("row_spread".into(), Json::f64(cfg.row_spread)),
        ("act_density".into(), Json::f64(cfg.act_density)),
        ("min_keep".into(), Json::f64(cfg.min_keep)),
    ])
}

fn mask_cfg_from_json(v: &Json) -> Result<MaskGenConfig, ScenarioError> {
    check_keys(
        v,
        &[
            "sparsity_factor",
            "alpha",
            "spread",
            "row_spread",
            "act_density",
            "min_keep",
        ],
        "sparsity.cfg",
    )?;
    Ok(MaskGenConfig {
        sparsity_factor: f64_field(v, "sparsity_factor")?,
        alpha: f64_field(v, "alpha")?,
        spread: f64_field(v, "spread")?,
        row_spread: f64_field(v, "row_spread")?,
        act_density: f64_field(v, "act_density")?,
        min_keep: f64_field(v, "min_keep")?,
    })
}

fn task_to_json(t: &LayerTask) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::str(t.name.clone())),
        ("batch".into(), Json::usize(t.batch)),
        ("c".into(), Json::usize(t.c)),
        ("k".into(), Json::usize(t.k)),
        ("h".into(), Json::usize(t.h)),
        ("w".into(), Json::usize(t.w)),
        ("p".into(), Json::usize(t.p)),
        ("q".into(), Json::usize(t.q)),
        ("r".into(), Json::usize(t.r)),
        ("s".into(), Json::usize(t.s)),
        ("depthwise".into(), Json::Bool(t.depthwise)),
    ])
}

fn task_from_json(v: &Json) -> Result<LayerTask, ScenarioError> {
    check_keys(
        v,
        &[
            "name",
            "batch",
            "c",
            "k",
            "h",
            "w",
            "p",
            "q",
            "r",
            "s",
            "depthwise",
        ],
        "task",
    )?;
    Ok(LayerTask {
        name: v
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| ScenarioError::Parse("task.name missing".into()))?
            .to_string(),
        batch: usize_field(v, "batch")?,
        c: usize_field(v, "c")?,
        k: usize_field(v, "k")?,
        h: usize_field(v, "h")?,
        w: usize_field(v, "w")?,
        p: usize_field(v, "p")?,
        q: usize_field(v, "q")?,
        r: usize_field(v, "r")?,
        s: usize_field(v, "s")?,
        depthwise: bool_field(v, "depthwise")?,
    })
}

fn sparsity_info_to_json(sp: &SparsityInfo) -> Json {
    Json::Obj(vec![
        (
            "kernel_nnz".into(),
            Json::Arr(
                sp.kernel_nnz
                    .iter()
                    .map(|&n| Json::u64(u64::from(n)))
                    .collect(),
            ),
        ),
        ("act_in_density".into(), Json::f64(sp.act_in_density)),
        ("grad_density".into(), Json::f64(sp.grad_density)),
        ("compressed".into(), Json::Bool(sp.compressed)),
    ])
}

fn sparsity_info_from_json(v: &Json) -> Result<SparsityInfo, ScenarioError> {
    check_keys(
        v,
        &["kernel_nnz", "act_in_density", "grad_density", "compressed"],
        "workload.sparsity",
    )?;
    let nnz = v
        .get("kernel_nnz")
        .and_then(Json::as_arr)
        .ok_or_else(|| ScenarioError::Parse("sparsity.kernel_nnz missing".into()))?;
    Ok(SparsityInfo {
        kernel_nnz: nnz
            .iter()
            .map(|n| {
                n.as_u32()
                    .ok_or_else(|| ScenarioError::Parse("kernel_nnz entry not a u32".into()))
            })
            .collect::<Result<_, _>>()?,
        act_in_density: f64_field(v, "act_in_density")?,
        grad_density: f64_field(v, "grad_density")?,
        compressed: bool_field(v, "compressed")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_seed_evaluation() {
        let s = Scenario::builder("VGG-S").build().unwrap();
        assert_eq!(s.network, "VGG-S");
        assert_eq!(s.mapping, Mapping::KN);
        assert_eq!(s.batch, 16);
        assert_eq!(s.balance, BalanceMode::None); // dense → no balancing
        let sp = Scenario::builder("vgg_s")
            .sparsity(SparsityGen::PaperSynthetic { seed: 1 })
            .build()
            .unwrap();
        assert_eq!(sp.balance, BalanceMode::HalfTile);
    }

    #[test]
    fn builder_rejects_bad_scenarios() {
        assert!(matches!(
            Scenario::builder("AlexNet").build(),
            Err(ScenarioError::UnknownNetwork(_))
        ));
        assert!(matches!(
            Scenario::builder("VGG-S").batch(0).build(),
            Err(ScenarioError::InvalidParam(_))
        ));
        assert!(matches!(
            Scenario::builder("VGG-S")
                .sparsity(SparsityGen::Uniform {
                    keep: 1.5,
                    act_density: 0.5
                })
                .build(),
            Err(ScenarioError::InvalidParam(_))
        ));
        assert!(matches!(
            Scenario::builder("VGG-S")
                .sparsity(SparsityGen::Extracted(Vec::new()))
                .build(),
            Err(ScenarioError::InvalidParam(_))
        ));
    }

    #[test]
    fn network_id_aliases_resolve() {
        for id in ["VGG-S", "vgg_s", "vggs", "vgg"] {
            assert_eq!(resolve_network(id).unwrap().name, "VGG-S", "{id}");
        }
        assert_eq!(
            resolve_network("MobileNet v2").unwrap().name,
            "MobileNet v2"
        );
        assert!(resolve_network("transformer").is_none());
        for id in PAPER_NETWORKS {
            assert!(paper_sparsity_factor(id).is_some(), "{id}");
        }
    }

    #[test]
    fn sweep_cardinality_is_the_axis_product() {
        let sweep = Sweep::new()
            .networks(PAPER_NETWORKS)
            .mappings(Mapping::ALL)
            .sparsities([SparsityGen::Dense, SparsityGen::PaperSynthetic { seed: 1 }])
            .batches([16, 32]);
        assert_eq!(sweep.cardinality(), 5 * 4 * 2 * 2);
        assert_eq!(sweep.build().unwrap().len(), sweep.cardinality());
        // Unset axes default to one value each.
        let small = Sweep::new().networks(["VGG-S"]);
        assert_eq!(small.cardinality(), 1);
        // No networks → explicit error.
        assert!(Sweep::new().build().is_err());
    }

    #[test]
    fn sweep_order_is_documented() {
        let scenarios = Sweep::new()
            .networks(["VGG-S", "DenseNet"])
            .sparsities([SparsityGen::Dense, SparsityGen::PaperSynthetic { seed: 1 }])
            .mappings([Mapping::KN, Mapping::PQ])
            .build()
            .unwrap();
        // network outermost, then sparsity, then mapping.
        assert_eq!(scenarios[0].network, "VGG-S");
        assert!(scenarios[0].sparsity.is_dense());
        assert_eq!(scenarios[0].mapping, Mapping::KN);
        assert_eq!(scenarios[1].mapping, Mapping::PQ);
        assert!(!scenarios[2].sparsity.is_dense());
        assert_eq!(scenarios[4].network, "DenseNet");
    }

    #[test]
    fn scenario_json_roundtrip() {
        let scenarios = [
            Scenario::builder("VGG-S").build().unwrap(),
            Scenario::builder("ResNet18")
                .arch(ArchConfig::procrustes_32x32())
                .mapping(Mapping::CN)
                .batch(32)
                .synthetic(MaskGenConfig::paper_default(11.7), 0xDEAD_BEEF_CAFE_F00D)
                .balance(BalanceMode::Ideal)
                .build()
                .unwrap(),
            Scenario::builder("DenseNet")
                .sparsity(SparsityGen::PaperSynthetic { seed: u64::MAX })
                .build()
                .unwrap(),
        ];
        for s in &scenarios {
            let text = s.to_json();
            let back = Scenario::from_json(&text).unwrap();
            assert_eq!(&back, s, "{text}");
        }
    }

    #[test]
    fn extracted_scenario_json_roundtrip() {
        let task = LayerTask::conv("c1", 4, 2, 3, 8, 8, 3, 1, 1);
        let sp = SparsityInfo::uniform(&task, 0.5, 0.7);
        let s = Scenario::builder("VGG-S")
            .batch(4)
            .sparsity(SparsityGen::Extracted(vec![(task, sp)]))
            .build()
            .unwrap();
        let back = Scenario::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        assert!(Scenario::from_json("not json").is_err());
        assert!(Scenario::from_json("{}").is_err());
        let valid = Scenario::builder("VGG-S").build().unwrap().to_json();
        let broken = valid.replace("\"KN\"", "\"XY\"");
        assert!(matches!(
            Scenario::from_json(&broken),
            Err(ScenarioError::Parse(_))
        ));
    }

    /// One scenario on a fresh serial engine.
    fn run_one(scenario: ScenarioBuilder) -> EvalResult {
        Engine::serial().run(&scenario.build().unwrap()).unwrap()
    }

    #[test]
    fn sparse_beats_dense_on_energy_and_cycles() {
        let dense = run_one(Scenario::builder("VGG-S"));
        let sparse =
            run_one(Scenario::builder("VGG-S").synthetic(MaskGenConfig::paper_default(5.2), 1));
        let e_saving = sparse.energy_saving_over(&dense);
        let speedup = sparse.speedup_over(&dense);
        assert!(e_saving > 1.3, "energy saving {e_saving:.2}");
        assert!(speedup > 1.3, "speedup {speedup:.2}");
    }

    #[test]
    fn all_layers_and_phases_present() {
        let cost = run_one(Scenario::builder("DenseNet")).cost;
        assert_eq!(cost.layers.len(), arch::densenet().layers.len() * 3);
        for phase in Phase::ALL {
            assert!(cost.phase(phase).macs > 0);
        }
        // Total = sum of phases.
        let total = cost.totals();
        let by_phase: u64 = Phase::ALL.iter().map(|&p| cost.phase(p).cycles).sum();
        assert_eq!(total.cycles, by_phase);
    }

    #[test]
    fn kn_is_fastest_mapping_for_vgg() {
        // §VI-D: "Procrustes uses the overall fastest K,N scheme".
        let cycles = |m: Mapping| {
            let cfg = MaskGenConfig::paper_default(5.2);
            let scenario = Scenario::builder("VGG-S").mapping(m).synthetic(cfg, 2);
            run_one(scenario).totals().cycles
        };
        let kn = cycles(Mapping::KN);
        for m in Mapping::ALL {
            assert!(kn <= cycles(m), "KN ({kn}) should beat {m:?}");
        }
    }

    #[test]
    fn batch_scaling_scales_work() {
        let b16 = run_one(Scenario::builder("DenseNet"));
        let b32 = run_one(Scenario::builder("DenseNet").batch(32));
        assert_eq!(b32.totals().macs, 2 * b16.totals().macs);
    }

    #[test]
    fn memoization_does_not_change_results() {
        let scenario = Scenario::builder("DenseNet")
            .sparsity(SparsityGen::PaperSynthetic { seed: 3 })
            .build()
            .unwrap();
        let memo = Engine::new(EngineOpts {
            threads: 1,
            memoize: true,
        });
        let plain = Engine::new(EngineOpts {
            threads: 1,
            memoize: false,
        });
        let a = memo.run(&scenario).unwrap();
        let b = plain.run(&scenario).unwrap();
        assert_eq!(a, b);
        assert!(memo.cached_layer_costs() > 0);
        assert_eq!(plain.cached_layer_costs(), 0);
        // A second run is served from cache and stays identical.
        assert_eq!(memo.run(&scenario).unwrap(), a);
    }

    #[test]
    fn parallel_run_all_is_deterministic_and_ordered() {
        let scenarios = Sweep::new()
            .networks(["VGG-S", "DenseNet"])
            .mappings([Mapping::KN, Mapping::PQ])
            .sparsities([SparsityGen::Dense, SparsityGen::PaperSynthetic { seed: 5 }])
            .build()
            .unwrap();
        let serial = Engine::serial().run_all(&scenarios).unwrap();
        let parallel = Engine::with_threads(8).run_all(&scenarios).unwrap();
        assert_eq!(serial, parallel);
        for (s, r) in scenarios.iter().zip(&serial) {
            assert_eq!(&r.scenario, s);
        }
    }

    #[test]
    fn derived_metrics_orient_correctly() {
        let engine = Engine::serial();
        let dense = engine
            .run(&Scenario::builder("VGG-S").build().unwrap())
            .unwrap();
        let sparse = engine
            .run(
                &Scenario::builder("VGG-S")
                    .sparsity(SparsityGen::PaperSynthetic { seed: 1 })
                    .build()
                    .unwrap(),
            )
            .unwrap();
        assert!(sparse.speedup_over(&dense) > 1.0);
        assert!(sparse.energy_saving_over(&dense) > 1.0);
        assert!((dense.speedup_over(&dense) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fidelity_axis_roundtrips_and_defaults_to_analytic() {
        let timed = Scenario::builder("VGG-S")
            .sparsity(SparsityGen::PaperSynthetic { seed: 3 })
            .fidelity(Fidelity::TileTimed)
            .build()
            .unwrap();
        let back = Scenario::from_json(&timed.to_json()).unwrap();
        assert_eq!(back, timed);
        assert_eq!(back.fidelity, Fidelity::TileTimed);

        // A pre-fidelity document (no "fidelity" field) parses to the
        // analytic default — the seed evaluation's behaviour.
        let s = Scenario::builder("VGG-S").build().unwrap();
        let Json::Obj(fields) = Json::parse(&s.to_json()).unwrap() else {
            panic!("scenario serializes to an object");
        };
        let legacy = Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| k != "fidelity")
                .collect(),
        )
        .to_string();
        let parsed = Scenario::from_json(&legacy).unwrap();
        assert_eq!(parsed.fidelity, Fidelity::Analytic);
        assert_eq!(parsed, s);

        // Unknown labels are a parse error, not a silent default.
        let broken = s.to_json().replace("\"analytic\"", "\"exact\"");
        assert!(matches!(
            Scenario::from_json(&broken),
            Err(ScenarioError::Parse(_))
        ));
    }

    #[test]
    fn memoization_keys_separate_fidelities() {
        // One engine, both fidelities of the same sparse scenario: the
        // cache must never serve an analytic cost to a tile-timed run.
        let engine = Engine::serial();
        let base =
            Scenario::builder("MobileNet v2").sparsity(SparsityGen::PaperSynthetic { seed: 11 });
        let analytic = engine.run(&base.clone().build().unwrap()).unwrap();
        let timed = engine
            .run(&base.clone().fidelity(Fidelity::TileTimed).build().unwrap())
            .unwrap();
        for (a, t) in analytic.cost.layers.iter().zip(&timed.cost.layers) {
            assert_eq!(a.fidelity, Fidelity::Analytic);
            assert_eq!(t.fidelity, Fidelity::TileTimed);
            assert!(t.cycles >= a.cycles, "{}", a.name);
            assert_eq!(a.macs, t.macs);
        }
        assert!(timed.totals().cycles >= analytic.totals().cycles);
        // Re-running either stays cache-consistent.
        assert_eq!(engine.run(&base.build().unwrap()).unwrap(), analytic);
    }

    #[test]
    fn non_finite_costs_serialize_without_panicking() {
        let engine = Engine::serial();
        let mut r = engine
            .run(&Scenario::builder("VGG-S").batch(2).build().unwrap())
            .unwrap();
        // Poison the cost the way a buggy model would.
        r.cost.phases[0].energy.mac_j = f64::NAN;
        let text = r.to_json(); // must not panic
        let v = Json::parse(&text).unwrap();
        let fw_mac = v
            .get("phases")
            .and_then(|p| p.get("fw"))
            .and_then(|s| s.get("mac_j"))
            .unwrap();
        assert_eq!(fw_mac, &Json::Null);
        // Finite sibling fields are untouched.
        assert!(v
            .get("totals")
            .and_then(|t| t.get("cycles"))
            .and_then(Json::as_u64)
            .is_some());
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        let s = Scenario::builder("VGG-S").build().unwrap();
        // Equal scenarios hash equal; the hash is a pure function of the
        // canonical JSON, so a JSON round trip preserves it.
        assert_eq!(s.fingerprint(), s.clone().fingerprint());
        assert_eq!(
            Scenario::from_json(&s.to_json()).unwrap().fingerprint(),
            s.fingerprint()
        );
        // Every axis the engine dispatches on must move the fingerprint.
        let variants = [
            Scenario::builder("ResNet18").build().unwrap(),
            Scenario::builder("VGG-S").batch(32).build().unwrap(),
            Scenario::builder("VGG-S")
                .mapping(Mapping::PQ)
                .build()
                .unwrap(),
            Scenario::builder("VGG-S")
                .sparsity(SparsityGen::PaperSynthetic { seed: 1 })
                .build()
                .unwrap(),
            Scenario::builder("VGG-S")
                .fidelity(Fidelity::TileTimed)
                .build()
                .unwrap(),
            Scenario::builder("VGG-S")
                .compute(ComputeBackend::Csb)
                .build()
                .unwrap(),
            Scenario::builder("VGG-S")
                .balance(BalanceMode::Ideal)
                .build()
                .unwrap(),
        ];
        for v in &variants {
            assert_ne!(v.fingerprint(), s.fingerprint(), "{}", v.to_json());
        }
        // Pinned golden value: the canonical serialization (and with it
        // every on-disk cache entry ever written by procrustes-serve) is
        // a compatibility surface. If this assertion fails, the encoding
        // changed and persistent caches would silently miss — version
        // the serve cache directory instead of re-pinning casually.
        assert_eq!(s.fingerprint(), 0x70c7_d1b7_a089_54ba, "{}", s.to_json());
        let mut h = Fnv1a::new();
        h.write(s.to_json().as_bytes());
        assert_eq!(s.fingerprint(), h.finish());
    }

    #[test]
    fn sweep_json_roundtrip_preserves_expansion() {
        let sweep = Sweep::new()
            .networks(["VGG-S", "ResNet18"])
            .mappings([Mapping::KN, Mapping::PQ])
            .sparsities([SparsityGen::Dense, SparsityGen::PaperSynthetic { seed: 7 }])
            .computes([
                ComputeBackend::Dense,
                ComputeBackend::Auto { max_density: 0.5 },
            ])
            .fidelities(Fidelity::ALL)
            .batches([2, 4])
            .arches([ArchConfig::procrustes_16x16()])
            .balances([BalanceMode::HalfTile]);
        let back = Sweep::from_json(&sweep.to_json()).unwrap();
        assert_eq!(back.build().unwrap(), sweep.build().unwrap());
        assert_eq!(back.cardinality(), sweep.cardinality());
        // Minimal document: only networks; every other axis defaults.
        let minimal = Sweep::from_json(r#"{"networks":["VGG-S"]}"#).unwrap();
        assert_eq!(
            minimal.build().unwrap(),
            Sweep::new().networks(["VGG-S"]).build().unwrap()
        );
    }

    #[test]
    fn untrusted_documents_fail_with_structured_errors() {
        // Unknown scenario field.
        let valid = Scenario::builder("VGG-S").build().unwrap().to_json();
        let extra = valid.replacen("{\"network\"", "{\"fidelty\":\"x\",\"network\"", 1);
        let err = Scenario::from_json(&extra).unwrap_err();
        assert!(
            matches!(&err, ScenarioError::Parse(m) if m.contains("fidelty")),
            "{err}"
        );
        // Unknown sweep field.
        let err = Sweep::from_json(r#"{"networks":["VGG-S"],"mapings":["KN"]}"#).unwrap_err();
        assert!(
            matches!(&err, ScenarioError::Parse(m) if m.contains("mapings")),
            "{err}"
        );
        // Missing / empty networks.
        assert!(Sweep::from_json("{}").is_err());
        assert!(Sweep::from_json(r#"{"networks":[]}"#).is_err());
        // Wrong shapes never panic.
        assert!(Sweep::from_json(r#"{"networks":"VGG-S"}"#).is_err());
        assert!(Sweep::from_json(r#"[1,2]"#).is_err());
        assert!(Sweep::from_json(r#"{"networks":["VGG-S"],"batches":["x"]}"#).is_err());
    }

    #[test]
    fn hostile_cardinality_saturates_instead_of_overflowing() {
        let sweep = Sweep::new()
            .networks(vec!["VGG-S"; 1 << 17])
            .batches(vec![1; 1 << 17])
            .mappings(vec![Mapping::KN; 1 << 17])
            .fidelities(vec![Fidelity::Analytic; 1 << 17]);
        // 2^68 saturates rather than wrapping to something small a
        // service admission check would wave through.
        assert_eq!(sweep.cardinality(), usize::MAX);
    }

    #[test]
    fn eval_result_json_has_scenario_and_totals() {
        let engine = Engine::serial();
        let r = engine
            .run(&Scenario::builder("VGG-S").batch(2).build().unwrap())
            .unwrap();
        let v = Json::parse(&r.to_json()).unwrap();
        assert_eq!(
            v.get("scenario")
                .and_then(|s| s.get("network"))
                .and_then(Json::as_str),
            Some("VGG-S")
        );
        let cycles = v
            .get("totals")
            .and_then(|t| t.get("cycles"))
            .and_then(Json::as_u64)
            .unwrap();
        assert_eq!(cycles, r.totals().cycles);
        assert!(v.get("phases").and_then(|p| p.get("fw")).is_some());
    }
}
