//! Declarative evaluation inputs: the network registry, [`SparsityGen`],
//! and the plain-data [`Scenario`] with its validating
//! [`ScenarioBuilder`].

use std::fmt;

use procrustes_nn::ComputeBackend;
use procrustes_sim::{ArchConfig, BalanceMode, Fidelity, Fnv1a, LayerTask, Mapping, SparsityInfo};

use crate::arch::{self, NetworkArch};
use crate::codec::{
    arch_from_json, arch_to_json, balance_from_label, balance_label, check_keys, compute_from_json,
    compute_to_json, f64_field, fidelity_from_label, mapping_from_label, mask_cfg_from_json,
    mask_cfg_to_json, sparsity_info_from_json, sparsity_info_to_json, task_from_json, task_to_json,
    u64_field,
};
use crate::json::Json;
use crate::masks::{self, MaskGenConfig};
#[cfg(doc)]
use crate::{Engine, Sweep};

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

/// What the registry knows about one network.
struct NetworkEntry {
    /// The paper's name for it, equal to its [`NetworkArch::name`].
    name: &'static str,
    /// Constructor of the full-size geometry.
    geometry: fn() -> NetworkArch,
    /// Table II weight-sparsity factor.
    sparsity_factor: f64,
}

fn registry(id: &str) -> Option<NetworkEntry> {
    let entry = |name, geometry: fn() -> NetworkArch, sparsity_factor| {
        Some(NetworkEntry {
            name,
            geometry,
            sparsity_factor,
        })
    };
    match canon(id).as_str() {
        "vggs" | "vgg" => entry("VGG-S", arch::vgg_s, 5.2),
        "resnet18" | "resnet" => entry("ResNet18", arch::resnet18, 11.7),
        "mobilenetv2" | "mobilenet" => entry("MobileNet v2", arch::mobilenet_v2, 10.0),
        "wrn2810" | "wrn" => entry("WRN-28-10", arch::wrn_28_10, 4.3),
        "densenet" => entry("DenseNet", arch::densenet, 3.9),
        _ => None,
    }
}

/// Resolves a network id to its full-size geometry.
///
/// Ids are matched case-insensitively, ignoring `-`/`_`/spaces, so
/// `"VGG-S"`, `"vgg_s"`, and `"vggs"` are equivalent; common short
/// aliases (`"vgg"`, `"wrn"`, `"mobilenet"`) are accepted.
pub fn resolve_network(id: &str) -> Option<NetworkArch> {
    registry(id).map(|entry| (entry.geometry)())
}

/// The Table II per-network weight-sparsity factor, used by
/// [`SparsityGen::PaperSynthetic`].
pub fn paper_sparsity_factor(id: &str) -> Option<f64> {
    registry(id).map(|entry| entry.sparsity_factor)
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

    pub(crate) fn to_json(&self) -> Json {
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

    pub(crate) fn from_json(v: &Json) -> Result<Self, ScenarioError> {
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

/// What *produces* a scenario's workloads, as opposed to the workloads
/// themselves: every input [`Scenario::resolve_workloads`] reads. Two
/// scenarios with equal keys resolve to identical `(task, sparsity)`
/// lists, so the [`Engine`] synthesises the masks once for both and
/// finds their layer costs again without synthesising at all.
///
/// Compared as a value, field by field — never through a hash of
/// itself, so two generators cannot alias. (`f64` comparison makes a
/// NaN parameter equal to nothing, which only costs the sharing.)
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct GeneratorKey {
    /// The paper's name for the network, so `"VGG-S"` and `"vgg_s"`
    /// share a key; also the name the resulting cost carries.
    pub(crate) network: &'static str,
    batch: usize,
    compute: ComputeBackend,
    sparsity: SparsityGen,
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
        if registry(&self.network).is_none() {
            return Err(ScenarioError::UnknownNetwork(self.network.clone()));
        }
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

    /// The key of this scenario's workload generator, or `None` for
    /// [`SparsityGen::Extracted`], which carries its workloads itself
    /// (comparing two such keys would cost what resolving them does).
    pub(crate) fn generator_key(&self) -> Option<GeneratorKey> {
        if matches!(self.sparsity, SparsityGen::Extracted(_)) {
            return None;
        }
        Some(GeneratorKey {
            network: registry(&self.network)?.name,
            batch: self.batch,
            compute: self.compute,
            sparsity: self.sparsity.clone(),
        })
    }

    /// How much work resolving this scenario's workloads is, as an
    /// ordering key: `(synthesised, kernels)` — random masks cost a few
    /// draws and an `exp` per kernel, where a constant set only fills,
    /// and both scale with the geometry's kernel count. [`Engine::run_all`]
    /// opens the costliest groups first.
    pub(crate) fn resolve_work(&self) -> (bool, usize) {
        let synthesised = matches!(
            self.sparsity,
            SparsityGen::Synthetic { .. } | SparsityGen::PaperSynthetic { .. }
        );
        let kernels = match &self.sparsity {
            SparsityGen::Extracted(workloads) => workloads.iter().map(|(t, _)| t.kernels()).sum(),
            _ => self
                .resolve_network()
                .map_or(0, |net| net.layers.iter().map(LayerTask::kernels).sum()),
        };
        (synthesised, kernels)
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
    pub(crate) fn workloads_for(&self, net: &NetworkArch) -> Vec<(LayerTask, SparsityInfo)> {
        let mut workloads = self.raw_workloads_for(net);
        for (task, sp) in &mut workloads {
            sp.compressed = match self.compute {
                ComputeBackend::Dense => false,
                ComputeBackend::Csb => true,
                ComputeBackend::Auto { max_density } => {
                    sp.compressed && sp.weight_density(task) <= max_density
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
    /// ways: the fingerprint is the key a request claims in the daemon's
    /// in-flight map (so identical scenarios are computed once, however
    /// many connections ask) and addresses the persistent on-disk result
    /// cache. Extending `Scenario` with a
    /// new *defaulted* axis changes fingerprints only for scenarios that
    /// set the new axis, provided the serializer keeps emitting existing
    /// fields unchanged; the pinned-vector test in this module and the
    /// golden fingerprints in `procrustes-sim` guard the encoding.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write(self.to_json().as_bytes());
        h.finish()
    }

    pub(crate) fn json_value(&self) -> Json {
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
