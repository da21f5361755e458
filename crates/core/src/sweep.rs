//! [`Sweep`]: the cartesian-product builder over scenario axes.

use procrustes_nn::ComputeBackend;
use procrustes_sim::{ArchConfig, BalanceMode, Fidelity, Mapping};

use crate::codec::{
    arch_from_json, arch_to_json, balance_from_label, balance_label, check_keys, compute_from_json,
    compute_to_json, fidelity_from_label, mapping_from_label,
};
use crate::json::Json;
use crate::scenario::{Scenario, ScenarioError, SparsityGen};
#[cfg(doc)]
use crate::EvalResult;

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
