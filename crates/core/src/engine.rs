//! The unified evaluation API: declarative [`Scenario`]s, cartesian
//! [`Sweep`]s, and the parallel, memoizing [`Engine`].
//!
//! The paper's entire evaluation (Figs 1, 17–20, Tables II–III) is a
//! cartesian sweep over {network × architecture × mapping × sparsity ×
//! balancing}. This module makes that sweep a first-class object (the
//! evaluator lives here; the input types are re-exported from their own
//! files, `scenario.rs`, `sweep.rs` and `codec.rs`):
//!
//! * [`Scenario`] — a plain-data, JSON-serializable description of one
//!   evaluation (network id, [`ArchConfig`], [`Mapping`], minibatch,
//!   [`SparsityGen`], [`BalanceMode`]), with a validating
//!   [`ScenarioBuilder`];
//! * [`Sweep`] — a cartesian-product builder that expands axis lists into
//!   `Vec<Scenario>` in a documented deterministic order;
//! * [`Engine`] — the single evaluator: [`Engine::run`] for one scenario,
//!   [`Engine::run_all`] for a sweep, executed across the workspace's
//!   worker pool ([`procrustes_tensor::pool`]) with
//!   per-`(layer, phase, mapping, sparsity)` cost memoization
//!   so layers shared between scenarios are costed once, found through
//!   the scenario's mask *generator* so a known scenario synthesises
//!   nothing and a sweep synthesises each mask set once;
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

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use procrustes_sim::{
    evaluate_layer_summarized, ArchConfig, BalanceMode, CostSummary, Fidelity, LayerCost,
    LayerTask, Mapping, MaskSummary, Phase, SparsityInfo,
};
use procrustes_tensor::{pool, Scratch};

use crate::json::Json;
use crate::scenario::GeneratorKey;

pub use crate::codec::balance_label;
pub use crate::scenario::{
    paper_sparsity_factor, resolve_network, Scenario, ScenarioBuilder, ScenarioError, SparsityGen,
    PAPER_NETWORKS,
};
pub use crate::sweep::{Sweep, SweepAxes};

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// Tuning knobs for [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineOpts {
    /// Workers for [`Engine::run_all`] (clamped to the scenario count,
    /// not otherwise: sixteen means sixteen). Defaults to the machine's
    /// available parallelism.
    ///
    /// The workers are the indices of one [`pool::run`] job: the calling
    /// thread plus `threads - 1` long-lived pool threads, which the
    /// threaded GEMM tier shares. `1` runs on the calling thread alone
    /// and never touches the pool. The pool has one job in flight, so a
    /// `run_all` that arrives while another thread's `run_all` or GEMM
    /// is dispatched waits its turn; one called from inside a pool job
    /// runs all its workers inline on the calling thread. A panic in
    /// any worker is re-raised on the caller once every worker has
    /// stopped, and the pool stays usable.
    pub threads: usize,
    /// Memoize per-`(layer, phase, mapping, sparsity, arch, balance,
    /// fidelity)` costs across scenarios, and share one synthesised mask
    /// set among the scenarios of a call that have the same generator
    /// (default on). Results are identical either way; with `false`
    /// every scenario resolves its own workloads and every layer goes
    /// through the cost model, which is the oracle the memoized paths
    /// are tested against.
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

/// Memoization key: everything `evaluate_layer_summarized` depends on, by
/// stable fingerprint — including the latency fidelity, so analytic and
/// tile-timed costs of the same layer never alias. The task name is
/// deliberately excluded (it only labels the output) and re-applied on
/// cache hits.
type CacheKey = (u64, Phase, Mapping, BalanceMode, Fidelity, u64, u64);

/// A layer's `(task, sparsity)` fingerprints: the part of a [`CacheKey`]
/// a generator lists.
type LayerId = (u64, u64);

fn layer_of(key: &CacheKey) -> LayerId {
    (key.0, key.6)
}

/// The part of a [`CacheKey`] that comes from one resolved workload,
/// plus the label to put back on a hit: all the engine keeps of a mask
/// set once the call that synthesised it has returned. The label is
/// shared with every cost the engine hands out for the layer.
#[derive(Clone)]
struct LayerKey {
    name: Arc<str>,
    task_fp: u64,
    sp_fp: u64,
}

impl LayerKey {
    fn id(&self) -> LayerId {
        (self.task_fp, self.sp_fp)
    }
}

/// Each workload's cache key and mask summary, from the one pass over
/// its per-kernel counts that fingerprints it.
fn summarize(workloads: &[(LayerTask, SparsityInfo)]) -> (Vec<LayerKey>, Vec<MaskSummary>) {
    workloads
        .iter()
        .map(|(task, sp)| {
            let (summary, sp_fp) = MaskSummary::with_fingerprint(task, sp);
            let key = LayerKey {
                name: task.name.as_str().into(),
                task_fp: task.fingerprint(),
                sp_fp,
            };
            (key, summary)
        })
        .unzip()
}

/// The part of a [`CacheKey`] that comes from the scenario rather than
/// from its workloads: what the cost model varies over one mask set.
struct EvalPoint<'a> {
    hw: &'a ArchConfig,
    arch_fp: u64,
    mapping: Mapping,
    balance: BalanceMode,
    fidelity: Fidelity,
}

impl<'a> EvalPoint<'a> {
    /// # Panics
    ///
    /// Panics if `hw` is degenerate ([`ArchConfig::validate`]): checked
    /// here, once, for every layer the point is evaluated on.
    fn new(hw: &'a ArchConfig, mapping: Mapping, balance: BalanceMode, fidelity: Fidelity) -> Self {
        hw.validate();
        Self {
            hw,
            arch_fp: hw.fingerprint(),
            mapping,
            balance,
            fidelity,
        }
    }

    fn cache_key(&self, layer: &LayerKey, phase: Phase) -> CacheKey {
        (
            layer.task_fp,
            phase,
            self.mapping,
            self.balance,
            self.fidelity,
            self.arch_fp,
            layer.sp_fp,
        )
    }
}

/// A cached cost under the label of the layer that asked for it (the
/// cache key excludes the label). Copies no heap data: the name and the
/// wave overheads are shared with `cached` and `name`.
fn relabelled(cached: &LayerCost, name: &Arc<str>) -> LayerCost {
    LayerCost {
        name: Arc::clone(name),
        ..cached.clone()
    }
}

/// Everything an [`Engine`] remembers between calls, behind one
/// reader–writer lock. Reading it ([`Memo::cost`], the generator list)
/// mutates nothing, so lookups take the lock shared and run side by
/// side; only [`Memo::insert`] and [`Memo::remember`] take it exclusive.
#[derive(Default)]
struct Memo {
    /// The layer-cost cache: the single source of every memoized result,
    /// each entry with its insertion number.
    costs: HashMap<CacheKey, (u64, LayerCost)>,
    inserted: u64,
    /// Per generator, where in `costs` its layers live. Oldest first,
    /// at most [`Engine::GENERATOR_KEY_CAP`] entries; looked up by
    /// comparing keys, so a hit is the same generator, not a hash of it.
    generators: VecDeque<(GeneratorKey, Vec<LayerKey>)>,
    /// How many times the retained generators list each layer.
    listed: HashMap<LayerId, usize>,
    /// The entries of layers no retained generator lists, oldest first:
    /// at most [`Engine::KEYLESS_COST_CAP`]. An entry may appear twice
    /// (it then counts twice), and one whose layer a generator has
    /// listed since is skipped rather than dropped when its turn comes.
    keyless: VecDeque<CacheKey>,
}

impl Memo {
    fn cost(&self, key: &CacheKey) -> Option<&LayerCost> {
        self.costs.get(key).map(|(_, cost)| cost)
    }

    fn insert(&mut self, key: CacheKey, cost: LayerCost) {
        self.inserted += 1;
        let fresh = self.costs.insert(key, (self.inserted, cost)).is_none();
        if fresh && !self.listed.contains_key(&layer_of(&key)) {
            self.keyless.push_back(key);
            self.trim_keyless();
        }
    }

    /// Lists `layers` under `generator`, forgetting the oldest generator
    /// past [`Engine::GENERATOR_KEY_CAP`].
    fn remember(&mut self, generator: &GeneratorKey, layers: &[LayerKey]) {
        if self.generators.iter().any(|(k, _)| k == generator) {
            return;
        }
        for layer in layers {
            *self.listed.entry(layer.id()).or_default() += 1;
        }
        self.generators
            .push_back((generator.clone(), layers.to_vec()));
        if self.generators.len() > Engine::GENERATOR_KEY_CAP {
            let (_, forgotten) = self.generators.pop_front().expect("past the cap");
            self.forget(&forgotten);
        }
    }

    /// Moves the entries of the layers that only `forgotten` listed into
    /// the keyless allowance, oldest first, where the oldest beyond it
    /// are dropped.
    fn forget(&mut self, forgotten: &[LayerKey]) {
        let mut unlisted = HashSet::new();
        for layer in forgotten {
            let count = self
                .listed
                .get_mut(&layer.id())
                .expect("a retained generator's layers are listed");
            *count -= 1;
            if *count == 0 {
                self.listed.remove(&layer.id());
                unlisted.insert(layer.id());
            }
        }
        let mut demoted: Vec<(u64, CacheKey)> = self
            .costs
            .iter()
            .filter(|(key, _)| unlisted.contains(&layer_of(key)))
            .map(|(key, &(inserted, _))| (inserted, *key))
            .collect();
        demoted.sort_unstable_by_key(|&(inserted, _)| inserted);
        self.keyless.extend(demoted.into_iter().map(|(_, key)| key));
        self.trim_keyless();
    }

    fn trim_keyless(&mut self) {
        while self.keyless.len() > Engine::KEYLESS_COST_CAP {
            let key = self.keyless.pop_front().expect("past the cap");
            if !self.listed.contains_key(&layer_of(&key)) {
                self.costs.remove(&key);
            }
        }
    }
}

#[derive(Default)]
struct Counters {
    sets_resolved: AtomicU64,
    scenarios_assembled: AtomicU64,
    layer_hits: AtomicU64,
    layer_misses: AtomicU64,
    live_sets: AtomicU64,
    peak_live_sets: AtomicU64,
}

/// Counts of the work an [`Engine`] has done since it was created (see
/// [`Engine::memo_stats`]). They count work, not wall-clock: equal
/// inputs give equal counts on any host, which makes them the oracle
/// for "the memo did what it claims" where a timing could only suggest
/// it. All but the three gauges only ever grow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Workload sets resolved from their generator: mask sets
    /// synthesised, the dense baseline's constant vectors included.
    pub sets_resolved: u64,
    /// Scenarios whose cost was assembled from the layer-cost cache
    /// alone, without resolving (or fingerprinting) any workload.
    pub scenarios_assembled: u64,
    /// `(layer, phase)` costs served from the layer-cost cache.
    pub layer_hits: u64,
    /// `(layer, phase)` costs the cost model had to compute.
    pub layer_misses: u64,
    /// Gauge: resolved workload sets alive right now. Zero whenever no
    /// call is in flight — the engine retains no mask set.
    pub live_sets: u64,
    /// The highest `live_sets` has been: at most `threads` per call in
    /// flight.
    pub peak_live_sets: u64,
    /// Gauge: generators the engine can currently assemble without
    /// resolving; never above [`Engine::GENERATOR_KEY_CAP`].
    pub generator_keys: u64,
}

/// One resolved workload set, alive only inside the call that made it:
/// it borrows the engine's gauge, so no field of [`Engine`] can hold one.
struct Resolved<'e> {
    network: &'static str,
    workloads: Vec<(LayerTask, SparsityInfo)>,
    keys: Vec<LayerKey>,
    summaries: Vec<MaskSummary>,
    live_sets: &'e AtomicU64,
}

impl Drop for Resolved<'_> {
    fn drop(&mut self) {
        self.live_sets.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The scenarios of one [`Engine::run_all`] call that share a generator
/// (or one scenario on its own, when it has no key).
struct Group<'e> {
    key: Option<GeneratorKey>,
    /// Indices into the call's scenarios, in input order.
    members: Vec<usize>,
    /// The next member nobody has taken yet.
    next: AtomicUsize,
    state: Mutex<GroupState<'e>>,
}

struct GroupState<'e> {
    /// Set by the first member that needs the workloads, under the lock,
    /// so a worker helping with this group waits for them instead of
    /// synthesising its own.
    resolved: Option<Arc<Resolved<'e>>>,
    /// Members not yet finished; the set is dropped with the last one.
    remaining: usize,
}

/// The single evaluator behind every scenario and sweep.
///
/// # Lookup order
///
/// A scenario is looked up by what *produces* its workloads before
/// anything is produced:
///
/// 1. **Generator key** — `(network, batch, sparsity generator, compute
///    backend)`, compared as a value. If the engine has resolved this
///    generator before, it still knows the layer-cost cache keys of its
///    layers.
/// 2. **Layer-cost probe** — with those keys, every `(layer, phase)` of
///    the scenario is looked up in the layer-cost cache under one shared
///    (read) acquisition of the memo lock, so workers probing at once do
///    not queue behind each other. If all are there, the result is
///    assembled from them: no mask is synthesised, nothing is
///    fingerprinted, and each cost is a clone that shares its name and
///    wave overheads with the cached entry.
/// 3. **Group resolve** — otherwise the workloads are resolved, once per
///    generator key per [`Engine::run_all`] call: scenarios with equal
///    keys form a group that shares one set. Groups are opened costliest
///    first: synthesised masks before constant sets, then by the
///    geometry's kernel count, ties in input order (results still land
///    in input order). Each worker thread opens a group of its own and
///    synthesises for it beside the others, so the last groups opened
///    are the cheap ones; only a worker that finds no unopened group
///    left joins one that is still open, and waits if that group's set
///    is being synthesised right then rather than making a second copy.
/// 4. **Evaluate** — each `(layer, phase)` is served from the layer-cost
///    cache or computed by the cost model and added to it.
///
/// # What is retained
///
/// Between calls the engine keeps, for the most recent
/// [`Engine::GENERATOR_KEY_CAP`] generators, the cache keys and names of
/// their layers — a few KB each — and the layer-cost cache. The cache is
/// bounded: it holds the costs of the layers those generators list (at
/// most their layers × 3 phases × the evaluation points asked of them)
/// and at most [`Engine::KEYLESS_COST_CAP`] others — the costs of
/// [`SparsityGen::Extracted`] scenarios and [`Engine::run_workloads`],
/// and those a forgotten generator alone listed, oldest dropped first.
/// The layer-cost cache is the only store of results; the key map only
/// says where to look in it.
///
/// It never keeps a resolved workload set: the ten sets of the Fig 17–20
/// grid are 92 MiB of per-kernel nonzero counts, more than the whole
/// process peaks at while evaluating it, so each is dropped when the
/// last scenario of its group finishes. A resolved set carries one
/// [`MaskSummary`] per layer — its per-row, per-column and per-tile
/// nonzeros, O(K + C + tiles), built in the pass that fingerprints the
/// layer — so the cost model reduces each mask set once per call, not
/// once per layer × phase × scenario; the summaries go with the set.
///
/// The generator key is a value rather than a fingerprint because a
/// 64-bit collision between two generators would silently return one
/// network's costs for another; comparing a few words per candidate is
/// cheaper than that risk. [`SparsityGen::Extracted`] scenarios carry
/// their content instead of a generator and always take steps 3–4.
pub struct Engine {
    opts: EngineOpts,
    memo: RwLock<Memo>,
    counters: Counters,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new(EngineOpts::default())
    }
}

impl Engine {
    /// How many generator keys an engine remembers; the oldest is
    /// forgotten first. Forgetting one costs its next scenario a
    /// resolve, nothing else.
    pub const GENERATOR_KEY_CAP: usize = 64;

    /// How many layer costs an engine keeps beyond those of the layers
    /// its retained generators list; the oldest is dropped first.
    /// Enough for the whole Fig 17–20 grid's costs (5 976 entries) to
    /// outlive its generators' keys.
    pub const KEYLESS_COST_CAP: usize = 8192;

    /// Creates an engine with explicit options.
    pub fn new(opts: EngineOpts) -> Self {
        Self {
            opts,
            memo: RwLock::default(),
            counters: Counters::default(),
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

    fn memo(&self) -> RwLockReadGuard<'_, Memo> {
        self.memo.read().expect("no panic under the memo lock")
    }

    fn memo_mut(&self) -> RwLockWriteGuard<'_, Memo> {
        self.memo.write().expect("no panic under the memo lock")
    }

    /// Number of distinct layer×phase costs currently memoized.
    pub fn cached_layer_costs(&self) -> usize {
        self.memo().costs.len()
    }

    /// What the memo has done so far; see [`MemoStats`].
    pub fn memo_stats(&self) -> MemoStats {
        let c = &self.counters;
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        MemoStats {
            sets_resolved: load(&c.sets_resolved),
            scenarios_assembled: load(&c.scenarios_assembled),
            layer_hits: load(&c.layer_hits),
            layer_misses: load(&c.layer_misses),
            live_sets: load(&c.live_sets),
            peak_live_sets: load(&c.peak_live_sets),
            generator_keys: self.memo().generators.len() as u64,
        }
    }

    /// Evaluates one scenario.
    pub fn run(&self, scenario: &Scenario) -> Result<EvalResult, ScenarioError> {
        let mut results = self.run_all(std::slice::from_ref(scenario))?;
        Ok(results.pop().expect("one result per scenario"))
    }

    /// Evaluates every scenario, fanning out across the engine's worker
    /// threads. Results are returned in input order and are identical for
    /// any thread count (the per-layer model is deterministic; threading
    /// only changes scheduling).
    ///
    /// Scenarios with equal generator keys are evaluated next to each
    /// other, whatever their order in `scenarios`, the costliest group to
    /// resolve first, and share one resolved
    /// workload set (see [`Engine`], "Lookup order"): each distinct mask
    /// set is synthesised at most once per call, at most `threads` of
    /// them are alive at any time, and none outlives the call. Work is
    /// handed out a group per worker first and member by member after, so
    /// no worker idles while there is a group nobody has opened and the
    /// time a call takes does not depend on which worker happens to reach
    /// a group first.
    pub fn run_all(&self, scenarios: &[Scenario]) -> Result<Vec<EvalResult>, ScenarioError> {
        // Validate everything up front so workers cannot fail mid-sweep.
        for s in scenarios {
            s.validate()?;
        }
        let mut keyed: Vec<(Option<GeneratorKey>, Vec<usize>)> = Vec::new();
        for (i, scenario) in scenarios.iter().enumerate() {
            let key = if self.opts.memoize {
                scenario.generator_key()
            } else {
                None
            };
            let known = key.as_ref().and_then(|k| {
                keyed
                    .iter()
                    .position(|(other, _)| other.as_ref() == Some(k))
            });
            match known {
                Some(g) => keyed[g].1.push(i),
                None => keyed.push((key, vec![i])),
            }
        }
        // Costliest resolve first (ties in input order), so the last group
        // opened is a cheap one and no worker ends the call waiting on a
        // long synthesis that began late.
        keyed.sort_by_cached_key(|(_, members)| {
            std::cmp::Reverse(scenarios[members[0]].resolve_work())
        });
        let groups: Vec<Group<'_>> = keyed
            .into_iter()
            .map(|(key, members)| Group {
                key,
                next: AtomicUsize::new(0),
                state: Mutex::new(GroupState {
                    resolved: None,
                    remaining: members.len(),
                }),
                members,
            })
            .collect();

        let unopened = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<EvalResult>>> =
            scenarios.iter().map(|_| Mutex::new(None)).collect();
        // A worker opens a group of its own while there is one, so that it
        // synthesises beside the other workers rather than waiting for
        // them, and only then takes members of the groups still open. No
        // group is opened after a worker has started helping, so at most
        // `threads` are ever open.
        let work = || {
            while let Some(group) = groups.get(unopened.fetch_add(1, Ordering::Relaxed)) {
                self.drain(group, scenarios, &slots);
            }
            for group in &groups {
                self.drain(group, scenarios, &slots);
            }
        };
        let threads = self.opts.threads.max(1).min(scenarios.len().max(1));
        pool::run(threads, &mut Scratch::new(), &|_, _| work());
        Ok(slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("a slot is locked once")
                    .expect("every slot is filled before the workers return")
            })
            .collect())
    }

    /// Evaluates the members of `group` nobody has taken yet.
    fn drain<'e>(
        &'e self,
        group: &Group<'e>,
        scenarios: &[Scenario],
        slots: &[Mutex<Option<EvalResult>>],
    ) {
        while let Some(&i) = group
            .members
            .get(group.next.fetch_add(1, Ordering::Relaxed))
        {
            let result = self.run_in_group(&scenarios[i], group);
            *slots[i].lock().expect("a slot is locked once") = Some(result);
        }
    }

    /// One validated scenario: assembled from the cache if its generator
    /// is known and every layer hits, else evaluated over its group's
    /// workloads.
    fn run_in_group<'e>(&'e self, scenario: &Scenario, group: &Group<'e>) -> EvalResult {
        let point = EvalPoint::new(
            &scenario.arch,
            scenario.mapping,
            scenario.balance,
            scenario.fidelity,
        );
        let assembled = group
            .key
            .as_ref()
            .and_then(|key| self.assemble(key, &point));
        let cost = assembled.unwrap_or_else(|| {
            let set = self.resolve(scenario, group);
            self.evaluate(
                set.network,
                &point,
                &set.workloads,
                &set.keys,
                &set.summaries,
            )
        });
        let mut state = group.state.lock().expect("no panic under a group lock");
        state.remaining -= 1;
        if state.remaining == 0 {
            state.resolved = None;
        }
        EvalResult {
            scenario: scenario.clone(),
            cost,
        }
    }

    /// Steps 1–2 of the lookup order: the whole network from the
    /// layer-cost cache, or `None` at the first layer that is not there.
    fn assemble(&self, generator: &GeneratorKey, point: &EvalPoint<'_>) -> Option<NetworkCost> {
        let memo = self.memo();
        let (_, keys) = memo.generators.iter().find(|(k, _)| k == generator)?;
        let mut layers = Vec::with_capacity(keys.len() * 3);
        for key in keys {
            for phase in Phase::ALL {
                let cached = memo.cost(&point.cache_key(key, phase))?;
                layers.push(relabelled(cached, &key.name));
            }
        }
        drop(memo);
        let c = &self.counters;
        c.scenarios_assembled.fetch_add(1, Ordering::Relaxed);
        c.layer_hits
            .fetch_add(layers.len() as u64, Ordering::Relaxed);
        Some(NetworkCost::from_layers(
            generator.network,
            point.mapping,
            layers,
        ))
    }

    /// Step 3: the group's workload set, resolved by whichever worker
    /// gets here first — the one that opened the group, as a rule —
    /// while a helper arriving meanwhile waits on the group's lock: it
    /// would otherwise spend the same time synthesising its own copy.
    fn resolve<'e>(&'e self, scenario: &Scenario, group: &Group<'e>) -> Arc<Resolved<'e>> {
        let mut state = group.state.lock().expect("no panic under a group lock");
        if let Some(set) = &state.resolved {
            return Arc::clone(set);
        }
        let net = scenario
            .resolve_network()
            .expect("scenario was validated before evaluation");
        let workloads = scenario.workloads_for(&net);
        let (keys, summaries) = summarize(&workloads);
        let c = &self.counters;
        c.sets_resolved.fetch_add(1, Ordering::Relaxed);
        let live = c.live_sets.fetch_add(1, Ordering::Relaxed) + 1;
        c.peak_live_sets.fetch_max(live, Ordering::Relaxed);
        if let Some(key) = &group.key {
            self.memo_mut().remember(key, &keys);
        }
        let set = Arc::new(Resolved {
            network: net.name,
            workloads,
            keys,
            summaries,
            live_sets: &c.live_sets,
        });
        state.resolved = Some(Arc::clone(&set));
        set
    }

    /// Step 4, and the only caller of the cost model: every layer × phase
    /// of `workloads` from the layer-cost cache, or computed from its
    /// mask summary and added to it. `keys` and `summaries` are
    /// `summarize(workloads)`.
    fn evaluate(
        &self,
        network: &str,
        point: &EvalPoint<'_>,
        workloads: &[(LayerTask, SparsityInfo)],
        keys: &[LayerKey],
        summaries: &[MaskSummary],
    ) -> NetworkCost {
        let mut layers = Vec::with_capacity(workloads.len() * 3);
        for (((task, sp), key), summary) in workloads.iter().zip(keys).zip(summaries) {
            for phase in Phase::ALL {
                let compute = || {
                    evaluate_layer_summarized(
                        point.hw,
                        task,
                        phase,
                        point.mapping,
                        sp,
                        summary,
                        point.balance,
                        point.fidelity,
                    )
                };
                let cache_key = self.opts.memoize.then(|| point.cache_key(key, phase));
                let hit = cache_key.and_then(|k| {
                    let memo = self.memo();
                    memo.cost(&k).map(|c| relabelled(c, &key.name))
                });
                let counter = if hit.is_some() {
                    &self.counters.layer_hits
                } else {
                    &self.counters.layer_misses
                };
                counter.fetch_add(1, Ordering::Relaxed);
                layers.push(hit.unwrap_or_else(|| {
                    let mut fresh = compute();
                    fresh.name = Arc::clone(&key.name);
                    if let Some(k) = cache_key {
                        self.memo_mut().insert(k, fresh.clone());
                    }
                    fresh
                }));
            }
        }
        NetworkCost::from_layers(network, point.mapping, layers)
    }

    /// The lower-level entry point: evaluates explicit `(task, sparsity)`
    /// pairs (all layers × all three phases) under one mapping and
    /// latency fidelity — e.g. masks extracted from a trained model, or
    /// one mask set under several balancing modes. The tasks carry their
    /// own minibatch dimension and are evaluated exactly as given.
    ///
    /// The workloads have no generator the engine could key on, so every
    /// call fingerprints them to find their layer costs, summarising
    /// each mask set in the same pass, and their costs count against
    /// [`Engine::KEYLESS_COST_CAP`].
    pub fn run_workloads(
        &self,
        network: &str,
        hw: &ArchConfig,
        mapping: Mapping,
        workloads: &[(LayerTask, SparsityInfo)],
        balance: BalanceMode,
        fidelity: Fidelity,
    ) -> NetworkCost {
        let point = EvalPoint::new(hw, mapping, balance, fidelity);
        let (keys, summaries) = summarize(workloads);
        self.evaluate(network, &point, workloads, &keys, &summaries)
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
    /// Sums `layers` (layer-major, the three phases of each in
    /// [`Phase::ALL`] order) into their per-phase summaries.
    fn from_layers(network: &str, mapping: Mapping, layers: Vec<LayerCost>) -> Self {
        Self {
            network: network.to_string(),
            mapping,
            phases: Phase::ALL.map(|phase| layers.iter().filter(|c| c.phase == phase).collect()),
            layers,
        }
    }

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch;
    use crate::masks::MaskGenConfig;
    use procrustes_nn::ComputeBackend;
    use procrustes_sim::Fnv1a;

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
